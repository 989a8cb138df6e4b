"""Checks on the package source itself."""

import ast
import inspect
from pathlib import Path

import pytest

import bispinor
from stack_contract import CASES

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "bispinor"
#: __init__ imports names to re-export them, so it is not checked
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def bound_names(tree):
    """The name each import in the module binds, nested imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    # a deleted function tends to leave its imports behind
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in bound_names(tree) if name not in used]
    assert not unused, f"{path.name} imports {unused} and never uses them"


def read_names(tree):
    """Names a module reads: loads, attributes, from-imports and __all__ entries."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            yield from (elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))


def defined_names(tree):
    """Top-level functions, classes and assigned names of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_top_level_name(path):
    # a name no package module reads is dead code, whatever defines it
    read = {name for module in PACKAGE.glob("*.py")
            for name in read_names(ast.parse(module.read_text(), filename=str(module)))}
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [name for name in defined_names(tree) if name not in read]
    assert not unread, f"{path.name} defines {unread} and no package module reads them"


#: the package modules each module imports, nested imports included: the
#: layering from linalg, values and errors up to acceptance and cli. The
#: engine, noise, takes its generator and rate as plain inputs, so it sits
#: on linalg alone
PACKAGE_IMPORTS = {
    "acceptance.py": {"correlations", "dirac", "ionmap", "noise", "scenario"},
    "cli.py": {"acceptance", "errors", "ionmap", "scenario"},
    "correlations.py": {"linalg"},
    "dirac.py": {"errors", "linalg", "values"},
    "errors.py": set(),
    "ionmap.py": {"dirac", "values"},
    "linalg.py": set(),
    "noise.py": {"linalg"},
    "scenario.py": {"correlations", "dirac", "errors", "linalg", "noise", "values"},
    "values.py": set(),
}


def package_imports(path):
    """The package modules a module imports, by its relative imports."""
    return {node.module for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and node.level > 0}


def test_modules_import_the_package_layering():
    # a new package import changes the layering on purpose, here, or not at all
    assert {path.name: package_imports(path) for path in MODULES} == PACKAGE_IMPORTS


def test_acceptance_imports_no_private_name():
    # the shipped battery checks what users can call, not internals
    path = PACKAGE / "acceptance.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"acceptance.py imports private names {private}"


def raised_names(tree):
    """Names of the exceptions a module raises: by raise statements, or as _refuse's error."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_refuse":
            errors = [*node.args[1:], *(kw.value for kw in node.keywords if kw.arg == "error")]
            yield from (error.id for error in errors if isinstance(error, ast.Name))


def test_every_error_class_is_raised():
    # __init__ re-exports every error, so reading a name does not show use
    raised = {name for module in MODULES
              for name in raised_names(ast.parse(module.read_text(), filename=str(module)))}
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    unraised = [node.name for node in errors.body
                if isinstance(node, ast.ClassDef) and node.name not in raised]
    assert not unraised, f"errors.py defines {unraised} and no package module raises them"


#: the public functions outside the stack contract, each with its reason
NOT_STACKED = (
    ("detect_features", "reads one trajectory's columns as a whole"),
    ("dirac_to_ion", "maps one point to one IonParams"),
    ("emit_outputs", "writes one run's files"),
    ("initial_state", "builds one start"),
    ("load_config", "reads one config file"),
    ("parse_config_text", "parses one config text"),
    ("run_scenario", "runs one config"),
    ("run_trajectory", "computes one run; test_engine checks its rows against the block size"),
)


def test_every_public_function_keeps_the_stack_contract():
    # a new public stacked function needs a case in stack_contract.CASES
    # that some test runs, or a reason above
    functions = {name for name in bispinor.__all__ if inspect.isfunction(getattr(bispinor, name))}
    assert sorted(functions) == sorted([*CASES, *dict(NOT_STACKED)])
    nodes = (node for path in TESTS.glob("test_*.py")
             for node in ast.walk(ast.parse(path.read_text())))
    run = {arg.value for node in nodes
           if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_case"
           for arg in node.args}
    assert run == set(CASES)


#: every eigen-solver call in the package, as (module, top-level function,
#: solver): the engine's one eigh, the measures' one batched eigvalsh, and
#: the numeric side of the battery's closed-form spectrum check
EIGEN_SOLVER_CALLS = (
    ("acceptance.py", "criterion_01", "eigvalsh"),
    ("correlations.py", "_spectra", "eigvalsh"),
    ("noise.py", "evolve_noisy_stack", "eigh"),
)


def eigen_solver_calls(path):
    """(module, top-level function or "<module>", solver) of each eigen-solver call."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("eigh", "eigvalsh", "eig", "eigvals"):
                    yield path.name, getattr(top, "name", "<module>"), name


def test_eigen_solvers_are_called_in_three_places_only():
    # the spectrum and projectors have closed forms; a new numeric solver
    # call would be a second route to what one of these already computes
    calls = sorted(call for path in PACKAGE.glob("*.py") for call in eigen_solver_calls(path))
    assert calls == sorted(EIGEN_SOLVER_CALLS)
