"""Run one traced `bispinor` CLI unit in this fresh interpreter.

Usage: python trace_unit.py SPANS_JSON UNIT_ID -- CLI ARGS...

Times the numpy and package imports, then wraps every public function
of the traced modules with a span recorder and calls `bispinor.cli.main`
exactly as `python -m bispinor.cli` would. The modules bind each other's
functions with `from ... import`, so a wrapper must replace every binding
of the original, not just the attribute of its home module; the entries
of `acceptance.CRITERIA` are replaced the same way so each criterion is
timed. Spans stay in memory and are written to SPANS_JSON at exit.

A span is [name index, start, end, parent span index or -1, unit id].
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("cli", "scenario", "acceptance", "correlations", "noise",
           "linalg", "dirac", "ionmap")


class Tracer:
    def __init__(self, unit: int):
        self.unit = unit
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.counters = {}

    def wrap(self, name: str, fn, count_result=None):
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack, unit, clock = self.spans, self.stack, self.unit, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_idx, clock(), 0.0, stack[-1], unit]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_result is not None:
                self.counters[name] = self.counters.get(name, 0) + count_result(result)
            return result

        return traced


def _written_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# counters recorded at a span boundary from the wrapped call's result
COUNT_RESULT = {"scenario.emit_outputs": _written_bytes}


def install(tracer: Tracer) -> None:
    import bispinor

    modules = {short: importlib.import_module(f"bispinor.{short}") for short in MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, COUNT_RESULT.get(name))
    for mod in (bispinor, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    acceptance = modules["acceptance"]
    acceptance.CRITERIA = tuple((n, label, wrapped.get(fn, fn))
                                for n, label, fn in acceptance.CRITERIA)


def main() -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import bispinor.cli
    t2 = time.perf_counter()

    spans_path, unit = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = Tracer(unit)
    install(tracer)
    try:
        code = bispinor.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"unit": unit, "import_numpy_s": t1 - t0, "import_s": t2 - t0,
                       "names": tracer.names, "spans": tracer.spans,
                       "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
