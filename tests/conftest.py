import importlib.util
import sys
from pathlib import Path

from hypothesis import settings

# the package under test is the one PYTHONPATH or an install selects;
# only where neither provides one is this checkout's src/ used
if importlib.util.find_spec("bispinor") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# every property runs derandomized, with its own max_examples
settings.register_profile("bispinor", deadline=None, derandomize=True, database=None)
settings.load_profile("bispinor")
