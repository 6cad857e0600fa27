"""Let CLI subprocesses started by the tests import the package from src/, and make the
property tests draw the same examples at every run.

``pythonpath = ["src"]`` in pyproject.toml covers the test process itself; a
child ``python -m loadshare.cli`` sees only the environment.
"""

import os
from pathlib import Path

from hypothesis import settings

# Each @given test seeds its draws from its own source, so every run checks the same examples
# (each test's max_examples is its own) and a failure one checkout finds, every checkout finds.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
