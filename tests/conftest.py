"""Let CLI subprocesses started by the tests import the package from src/.

``pythonpath = ["src"]`` in pyproject.toml covers the test process itself; a
child ``python -m loadshare.cli`` sees only the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
