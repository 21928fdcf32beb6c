"""Entry point for ``python3 -m benchmarks.e25`` (from the repo root).

The benchmark brings its own import path: the program under test lives
in ``src/`` and is not installed in the checkout the driver runs in.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"benchmarks.e25 measures the repository it lives in: {SRC / 'repro'} is missing")
sys.path.insert(0, str(SRC))

from .cli import main  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    sys.exit(main())
