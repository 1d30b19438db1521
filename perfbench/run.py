"""Benchmark entry point.

    python3 perfbench/run.py --workload chain_small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program under test is imported
from ``src/`` of that checkout, never from an installed copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "scpa_host" / "__init__.py").is_file():
        print(f"perfbench: no scpa_host sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.harness import main

    sys.exit(main())
