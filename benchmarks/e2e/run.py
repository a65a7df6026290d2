"""Run one workload of the end-to-end benchmark (the BENCHMARK.json command).

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

The same as ``python -m benchmarks.e2e run ...`` from the repository root.
"""

import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
