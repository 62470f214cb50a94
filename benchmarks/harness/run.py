"""Script entry for ``python3 benchmarks/harness/run.py --workload W ...``.

Same as ``python -m benchmarks.harness run ...``, runnable from the
repository root without setting ``PYTHONPATH``.
"""

import os
import sys

# Swap this script's directory for the repository root, so the harness
# modules import as ``benchmarks.harness.*`` and ``trace.py`` cannot
# shadow the standard library's ``trace``.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.harness.cli import main  # noqa: E402 - needs the path above

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
