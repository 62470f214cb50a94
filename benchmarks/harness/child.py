"""Child-process entry: run one workload (or one warm-restart generation).

Started by the harness as ``python -m benchmarks.harness.child CONFIG``
with ``CONFIG`` a JSON object; prints the result as one JSON line, last
on standard output.  The parent pins the BLAS thread variables before
this interpreter imports NumPy.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    config = json.loads(argv[0])
    from benchmarks.harness import workloads
    from benchmarks.harness.env import library_environment

    if config.get("role") == "generation":
        result = workloads.generation(config)
    else:
        result = workloads.run_workload(config)
        result["library"] = library_environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
