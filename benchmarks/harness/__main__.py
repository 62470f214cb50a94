import sys

from benchmarks.harness.cli import main

sys.exit(main())
