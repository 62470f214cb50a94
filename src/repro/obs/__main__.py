"""``python -m repro.obs`` — dump metrics as Prometheus text or JSON.

Without arguments, scrapes this process's global registry (useful from a
REPL or an embedded runner): the counters and histograms the stack
records at the source.  A fleet's gauges are in the scrape of the
service that owns it.  Given a path to a JSON snapshot previously saved
with :func:`repro.obs.write_json_snapshot`, re-renders that snapshot
instead — so archived per-run snapshots stay inspectable with the same
tool that produced them.

    python -m repro.obs                       # live registry, Prometheus text
    python -m repro.obs --format json         # live registry, JSON
    python -m repro.obs run.json              # saved snapshot, Prometheus text
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.exceptions import ObservabilityError
from repro.obs import (
    get_metrics,
    load_json_snapshot,
    render_json,
    render_prometheus,
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=(
            "Dump the process's metrics registry, or re-render a saved "
            "JSON metrics snapshot."
        ),
    )
    parser.add_argument(
        "snapshot",
        nargs="?",
        default=None,
        help="path to a JSON snapshot (default: scrape the live registry)",
    )
    parser.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="output format (default: prometheus text exposition)",
    )
    args = parser.parse_args(argv)
    try:
        if args.snapshot is None:
            snapshot = get_metrics().snapshot()
        else:
            snapshot = load_json_snapshot(args.snapshot)
    except (OSError, ValueError, ObservabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rendered = (
        render_json(snapshot)
        if args.format == "json"
        else render_prometheus(snapshot)
    )
    sys.stdout.write(rendered if rendered.endswith("\n") else rendered + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
