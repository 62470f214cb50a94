"""Command line of the benchmark harness.

``run`` measures one workload in a fresh child process and prints every
metric with its unit, the validity gates, and, last, one JSON line::

    PYTHONPATH=src python -m benchmarks.harness run --workload oneshot --seed 1
    python3 benchmarks/harness/run.py --workload oneshot --seed 1 --seconds 12 --trace 0

``--trace 1`` runs the workload twice with the same op count, untraced
then traced, checks that both return the same answers digest, and prints
the per-layer metrics instead of the end-to-end ones.

``compare A/ B/`` reads the ``--out`` files in two directories and gives,
per workload and metric, each side's median and quartiles and a verdict
against the metric's bound in BENCHMARK.json.

The parent process never imports NumPy or the library, so it starts fast
and stays out of the measured process's way.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any

from benchmarks.harness.env import host_environment
from benchmarks.harness.stats import quartiles

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HARNESS_DIR))

#: what the two generic timing metrics mean on each workload.
LABELS = {
    "oneshot": ("oneshot_s", "full_train_s"),
    "serve-mixed": ("repeat_s_p50", "new_s_p50"),
    "warm-restart": ("restart_s", "fill_s"),
    "sharded-append": ("new_s_p50", "refresh_s"),
}


class HarnessError(Exception):
    """A run that could not produce a result."""


def load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def child_env(tmp: str, blas_threads: int) -> dict[str, str]:
    """The measured process's environment: knobs scrubbed, BLAS pinned."""
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith(("REPRO_", "DEFAULT_"))
    }
    threads = str(blas_threads)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
        PYTHONHASHSEED="0",
        TMPDIR=tmp,
    )
    return env


def spawn_child(config: dict[str, Any], env: dict[str, str], timeout: float) -> dict[str, Any]:
    """Run one workload child to completion and parse its result line."""
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.harness.child", json.dumps(config)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise HarnessError(f"workload child exceeded {timeout:.0f} s") from None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise HarnessError(f"workload child exited with code {process.returncode}\n{tail}")
    return json.loads(lines[-1])


def trace_overhead(untraced: dict[str, Any], traced: dict[str, Any]) -> float | None:
    """Traced ÷ untraced op wall time − 1, over the two timed op classes."""

    def op_time(result: dict[str, Any]) -> float | None:
        values = [result["end_to_end"][name] for name in ("primary_s", "secondary_s")]
        return None if None in values else sum(values)

    before, after = op_time(untraced), op_time(traced)
    return None if not before or after is None else after / before - 1.0


def assemble(
    args: argparse.Namespace,
    workload: str,
    bench: dict[str, Any],
    host: dict[str, Any],
    untraced: dict[str, Any],
    traced: dict[str, Any] | None,
) -> dict[str, Any]:
    """One run's full record (what ``--out`` writes)."""
    gates = dict(untraced["gates"])
    runs = [untraced] if traced is None else [untraced, traced]
    per_layer = None
    if traced is not None:
        same = traced["answers_digest"] == untraced["answers_digest"]
        gates["trace_digest"] = {
            "ok": same,
            "detail": f"untraced {untraced['answers_digest']} traced {traced['answers_digest']}",
        }
        values = {**traced["per_layer"], "harness.trace_overhead": trace_overhead(untraced, traced)}
        per_layer = {
            metric["name"]: {"value": values.get(metric["name"]), "unit": metric["unit"]}
            for metric in bench["per_layer"]
        }
    end_to_end = {
        metric["name"]: {"value": untraced["end_to_end"][metric["name"]], "unit": metric["unit"]}
        for metric in bench["end_to_end"]
    }
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = (
        failed == 0
        and all(gate["ok"] for gate in gates.values())
        and all(entry["value"] is not None for entry in end_to_end.values())
    )
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": "smoke" if args.smoke else "full",
        "labels": dict(zip(("primary_s", "secondary_s"), LABELS[workload])),
        "environment": {**host, **untraced["library"]},
        "data_specs": untraced["data_specs"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "ops": {
            "attempted": untraced["attempted_by_kind"],
            "succeeded": {
                kind: count - untraced["failed_by_kind"].get(kind, 0)
                for kind, count in untraced["attempted_by_kind"].items()
            },
            "failed": untraced["failed_by_kind"],
            "errors": untraced["errors"] + ([] if traced is None else traced["errors"]),
        },
        "iterations": untraced["iterations"],
        "samples": untraced["samples"],
        "raw": untraced["raw"],
        "answers_digest": untraced["answers_digest"],
        "answers": untraced["answers"],
        "gates": gates,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "breakdown": None if traced is None else traced["breakdown"],
        "detail": untraced["detail"],
    }


def report(record: dict[str, Any], trace: bool) -> None:
    """Human-readable lines; the JSON result line follows them."""
    labels = record["labels"]
    print(
        f"{record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"scale={record['scale']}: {record['attempted']} ops attempted, "
        f"{record['failed']} failed, {record['answers']} answers, "
        f"digest {record['answers_digest']}"
    )
    section = record["per_layer"] if trace else record["end_to_end"]
    for name, entry in section.items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        note = ""
        if name in labels:
            note = f"  ({labels[name]}, {record['samples'][name]} samples)"
        elif name == "setup_s":
            note = f"  (median of {record['samples']['setup_s']} set-ups)"
        print(f"  {name:<34} {shown:>12} {entry['unit']}{note}")
    for kind, entry in (record["breakdown"] or {}).items():
        top = ", ".join(f"{layer} {share:.0%}" for layer, share in list(entry["layers"].items())[:4])
        print(f"  breakdown {kind} ({entry['ops']} ops, {entry['op_s']:.3f} s): {top}")
    for name, value in record["detail"].items():
        print(f"  detail {name}: {json.dumps(value)}")
    for name, gate in record["gates"].items():
        print(f"  gate {name}: {'ok' if gate['ok'] else 'FAILED'} ({gate['detail']})")
    for error in record["ops"]["errors"]:
        print(f"  error {error.splitlines()[-1] if error else error}")


def run_workload(
    args: argparse.Namespace,
    workload: str,
    bench: dict[str, Any],
    calibration: dict[str, Any],
    host: dict[str, Any],
) -> int:
    """Measure one workload, print its report and its JSON result line."""
    settings = calibration["scales"]["smoke" if args.smoke else "full"]["workloads"][workload]
    tmp = os.path.join(ROOT, ".bench_tmp", f"{workload}-{os.getpid()}")
    os.makedirs(tmp)
    deadline = time.monotonic() + calibration["timeout_s"]
    config = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "settings": settings,
        "tmp": tmp,
        "trace": False,
    }
    env = child_env(tmp, calibration["blas_threads"])
    try:
        untraced = spawn_child(config, env, deadline - time.monotonic())
        traced = None
        if args.trace:
            replay = dict(config, trace=True, iterations=untraced["iterations"])
            traced = spawn_child(replay, env, deadline - time.monotonic())
    except HarnessError as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run still uses it
    record = assemble(args, workload, bench, host, untraced, traced)
    report(record, args.trace)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = f"{workload}-seed{args.seed}{'-traced' if args.trace else ''}.json"
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    if args.trace_out and traced is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"record": record, "processes": traced["spans"]}, handle)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: library sources not found under {ROOT}/src/repro", file=sys.stderr)
        return 2
    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    except OSError as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    calibration = load_json(os.path.join(HARNESS_DIR, "calibration.json"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    host = host_environment(ROOT)
    if host["nproc"] != calibration["nproc"]:
        print(
            f"warning: {host['nproc']} usable CPUs, calibrated on {calibration['nproc']}; "
            "timings are not comparable with the calibration host",
            file=sys.stderr,
        )
    workloads = [args.workload] if args.workload else [entry["name"] for entry in bench["workloads"]]
    codes = [run_workload(args, workload, bench, calibration, host) for workload in workloads]
    return max(codes)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """``improved``, ``within bound``, ``regressed`` or ``unresolved``.

    Unresolved when either side's interquartile spread exceeds the bound,
    unless every run of ``after`` beats every run of ``before``.  Improved
    when the median got better by more than ``before``'s own spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1_a, median_a, q3_a = quartiles(before)
    q1_b, median_b, q3_b = quartiles(after)
    spread_a = (q3_a - q1_a) / median_a
    spread_b = (q3_b - q1_b) / median_b
    worse = sign * (median_b - median_a) / median_a
    if spread_a > bound or spread_b > bound:
        beats = all(sign * (b - a) < 0 for a in before for b in after)
        return "improved" if beats else "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > spread_a:
        return "improved"
    return "within bound"


def load_results(directory: str) -> dict[str, list[dict[str, Any]]]:
    results: dict[str, list[dict[str, Any]]] = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            record = load_json(os.path.join(directory, name))
            results.setdefault(record["workload"], []).append(record)
    return results


def compare(args: argparse.Namespace) -> int:
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    before, after = load_results(args.before), load_results(args.after)
    regressed = False
    for workload in sorted(set(before) | set(after)):
        print(f"{workload}: {len(before.get(workload, []))} vs {len(after.get(workload, []))} runs")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sides = [
                [r["end_to_end"][name]["value"] for r in runs.get(workload, [])
                 if r["end_to_end"][name]["value"] is not None]
                for runs in (before, after)
            ]
            cells = []
            for values in sides:
                if values:
                    q1, median, q3 = quartiles(values)
                    cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
                else:
                    cells.append("n/a")
            outcome = (
                verdict(sides[0], sides[1], metric["better"], metric["bound"])
                if all(sides) else "unresolved"
            )
            regressed |= outcome == "regressed"
            label = LABELS.get(workload, ("", ""))
            note = {"primary_s": label[0], "secondary_s": label[1]}.get(name, "")
            print(
                f"  {name:<14} {metric['unit']:<4} A {cells[0]:<28} B {cells[1]:<28} "
                f"{outcome} (bound {metric['bound']:.0%}){'  ' + note if note else ''}"
            )
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="measure one workload")
    run_parser.add_argument("--workload", choices=sorted(LABELS), help="default: every workload")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--seconds", type=float, default=None,
                            help="measurement window (default: run_seconds in BENCHMARK.json)")
    run_parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                            help="1: replay traced and print the per-layer metrics")
    run_parser.add_argument("--trace-out", help="write the traced run's spans to this JSON file")
    run_parser.add_argument("--out", help="directory for the full result records (what compare reads)")
    run_parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    compare_parser = commands.add_parser("compare", help="compare two directories of --out files")
    compare_parser.add_argument("before")
    compare_parser.add_argument("after")
    args = parser.parse_args(argv)
    return run(args) if args.command == "run" else compare(args)
