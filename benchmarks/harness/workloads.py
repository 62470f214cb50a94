"""The four benchmark workloads.

Every workload runs inside a child process (see ``child.py``), builds its
inputs at run time from ``repro.data.synthetic`` and the run's seed, and
calls only the library's public entry points: ``BlinkML``,
``EstimationSession``, ``SessionRegistry`` (through the service),
``CoalescingService`` and ``ShardStore``.  Each returns a ``Run`` holding
its timed samples, op counts, the answers digest, validity gates and the
data specs it generated.

Why these four (the README has the full table):

* ``oneshot``: the paper's headline, approximate versus full training,
  with every op a cold session, so caches and serving tiers stay idle;
* ``serve-mixed``: open-loop skewed repeat/new traffic through the
  coalescing service, where caches and the batching window do the work;
* ``warm-restart``: fresh processes sharing one warm-cache directory,
  where the warm tier's writes and reads do the work;
* ``sharded-append``: a session reading shard stores that grow between
  contracts, where shard reads, sidecars and executor fan-out do the work.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from benchmarks.harness import layers
from benchmarks.harness.stats import AnswersDigest, percentile, summarize
from benchmarks.harness.trace import REQUEST_ID, Tracer
from repro import (
    ApproximationContract,
    BlinkML,
    CoalescingService,
    Dataset,
    EstimationSession,
    LinearRegressionSpec,
    LogisticRegressionSpec,
    MaxEntropySpec,
    PPCASpec,
    ShardStore,
    compute_statistics,
    train_holdout_test_split,
)
from repro.data.splits import SplitSpec
from repro.data.store import write_blocks
from repro.data.synthetic import make_dataset
from repro.evaluation.streaming import StreamingConfig, streaming_pass_count

#: a contract every initial model satisfies; its answer reports ε₀, the
#: initial model's own error bound, which new contracts are scaled from.
LOOSE = ApproximationContract(0.5)
SPLIT = SplitSpec(holdout_fraction=0.1, test_fraction=0.1)

Answer = tuple[int, bytes, float]


def answer_of(result: Any) -> Answer:
    theta = np.ascontiguousarray(result.model.theta, dtype=np.float64)
    return int(result.sample_size), theta.tobytes(), float(result.estimated_epsilon)


def result_ok(result: Any) -> bool:
    """Invariants every returned model must satisfy."""
    theta = result.model.theta
    return (
        result.initial_sample_size <= result.sample_size <= result.full_size
        and bool(np.all(np.isfinite(theta)))
        and np.isfinite(result.estimated_epsilon)
        and result.estimated_epsilon >= 0.0
        and (not result.used_initial_model or result.sample_size == result.initial_sample_size)
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process and every descendant it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def stratified(rng: np.random.Generator, low: float, high: float, count: int) -> np.ndarray:
    """``count`` draws from [low, high], one per equal stratum, shuffled.

    Contract ε factors decide how much work a contract costs; stratifying
    them keeps each run's mix of cheap and expensive contracts the same
    across seeds while every seed still gets its own contracts.
    """
    strata = (rng.permutation(count) + rng.uniform(size=count)) / count
    return low + (high - low) * strata


def data_spec(generator: str, params: dict[str, Any], seed: int) -> dict[str, Any]:
    """The ``(generator, params, seed)`` record that regenerates a dataset."""
    return {"generator": generator, "params": dict(params), "seed": seed}


def generate(spec: dict[str, Any]) -> Dataset:
    params = dict(spec["params"])
    centre = params.pop("centre", False)
    data = make_dataset(spec["generator"], seed=spec["seed"], **params)
    if centre:
        data = Dataset(data.X - data.X.mean(axis=0), None, name=data.name)
    return data


def split(data: Dataset, seed: int) -> Any:
    return train_holdout_test_split(data, SPLIT, rng=np.random.default_rng(seed))


def model_spec(model: str, train: Dataset, params: dict[str, Any]) -> Any:
    if model == "lr":
        return LogisticRegressionSpec(regularization=1e-3)
    if model == "lin":
        return LinearRegressionSpec.with_estimated_noise(train, regularization=1e-3)
    if model == "me":
        return MaxEntropySpec(n_classes=params["n_classes"], regularization=1e-3)
    if model == "ppca":
        return PPCASpec(n_factors=10, sigma2=1.0)
    raise ValueError(f"unknown model {model!r}")


@dataclass
class Run:
    """What one workload run produced."""

    setup_s: list[float] = field(default_factory=list)
    primary_s: list[float] = field(default_factory=list)
    secondary_s: list[float] = field(default_factory=list)
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)
    gates: dict[str, dict[str, Any]] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)
    data_specs: list[dict[str, Any]] = field(default_factory=list)
    digest: AnswersDigest = field(default_factory=AnswersDigest)
    iterations: int = 0
    counters: dict[str, Any] = field(default_factory=dict)
    processes: list[dict[str, Any]] = field(default_factory=list)
    #: sample counts behind primary_s / secondary_s when not their lengths.
    samples: dict[str, int] = field(default_factory=dict)

    def fail(self, kind: str, why: str) -> None:
        self.failed[kind] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {why}")

    def gate(self, name: str, ok: bool, detail: str) -> None:
        self.gates[name] = {"ok": bool(ok), "detail": detail}

    def require_samples(self, name: str, count: int, minimum: int) -> None:
        self.gate(f"samples:{name}", count >= minimum, f"{count} samples, {minimum} required")


class Context:
    """Run parameters plus the op/trace plumbing shared by the workloads."""

    def __init__(self, config: dict[str, Any]) -> None:
        self.seed = int(config["seed"])
        self.seconds = float(config["seconds"])
        self.settings = config["settings"]
        self.tmp = config["tmp"]
        self.iterations = config.get("iterations")
        self.traced = bool(config.get("trace"))
        self.tracer = Tracer() if self.traced else None
        self.run = Run()
        self._next_request = 0
        self._deadline = float("inf")
        self._traced_from = time.perf_counter()
        if self.tracer is not None:
            layers.install(self.tracer)

    def stop_tracing(self) -> None:
        """Unwrap the layers and keep this process's spans.  Idempotent.

        Workloads call it before their validity checks, so the checks'
        library calls neither count as spans nor dilute the layer shares.
        A process that recorded no spans (warm-restart's, which only
        spawns the traced generations) adds no wall time.
        """
        if self.tracer is None:
            return
        self.tracer.uninstall()
        if self.tracer.spans:
            self.run.processes.append(
                {"spans": self.tracer.export(), "wall_s": time.perf_counter() - self._traced_from}
            )
        self.tracer = None

    def rng(self, *tags: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *tags])

    def span(self, name: str, **attrs: Any) -> Any:
        return nullcontext() if self.tracer is None else self.tracer.span(name, **attrs)

    @contextmanager
    def op(self, kind: str) -> Iterator[Callable[[], float]]:
        """Time one op; yields a reader of the elapsed seconds.

        An exception inside the block counts the op as failed and is not
        re-raised, so one bad op never aborts the run.
        """
        self.run.attempted[kind] += 1
        token = REQUEST_ID.set(self._next_request)
        self._next_request += 1
        start = time.perf_counter()
        elapsed = [0.0]
        try:
            with self.span("harness.op", kind=kind):
                yield lambda: elapsed[0]
        except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
            self.run.fail(kind, f"{type(exc).__name__}: {exc}")
        finally:
            elapsed[0] = time.perf_counter() - start
            REQUEST_ID.reset(token)

    def repeated_setup(self, build: Callable[[int], Any], discard: Callable[[Any], None]) -> Any:
        """Run ``build`` ``setup_repeats`` times; keep the last, time each."""
        state = None
        for attempt in range(self.settings["setup_repeats"]):
            if state is not None:
                discard(state)
                state = None  # free it before building the next one
            start = time.perf_counter()
            with self.span("harness.setup"):
                state = build(attempt)
            self.run.setup_s.append(time.perf_counter() - start)
        return state

    def start_measuring(self) -> None:
        self._deadline = time.perf_counter() + self.seconds

    def more(self, done: int, minimum: int, maximum: int) -> bool:
        """Whether a closed loop starts iteration ``done`` (0-based)."""
        if self.iterations is not None:
            return done < self.iterations
        if done < minimum:
            return True
        return done < maximum and time.perf_counter() < self._deadline


# ----------------------------------------------------------------------
# oneshot
# ----------------------------------------------------------------------
def oneshot(ctx: Context) -> None:
    settings = ctx.settings
    run = ctx.run
    families = settings["families"]
    # Each family's dataset is fixed, like a corpus; the run seed draws the
    # split, the initial sample and every Monte-Carlo draw.  Fresh datasets
    # per seed moved full-training time by ±25 % through optimizer
    # iteration counts alone, which would drown the effects measured here.
    run.data_specs = [
        {**data_spec(f["generator"], f["params"], f["data_seed"]), "split_seed": ctx.seed * 1000 + i}
        for i, f in enumerate(families)
    ]

    def build(_: int) -> list[tuple[dict, Any, Any]]:
        prepared = []
        for family, spec in zip(families, run.data_specs):
            splits = split(generate(spec), spec["split_seed"])
            prepared.append(
                (family, splits, model_spec(family["model"], splits.train, family["params"]))
            )
        return prepared

    prepared = ctx.repeated_setup(build, lambda state: None)
    ctx.start_measuring()
    per_family: dict[str, dict[str, list[float]]] = {
        f["name"]: {"approx": [], "full": []} for f in families
    }
    fractions = []
    above_requested = 0
    cycle = 0
    while ctx.more(cycle, settings["min_cycles"], settings["max_cycles"]):
        for family, splits, spec in prepared:
            contract = ApproximationContract.from_accuracy(family["accuracy"])
            trainer = BlinkML(
                spec,
                initial_sample_size=settings["initial_sample_size"],
                seed=ctx.seed * 100 + cycle,
            )
            result = None
            with ctx.op(f"approx:{family['name']}") as elapsed:
                result = trainer.train(splits.train, splits.holdout, contract)
            if result is not None:
                if result_ok(result):
                    run.digest.add(*answer_of(result))
                    per_family[family["name"]]["approx"].append(elapsed())
                    fractions.append(result.sample_size / result.full_size)
                    above_requested += result.estimated_epsilon > contract.epsilon
                else:
                    run.fail(f"approx:{family['name']}", "invalid result")

            model = None
            with ctx.op(f"full:{family['name']}") as elapsed:
                model = trainer.train_full(splits.train)
            if model is not None:
                if np.all(np.isfinite(model.theta)):
                    theta = np.ascontiguousarray(model.theta, dtype=np.float64)
                    run.digest.add(model.n_train, theta.tobytes(), 0.0)
                    per_family[family["name"]]["full"].append(elapsed())
                else:
                    run.fail(f"full:{family['name']}", "non-finite θ")
        cycle += 1
    run.iterations = cycle
    # The typical cycle: per-family medians summed.  Medians of many short
    # ops shrug off the few seconds of host noise that sink a whole cycle.
    medians = {
        name: {kind: percentile(values, 50) for kind, values in times.items() if values}
        for name, times in per_family.items()
    }
    for kind, samples in (("approx", run.primary_s), ("full", run.secondary_s)):
        if all(kind in family for family in medians.values()):
            samples.append(sum(family[kind] for family in medians.values()))
    run.require_samples("cycles", cycle, settings["min_cycles"])
    run.samples = {"primary_s": cycle, "secondary_s": cycle}
    run.detail.update(
        {
            "oneshot_s": run.primary_s[0] if run.primary_s else None,
            "full_train_s": run.secondary_s[0] if run.secondary_s else None,
            "sample_fraction": float(np.mean(fractions)) if fractions else None,
            "estimates_above_requested_epsilon": above_requested,
            "families": {
                name: {
                    "approx_s": family.get("approx"),
                    "full_s": family.get("full"),
                    "speedup": family["full"] / family["approx"] if len(family) == 2 else None,
                }
                for name, family in medians.items()
            },
        }
    )


# ----------------------------------------------------------------------
# serve-mixed and warm-restart share one fleet
# ----------------------------------------------------------------------
def fleet_specs(seed: int, settings: dict[str, Any]) -> list[dict[str, Any]]:
    """One fixed LR dataset per key; the run seed draws splits and sessions."""
    return [
        {
            **data_spec("higgs_like", {"n_rows": settings["rows_per_key"]}, settings["data_seed"] + key),
            "split_seed": seed * 1000 + key,
        }
        for key in range(settings["keys"])
    ]


def build_fleet(specs: list[dict[str, Any]]) -> list[tuple[dict[str, Any], Any]]:
    return [(spec, split(generate(spec), spec["split_seed"])) for spec in specs]


def open_fleet(
    service: CoalescingService, fleet: list[tuple[dict[str, Any], Any]], settings: dict[str, Any]
) -> None:
    """Open one LR session per key through the service."""
    for key, (spec, splits) in enumerate(fleet):
        service.batcher(
            f"key{key}",
            LogisticRegressionSpec(regularization=1e-3),
            splits.train,
            splits.holdout,
            initial_sample_size=settings["initial_sample_size"],
            n_parameter_samples=settings["parameter_samples"],
            rng=spec["split_seed"],
        )


def fleet_epsilon0(service: CoalescingService, keys: int) -> dict[str, float]:
    """ε₀ per key: the initial model's own bound, answered by the service."""
    return {
        f"key{key}": service.answer_sync(f"key{key}", LOOSE).estimate.epsilon
        for key in range(keys)
    }


def serve_mixed(ctx: Context) -> None:
    settings = ctx.settings
    run = ctx.run
    run.data_specs = fleet_specs(ctx.seed, settings)
    low, high = settings["epsilon_factor"]
    hot_per_key = settings["hot_per_key"]

    def build(_: int) -> tuple[CoalescingService, dict[str, list], dict]:
        service = CoalescingService(warm_cache=False)
        open_fleet(service, build_fleet(run.data_specs), settings)
        epsilon0 = fleet_epsilon0(service, settings["keys"])
        rng = ctx.rng(1)
        factors = [stratified(rng, low, high, hot_per_key) for _ in range(settings["keys"])]
        hot = {
            key: [ApproximationContract(epsilon0[key] * f) for f in factors[index]]
            for index, key in enumerate(sorted(epsilon0))
        }
        contracts = [(key, c) for key in sorted(hot) for c in hot[key]]

        async def warm() -> list:
            return await asyncio.gather(*(service.train_to(key, c) for key, c in contracts))

        answers = {
            (key, c): answer_of(result)
            for (key, c), result in zip(contracts, asyncio.run(warm()))
        }
        return service, hot, {"epsilon0": epsilon0, "answers": answers}

    service, hot, state = ctx.repeated_setup(build, lambda state: state[0].close())
    epsilon0, hot_answers = state["epsilon0"], state["answers"]

    # The schedule: a Poisson process conditioned on its count, so every
    # seed sends exactly rate × seconds requests with exactly the new share.
    rng = ctx.rng(2)
    count = int(round(settings["rate"] * ctx.seconds))
    n_new = int(round(settings["new_share"] * count))
    due = np.sort(rng.uniform(0.0, ctx.seconds, size=count))
    is_new = rng.permutation(count) < n_new
    keys = sorted(hot)
    key_of = rng.choice(len(keys), size=count, p=settings["popularity"])
    hot_index = rng.integers(0, hot_per_key, size=count)
    new_factors = iter(stratified(rng, low, high, n_new))
    requests = []
    for i in range(count):
        key = keys[key_of[i]]
        if is_new[i]:
            requests.append(("new", key, ApproximationContract(epsilon0[key] * next(new_factors))))
        else:
            requests.append(("repeat", key, hot[key][hot_index[i]]))

    latency: dict[str, list[float]] = {"repeat": [], "new": []}
    answers: list[Answer | None] = [None] * count
    lateness: list[float] = []

    async def one(index: int, kind: str, key: str, contract: Any, due_at: float) -> None:
        REQUEST_ID.set(index)
        loop = asyncio.get_running_loop()
        run.attempted[kind] += 1
        try:
            with ctx.span("harness.request"):
                result = await service.train_to(
                    key, contract, timeout=settings["request_timeout_s"]
                )
        except Exception as exc:  # noqa: BLE001 - load shed / timeout / error
            run.fail(kind, f"{type(exc).__name__}: {exc}")
            return
        latency[kind].append(loop.time() - due_at)
        answer = answer_of(result)
        if kind == "repeat" and answer != hot_answers[(key, contract)]:
            run.fail(kind, f"{key}: repeat answer differs from its warm-up answer")
        elif not result_ok(result):
            run.fail(kind, f"{key}: invalid result")
        else:
            answers[index] = answer

    async def drive() -> int:
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.05
        tasks = []
        for index, (kind, key, contract) in enumerate(requests):
            due_at = start + due[index]
            delay = due_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(max(0.0, loop.time() - due_at))
            tasks.append(asyncio.create_task(one(index, kind, key, contract, due_at)))
        # Requests still running one drain window after the last send fail.
        _, pending = await asyncio.wait(tasks, timeout=settings["drain_s"])
        for task in pending:
            task.cancel()
        return len(pending)

    ctx.start_measuring()
    outstanding = asyncio.run(drive())
    run.iterations = count
    for answer in answers:
        if answer is not None:
            run.digest.add(*answer)
    stats = service.batching_stats()
    run.counters = {
        "batcher": asdict(stats),
        "registry_evictions": service.stats().evictions,
    }
    ctx.stop_tracing()
    service.close()
    if outstanding:
        run.failed["outstanding"] += outstanding
    run.primary_s = latency["repeat"]
    run.secondary_s = latency["new"]
    late_max = max(lateness, default=0.0)
    run.gate("generator_late", late_max <= settings["max_late_s"], f"max lateness {late_max:.4f} s")
    run.gate("drained", outstanding == 0, f"{outstanding} requests outstanding after the drain window")
    run.require_samples("repeat_s", len(latency["repeat"]), settings["min_repeat"])
    run.require_samples("new_s", len(latency["new"]), settings["min_new"])
    run.detail.update(
        {
            "repeat_s": summarize(latency["repeat"]),
            "new_s": summarize(latency["new"]),
            "late_s_max": late_max,
            "requests": count,
            "offered_rate": settings["rate"],
            "coalesced_requests": stats.coalesced_requests,
            "passes_saved": stats.passes_saved,
        }
    )


# ----------------------------------------------------------------------
# warm-restart
# ----------------------------------------------------------------------
def generation(config: dict[str, Any]) -> dict[str, Any]:
    """One serving generation in a fresh process against a shared warm dir.

    Opens the fleet, sends per key one burst of concurrent contracts (the
    distinct ones plus duplicates), then each distinct contract once more.
    Times the span from the first session open to the last answer and
    counts the streamed passes after the sessions are open.
    """
    settings = config["settings"]
    seed = int(config["seed"])
    tracer = Tracer() if config.get("trace") else None
    traced_from = time.perf_counter()
    if tracer is not None:
        layers.install(tracer)
    # Start-up (imports, data generation) is set-up: the parent times
    # spawn → ready from the wall clock both processes share.
    fleet = build_fleet(fleet_specs(seed, settings))
    ready = time.time()

    low, high = settings["epsilon_factor"]
    distinct = settings["distinct_per_key"]
    rng = np.random.default_rng([seed, 3])
    factors = [stratified(rng, low, high, distinct) for _ in range(settings["keys"])]
    service = CoalescingService(warm_cache=config["warm_dir"])
    errors: list[str] = []
    start = time.perf_counter()
    with tracer.span("harness.op", kind="generation") if tracer else nullcontext():
        open_fleet(service, fleet, settings)
        passes_before = streaming_pass_count()
        epsilon0 = fleet_epsilon0(service, settings["keys"])
        contracts = {
            key: [ApproximationContract(epsilon0[key] * f) for f in factors[index]]
            for index, key in enumerate(sorted(epsilon0))
        }
        burst = [
            (key, c)
            for key in sorted(contracts)
            for c in contracts[key] + contracts[key][: settings["duplicates_per_key"]]
        ]
        again = [(key, c) for key in sorted(contracts) for c in contracts[key]]

        async def send(batch: list) -> list:
            async def one(index: int, key: str, contract: Any) -> Any:
                REQUEST_ID.set(index)
                with tracer.span("harness.request") if tracer else nullcontext():
                    return await service.train_to(
                        key, contract, timeout=settings["request_timeout_s"]
                    )

            return await asyncio.gather(
                *(one(i, key, c) for i, (key, c) in enumerate(batch)),
                return_exceptions=True,
            )

        results = asyncio.run(send(burst)) + asyncio.run(send(again))
    wall = time.perf_counter() - start
    passes = streaming_pass_count() - passes_before
    traced_wall = time.perf_counter() - traced_from
    if tracer is not None:
        tracer.uninstall()
    answers = []
    failed = 0
    for result in results:
        if isinstance(result, BaseException):
            failed += 1
            errors.append(f"{type(result).__name__}: {result}")
        elif not result_ok(result):
            failed += 1
            errors.append("invalid result")
        else:
            n, theta, epsilon = answer_of(result)
            answers.append([n, theta.hex(), epsilon.hex()])
    service.registry.warm_cache.flush()
    warm = service.registry.warm_cache.stats()
    batcher = service.batching_stats()
    evictions = service.stats().evictions
    service.close()
    out = {
        "ready_wall": ready,
        "wall_s": wall,
        "passes": passes,
        "attempted": len(results),
        "failed": failed,
        "errors": errors[:10],
        "answers": answers,
        "warm": asdict(warm),
        "batcher": asdict(batcher),
        "registry_evictions": evictions,
    }
    if tracer is not None:
        out["spans"] = tracer.export()
        out["traced_wall_s"] = traced_wall
    return out


def spawn_generation(ctx: Context, warm_dir: str) -> tuple[float, dict[str, Any] | None, str]:
    """Run one generation in a fresh interpreter; ``(setup_s, result, error)``."""
    config = {
        "role": "generation",
        "seed": ctx.seed,
        "settings": ctx.settings,
        "warm_dir": warm_dir,
        "trace": ctx.traced,
    }
    spawned = time.time()
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "benchmarks.harness.child", json.dumps(config)],
            capture_output=True,
            text=True,
            timeout=ctx.settings["generation_timeout_s"],
            check=False,
        )
    except subprocess.TimeoutExpired:
        return 0.0, None, "timed out"
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        stderr = completed.stderr.strip().splitlines()
        return 0.0, None, stderr[-1] if stderr else f"exit code {completed.returncode}"
    result = json.loads(lines[-1])
    return result["ready_wall"] - spawned, result, ""


def warm_restart(ctx: Context) -> None:
    settings = ctx.settings
    run = ctx.run
    run.data_specs = fleet_specs(ctx.seed, settings)
    roles = ["fill"] + ["warmup"] * settings["warmup_restarts"] + ["restart"] * settings["restarts"]
    batcher_totals: Counter = Counter()
    warm_totals: Counter = Counter()
    evictions = 0
    restart_passes = fill_passes = 0
    mismatched = 0
    ctx.start_measuring()
    cycle = 0
    while ctx.more(cycle, settings["min_cycles"], settings["max_cycles"]):
        warm_dir = os.path.join(ctx.tmp, f"warm-{cycle}")
        fill_answers = None
        for role in roles:
            run.attempted["generation"] += 1
            setup_s, result, error = spawn_generation(ctx, warm_dir)
            if result is None:
                run.fail("generation", f"{role}: {error}")
                continue
            run.setup_s.append(setup_s)
            run.attempted["request"] += result["attempted"]
            run.failed["request"] += result["failed"]
            run.errors.extend(result["errors"][: max(0, 20 - len(run.errors))])
            for answer in result["answers"]:
                run.digest.add(answer[0], bytes.fromhex(answer[1]), float.fromhex(answer[2]))
            batcher_totals.update(
                {k: v for k, v in result["batcher"].items() if not k.startswith("max_")}
            )
            warm_totals.update({k: v for k, v in result["warm"].items() if isinstance(v, int)})
            evictions += result["registry_evictions"]
            if "spans" in result:
                run.processes.append(
                    {"spans": result["spans"], "wall_s": result["traced_wall_s"]}
                )
            if role == "fill":
                fill_answers = result["answers"]
                fill_passes += result["passes"]
                run.secondary_s.append(result["wall_s"])
                continue
            restart_passes += result["passes"]
            if result["answers"] != fill_answers:
                mismatched += 1
                run.fail("generation", f"{role}: answers differ from the fill generation")
            if role == "restart":
                run.primary_s.append(result["wall_s"])
        shutil.rmtree(warm_dir, ignore_errors=True)
        cycle += 1
    run.iterations = cycle
    run.counters = {
        "batcher": dict(batcher_totals),
        "warm": dict(warm_totals),
        "registry_evictions": evictions,
    }
    run.gate("restart_zero_passes", restart_passes == 0, f"{restart_passes} streamed passes across restarts")
    run.gate("restart_bitwise", mismatched == 0, f"{mismatched} restarts differ from their fill")
    run.gate("fill_streams", fill_passes > 0, f"{fill_passes} streamed passes across fills")
    quarantined = warm_totals["quarantined"]
    run.gate("no_quarantine", quarantined == 0, f"{quarantined} warm entries quarantined")
    run.require_samples("restart_s", len(run.primary_s), settings["min_restarts"])
    run.detail.update(
        {
            "fill_s": percentile(run.secondary_s, 50) if run.secondary_s else None,
            "restart_s": percentile(run.primary_s, 50) if run.primary_s else None,
            "generations": len(run.setup_s),
            "warm_hits": warm_totals["hits"],
            "warm_writes": warm_totals["writes"],
        }
    )


# ----------------------------------------------------------------------
# sharded-append
# ----------------------------------------------------------------------
def sharded_append(ctx: Context) -> None:
    settings = ctx.settings
    run = ctx.run
    shard_rows = settings["shard_rows"]
    train_rows = settings["train_shards"] * shard_rows
    holdout_rows = settings["holdout_shards"] * shard_rows
    pool_rows = train_rows + holdout_rows + settings["rounds"] * shard_rows
    pool_spec = data_spec(
        "gas_like", {"n_rows": pool_rows, "n_features": settings["features"]}, settings["data_seed"]
    )
    run.data_specs = [pool_spec]
    streaming = StreamingConfig(n_workers=settings["workers"], backend="threads")

    def build(attempt: int) -> dict[str, Any]:
        directory = os.path.join(ctx.tmp, f"stores-{attempt}")
        pool = generate(pool_spec)
        train = Dataset(pool.X[:train_rows], pool.y[:train_rows], name="gas_like")
        holdout = Dataset(
            pool.X[train_rows:train_rows + holdout_rows],
            pool.y[train_rows:train_rows + holdout_rows],
            name="gas_like",
        )
        train_dir = os.path.join(directory, "train")
        holdout_dir = os.path.join(directory, "holdout")
        writer = ShardStore.write(train, train_dir, shard_rows=shard_rows)
        ShardStore.write(holdout, holdout_dir, shard_rows=shard_rows)
        spec = model_spec("lin", train, {})
        # The session reads through its own handles: a reader sharing the
        # writer's ShardStore object would never see the growth.
        session = EstimationSession(
            spec,
            ShardStore.open(train_dir).dataset(),
            ShardStore.open(holdout_dir).dataset(),
            initial_sample_size=settings["initial_sample_size"],
            n_parameter_samples=settings["parameter_samples"],
            statistics_scope="train",
            streaming=streaming,
            rng=ctx.seed,
            warm_cache=False,
        )
        epsilon0 = session.answer(LOOSE).estimate.epsilon
        return {
            "directory": directory, "pool": pool, "writer": writer, "spec": spec,
            "session": session, "epsilon0": epsilon0, "train_dir": train_dir,
        }

    state = ctx.repeated_setup(
        build, lambda old: shutil.rmtree(old["directory"], ignore_errors=True)
    )
    session, pool, writer = state["session"], state["pool"], state["writer"]
    epsilon0 = state["epsilon0"]
    low, high = settings["epsilon_factor"]
    factors = iter(stratified(ctx.rng(4), low, high, settings["rounds"] * settings["contracts_per_round"]))
    offset = train_rows + holdout_rows
    shards = settings["train_shards"]
    ctx.start_measuring()
    # A fixed round count: every round grows N, and with it the cost of
    # the next contracts, so a time-bound loop would feed machine speed
    # back into the per-contract median.
    round_index = 0
    while ctx.more(round_index, settings["rounds"], settings["rounds"]):
        block = (pool.X[offset:offset + shard_rows], pool.y[offset:offset + shard_rows])
        offset += shard_rows
        with ctx.op("append"):
            writer.append_shards([block], shard_rows=shard_rows)
        refresh = None
        with ctx.op("refresh") as elapsed:
            refresh = session.refresh()
        if refresh is not None:
            run.secondary_s.append(elapsed())
            if not (
                refresh.train_changed
                and refresh.statistics_recomputed
                and refresh.computed_shard_summaries == 1
                and refresh.reused_shard_summaries == shards
            ):
                run.fail("refresh", f"round {round_index}: refresh did not fold exactly one new shard")
            shards += 1
            for answer in refresh.reanswered:
                if answer.contract == LOOSE:
                    epsilon0 = answer.estimate.epsilon
        for _ in range(settings["contracts_per_round"]):
            contract = ApproximationContract(epsilon0 * next(factors))
            result = None
            with ctx.op("new") as elapsed:
                result = session.train_to(contract)
            if result is None:
                continue
            if not result_ok(result):
                run.fail("new", f"round {round_index}: invalid result")
                continue
            run.primary_s.append(elapsed())
            run.digest.add(*answer_of(result))
        round_index += 1
    run.iterations = round_index
    ctx.stop_tracing()

    # Validity: the statistics folded in round by round must equal a cold
    # rebuild over a fresh, sidecar-free copy of the grown store.
    grown = ShardStore.open(state["train_dir"]).dataset()
    cold = write_blocks(
        ((block.X, block.y) for block in grown.iter_blocks(shard_rows)),
        os.path.join(state["directory"], "cold"),
        shard_rows=shard_rows,
    )
    rebuilt = compute_statistics(
        state["spec"],
        session.initial_model.theta,
        cold.dataset(),
        method=session.statistics_method,
        streaming=streaming,
        persist=False,
    )
    same = rebuilt.sample_size == session.statistics.sample_size and np.array_equal(
        rebuilt.covariance.dense(), session.statistics.covariance.dense()
    )
    run.gate("statistics_equal_cold_rebuild", same, f"{rebuilt.sample_size} rows rebuilt")
    shutil.rmtree(state["directory"], ignore_errors=True)
    run.require_samples("new_s", len(run.primary_s), settings["min_new"])
    run.require_samples("refresh_s", len(run.secondary_s), settings["rounds"])
    run.detail.update(
        {
            "new_s": summarize(run.primary_s),
            "refresh_s": percentile(run.secondary_s, 50) if run.secondary_s else None,
            "rounds": round_index,
            "final_train_rows": session.full_size,
        }
    )


WORKLOADS: dict[str, Callable[[Context], None]] = {
    "oneshot": oneshot,
    "serve-mixed": serve_mixed,
    "warm-restart": warm_restart,
    "sharded-append": sharded_append,
}


def run_workload(config: dict[str, Any]) -> dict[str, Any]:
    """Run one workload in this process; the child's whole result."""
    ctx = Context(config)
    try:
        WORKLOADS[config["workload"]](ctx)
    except Exception:  # noqa: BLE001 - a crashed workload is a failed run
        ctx.run.attempted["workload"] += 1
        ctx.run.fail("workload", traceback.format_exc(limit=5))
    run = ctx.run
    ctx.stop_tracing()
    end_to_end = {
        "setup_s": percentile(run.setup_s, 50) if run.setup_s else None,
        "primary_s": percentile(run.primary_s, 50) if run.primary_s else None,
        "secondary_s": percentile(run.secondary_s, 50) if run.secondary_s else None,
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = sum(run.attempted.values())
    failed = sum(run.failed.values())
    result = {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "attempted_by_kind": dict(run.attempted),
        "failed_by_kind": dict(run.failed),
        "errors": run.errors,
        "error_rate": failed / attempted if attempted else 1.0,
        "gates": run.gates,
        "detail": run.detail,
        "data_specs": run.data_specs,
        "answers_digest": run.digest.hexdigest(),
        "answers": run.digest.count,
        "iterations": run.iterations,
        "raw": {"setup_s": run.setup_s, "primary_s": run.primary_s, "secondary_s": run.secondary_s},
        "samples": {
            "setup_s": len(run.setup_s),
            "primary_s": len(run.primary_s),
            "secondary_s": len(run.secondary_s),
            **run.samples,
        },
    }
    if ctx.traced:
        result["per_layer"] = layers.layer_metrics(run.processes, run.counters)
        result["breakdown"] = layers.op_breakdown(run.processes)
        result["spans"] = run.processes
    return result
