"""Which library calls the traced run wraps, and the per-layer metrics.

``install`` wraps public functions and methods of each layer from the
harness side; ``layer_metrics`` turns the recorded spans plus the stats
surfaces read at the end of a run into the ``per_layer`` metrics named in
BENCHMARK.json.

Busy time is reported as a share: a layer's summed self time divided by
the traced processes' wall time.  Layers that run on several threads at
once can exceed 1.  An idle layer reads 0 on its workload, which is the
prediction, not a missing value.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from benchmarks.harness.trace import (
    Span,
    Tracer,
    adopt_pool_orphans,
    covered_length,
    current_span,
    self_times,
)

#: span name -> the layer its self time is charged to.
LAYER_OF = {
    "models.diff_update": "models.diff_update",
    "models.fit": "models.fit",
    "core.statistics": "core.statistics",
    "core.sampler": "core.sampler",
    "core.size_search": "core.size_search",
    "core.estimator": "core.estimator",
    "streaming.pass": "streaming.self",
    "store.read_block": "store.read_block",
    "store.take": "store.take",
    "store.append": "store.append",
    "sampling.nested_sample": "sampling.nested_sample",
    "caching.lookup": "caching.self",
    "warm.get": "warm.get",
    "warm.put": "warm.put",
    "warm.key_digest": "warm.key_digest",
    "registry.lookup": "registry.lookup",
    "session.open": "session.open",
    "session.dispatch": "session.dispatch",
    "session.call": "session.dispatch",
}

def _rows(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["rows"] = args[1].n_rows


def _fit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    optimization = result.optimization
    if optimization is not None:
        span.attrs["iterations"] = optimization.n_iterations
        span.attrs["function_evals"] = optimization.n_function_evaluations


def _statistics(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["sidecars_reused"] = result.reused_shard_summaries
    span.attrs["sidecars_computed"] = result.computed_shard_summaries


def _fused(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["passes_saved"] = result.passes_saved


def _read_bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["bytes"] = result.X.nbytes + (0 if result.y is None else result.y.nbytes)


def _take_rows(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["rows"] = len(args[1])


def _cache_hit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["hit"] = bool(result[1])


def _found(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["hit"] = result is not None


def _session_key(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["session"] = id(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see the module docstring)."""
    from repro.core.caching import LRUCache
    from repro.core.parameter_sampler import ParameterSampler
    from repro.core.registry import SessionRegistry
    from repro.core.sample_size import SampleSizeEstimator
    from repro.core.session import EstimationSession
    from repro.core.statistics import compute_statistics
    from repro.data.sampling import UniformSampler
    from repro.data.store import warm_cache
    from repro.data.store.shard_store import ShardedDataset, ShardStore
    from repro.evaluation import streaming
    from repro.models.base import BlockSumDiffAccumulator, ModelClassSpec

    tracer.wrap_method(BlockSumDiffAccumulator, "update", "models.diff_update", _rows)
    tracer.wrap_method(ModelClassSpec, "fit", "models.fit", _fit)
    tracer.wrap_function(compute_statistics, "core.statistics", _statistics)
    for attr in ("base_samples", "sample_around", "two_stage_samples"):
        tracer.wrap_method(ParameterSampler, attr, "core.sampler")
    tracer.wrap_method(SampleSizeEstimator, "estimate", "core.size_search")
    tracer.wrap_method(SampleSizeEstimator, "estimate_many", "core.size_search", _fused)
    tracer.wrap_method(UniformSampler, "nested_sample", "sampling.nested_sample")
    tracer.wrap_method(ShardedDataset, "read_block", "store.read_block", _read_bytes)
    tracer.wrap_method(ShardedDataset, "take", "store.take", _take_rows)
    tracer.wrap_method(ShardStore, "append_shards", "store.append")
    tracer.wrap_method(warm_cache.WarmCacheTier, "get", "warm.get", _found)
    tracer.wrap_method(warm_cache.WarmCacheTier, "put", "warm.put")
    for function in (
        warm_cache.array_digest, warm_cache.diff_entry_key, warm_cache.size_entry_key
    ):
        tracer.wrap_function(function, "warm.key_digest")
    tracer.wrap_method(SessionRegistry, "get_or_create", "registry.lookup")
    tracer.wrap_method(SessionRegistry, "get", "registry.lookup", _found)
    tracer.wrap_method(EstimationSession, "__init__", "session.open")
    # The batcher dispatches through the fused entry points; direct calls
    # are charged to the same layer but not to the batcher's busy ratio.
    for attr in ("answer_many", "train_to_many"):
        tracer.wrap_method(EstimationSession, attr, "session.dispatch", _session_key)
    for attr in ("answer", "train_to", "refresh"):
        tracer.wrap_method(EstimationSession, attr, "session.call")

    # The LRU's self time excludes the compute callback, which gets its own
    # span: the estimator bookkeeping around the layers it calls.
    def traced_compute(args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        cache, key, compute = args
        return (cache, key, tracer.traced(compute, "core.estimator")), kwargs

    tracer.wrap_method(LRUCache, "get_or_compute", "caching.lookup", _cache_hit, traced_compute)

    # A streamed pass is a stream_accumulate call that reaches
    # as_block_source: the engine asks for the block source only after it
    # has counted a pass (parameter-space metrics return before that).
    original_source = streaming.as_block_source

    def marking_source(source: Any) -> Any:
        span = current_span()
        if span is not None and span.name == "streaming.pass":
            span.attrs["pass"] = True
        return original_source(source)

    def describe_pass(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        if not span.attrs.pop("pass", False):
            return
        task, config = args
        source = task.source
        span.attrs["passes"] = 1
        span.attrs["blocks"] = len(original_source(source).block_bounds(config.block_rows))
        columns = source.n_features + (1 if source.is_supervised else 0)
        span.attrs["bytes"] = source.n_rows * columns * 8

    tracer.patch(streaming, "as_block_source", marking_source)
    tracer.wrap_function(streaming.stream_accumulate, "streaming.pass", describe_pass)


def _has_ancestor(span: Span, by_id: dict[int, Span], name: str) -> bool:
    parent = span.parent
    while parent is not None:
        ancestor = by_id[parent]
        if ancestor.name == name:
            return True
        parent = ancestor.parent
    return False


def _owning_op(span: Span, by_id: dict[int, Span]) -> Span | None:
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name == "harness.op":
            return span
    return None


def _load(process: dict[str, Any]) -> tuple[list[Span], dict[int, Span], dict[int, float]]:
    """One process's spans with pool orphans adopted, by id, and self times."""
    spans = [Span.from_list(row) for row in process["spans"]]
    adopt_pool_orphans(spans)
    return spans, {span.sid: span for span in spans}, self_times(spans)


def _layer_children(spans: list[Span]) -> dict[int, list[tuple[float, float]]]:
    """Intervals of each span's direct children that are library layers."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.name in LAYER_OF:
            children[span.parent].append((span.start, span.end))
    return children


def op_breakdown(processes: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per op kind: op count, wall time, and each layer's share of it.

    Covers work on the op's own thread and on the pool workers it fans out
    to; serving ops whose work runs on the service's threads show up as
    ``unattributed``.
    """
    totals: dict[str, dict[str, Any]] = {}
    for process in processes:
        spans, by_id, own = _load(process)
        for span in spans:
            if span.name == "harness.op":
                entry = totals.setdefault(
                    span.attrs["kind"], {"ops": 0, "op_s": 0.0, "layers": defaultdict(float)}
                )
                entry["ops"] += 1
                entry["op_s"] += span.duration
            elif span.name in LAYER_OF:
                op = _owning_op(span, by_id)
                if op is not None:
                    totals[op.attrs["kind"]]["layers"][LAYER_OF[span.name]] += own[span.sid]
    for entry in totals.values():
        seconds = entry["op_s"] or 1.0
        ranked = sorted(entry["layers"].items(), key=lambda item: -item[1])
        layers = {name: value / seconds for name, value in ranked}
        entry["layers"] = layers
        entry["unattributed"] = max(0.0, 1.0 - sum(layers.values()))
    return totals


def layer_metrics(processes: list[dict[str, Any]], counters: dict[str, Any]) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``processes`` holds one ``{"spans": [...], "wall_s": float}`` per traced
    process; ``counters`` holds the stats surfaces read at the end of the
    run (batcher, warm tier, registry evictions).
    """
    busy: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    wall = sum(process["wall_s"] for process in processes) or 1.0
    busiest = 0.0
    op_seconds = op_covered = request_seconds = 0.0
    for process in processes:
        spans, by_id, own = _load(process)
        layer_children = _layer_children(spans)
        dispatch_by_session: dict[int, float] = defaultdict(float)
        opened_under = {
            span.parent for span in spans if span.name == "session.open" and span.parent is not None
        }
        for span in spans:
            layer = LAYER_OF.get(span.name)
            if layer is not None:
                busy[layer] += own[span.sid]
                sums[span.name + ".calls"] += 1
            for key, value in span.attrs.items():
                if isinstance(value, (bool, int, float)) and key != "session":
                    sums[f"{span.name}.{key}"] += value
            if span.name == "streaming.pass":
                sums["streaming.pass_s"] += span.duration
                if _has_ancestor(span, by_id, "core.size_search"):
                    sums["core.size_search.rounds"] += span.attrs.get("passes", 0)
            elif span.name == "registry.lookup" and "hit" not in span.attrs:
                sums["registry.lookup.hit"] += span.sid not in opened_under
            elif span.name == "session.dispatch" and not _has_ancestor(
                span, by_id, "session.dispatch"
            ):
                dispatch_by_session[span.attrs["session"]] += span.duration
            elif span.name == "harness.op":
                op_seconds += span.duration
                op_covered += covered_length(layer_children[span.sid], span.start, span.end)
            elif span.name == "harness.request":
                request_seconds += span.duration
        if dispatch_by_session:
            busiest = max(busiest, max(dispatch_by_session.values()) / (process["wall_s"] or 1.0))

    def share(layer: str) -> float:
        return busy[layer] / wall

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    batcher = counters.get("batcher", {})
    warm = counters.get("warm", {})
    lookups = sums["caching.lookup.calls"]
    warm_gets = sums["warm.get.calls"]
    return {
        "models.diff_update_share": share("models.diff_update"),
        "models.diff_update_calls": sums["models.diff_update.calls"],
        "models.diff_rows": sums["models.diff_update.rows"],
        "models.fit_share": share("models.fit"),
        "models.fit_calls": sums["models.fit.calls"],
        "optim.iterations": sums["models.fit.iterations"],
        "optim.function_evals": sums["models.fit.function_evals"],
        "core.statistics_share": share("core.statistics"),
        "core.statistics_calls": sums["core.statistics.calls"],
        "store.sidecars_reused": sums["core.statistics.sidecars_reused"],
        "store.sidecars_computed": sums["core.statistics.sidecars_computed"],
        "core.sampler_share": share("core.sampler"),
        "core.sampler_calls": sums["core.sampler.calls"],
        "core.size_search_share": share("core.size_search"),
        "core.size_search_calls": sums["core.size_search.calls"],
        "core.size_search_rounds": sums["core.size_search.rounds"],
        "core.size_search_passes_saved": sums["core.size_search.passes_saved"],
        "core.estimator_share": share("core.estimator"),
        "streaming.passes": sums["streaming.pass.passes"],
        "streaming.pass_share": sums["streaming.pass_s"] / wall,
        "streaming.blocks": sums["streaming.pass.blocks"],
        "streaming.bytes_computed": sums["streaming.pass.bytes"],
        "streaming.self_share": share("streaming.self"),
        "store.read_block_share": share("store.read_block"),
        "store.read_bytes": sums["store.read_block.bytes"],
        "store.take_share": share("store.take"),
        "store.take_rows": sums["store.take.rows"],
        "store.append_share": share("store.append"),
        "sampling.nested_sample_share": share("sampling.nested_sample"),
        "caching.lookups": lookups,
        "caching.hits": sums["caching.lookup.hit"],
        "caching.hit_ratio": ratio(sums["caching.lookup.hit"], lookups),
        "caching.self_share": share("caching.self"),
        "warm.get_share": share("warm.get"),
        "warm.hits": sums["warm.get.hit"],
        "warm.hit_ratio": ratio(sums["warm.get.hit"], warm_gets),
        "warm.put_share": share("warm.put"),
        "warm.dropped_writes": warm.get("dropped_writes", 0),
        "warm.quarantined": warm.get("quarantined", 0),
        "warm.key_digest_share": share("warm.key_digest"),
        "registry.lookup_share": share("registry.lookup"),
        "registry.lookups": sums["registry.lookup.calls"],
        "registry.hits": sums["registry.lookup.hit"],
        "registry.evictions": counters.get("registry_evictions", 0),
        "session.open_share": share("session.open"),
        "session.opens": sums["session.open.calls"],
        "session.dispatch_share": share("session.dispatch"),
        "batcher.queue_wait_share": ratio(
            batcher.get("queue_wait_seconds", 0.0), request_seconds
        ),
        "batcher.mean_batch": ratio(batcher.get("requests", 0), batcher.get("batches", 0)),
        "batcher.coalesced_ratio": ratio(
            batcher.get("coalesced_requests", 0), batcher.get("requests", 0)
        ),
        "batcher.load_shed": batcher.get("load_shed", 0),
        "batcher.busy_ratio_max": busiest,
        "harness.layer_coverage": ratio(op_covered, op_seconds),
    }
