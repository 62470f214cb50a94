"""Tests for the contract-serving EstimationSession and the BlinkML facade."""

import inspect
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.config import DELTA, validate_delta
from repro.core.contract import ApproximationContract
from repro.core.coordinator import BlinkML
from repro.core.guarantees import satisfies_probability_threshold
from repro.core.parameter_sampler import ParameterSampler
from repro.core.registry import SessionRegistry
from repro.core.sample_size import SampleSizeEstimator
from repro.core.session import EstimationSession, SessionAnswer
from repro.core.statistics import compute_statistics
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.synthetic import gas_like, higgs_like
from repro.exceptions import ContractError, SampleSizeError
from repro.models.base import PrecomputedDiffAccumulator
from repro.models.linear_regression import LinearRegressionSpec
from repro.models.logistic_regression import LogisticRegressionSpec


class SpyLogisticSpec(LogisticRegressionSpec):
    """Counts every model-difference evaluation routed through the spec."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.diff_evaluations = 0

    def diff_accumulator(self, theta_ref, Thetas, dataset):
        self.diff_evaluations += 1
        return super().diff_accumulator(theta_ref, Thetas, dataset)

    def pairwise_diff_accumulator(self, Thetas_a, Thetas_b, dataset):
        self.diff_evaluations += 1
        return super().pairwise_diff_accumulator(Thetas_a, Thetas_b, dataset)


class InfeasibleSpec(LinearRegressionSpec):
    """A spec whose model difference never certifies any contract."""

    def diff_accumulator(self, theta_ref, Thetas, dataset):
        return PrecomputedDiffAccumulator(np.ones(np.asarray(Thetas).shape[0]))

    def pairwise_diff_accumulator(self, Thetas_a, Thetas_b, dataset):
        return PrecomputedDiffAccumulator(np.ones(np.asarray(Thetas_a).shape[0]))


@pytest.fixture(scope="module")
def binary_splits():
    data = higgs_like(n_rows=12_000, n_features=10, seed=60)
    return train_holdout_test_split(data, SplitSpec(0.1, 0.1), rng=np.random.default_rng(6))


def make_session(spec, splits, **kwargs):
    kwargs.setdefault("initial_sample_size", 500)
    kwargs.setdefault("n_parameter_samples", 32)
    kwargs.setdefault("rng", 0)
    # These tests assert exact in-memory hit/miss economics; a live warm
    # tier (the REPRO_WARM_CACHE_DIR CI run) would legitimately serve
    # cross-session repeats from disk and change the counts.  The warm
    # tier's own semantics live in tests/test_warm_cache.py.
    kwargs.setdefault("warm_cache", False)
    return EstimationSession(spec, splits.train, splits.holdout, **kwargs)


class TestSessionCache:
    def test_second_contract_is_answered_from_cache(self, binary_splits):
        spec = SpyLogisticSpec(regularization=1e-3)
        session = make_session(spec, binary_splits)
        first = session.answer(ApproximationContract(epsilon=0.3, delta=0.05))
        evaluations_after_first = spec.diff_evaluations
        assert evaluations_after_first > 0
        assert not first.from_cache

        # Different ε AND different δ: still served by quantile lookup on
        # the cached sorted vector — zero new model-difference evaluations.
        second = session.answer(ApproximationContract(epsilon=0.05, delta=0.2))
        assert isinstance(second, SessionAnswer)
        assert second.from_cache
        assert spec.diff_evaluations == evaluations_after_first

    def test_cached_vector_is_shared_and_sorted(self, binary_splits):
        spec = SpyLogisticSpec(regularization=1e-3)
        session = make_session(spec, binary_splits)
        theta0 = session.initial_model.theta
        first = session.sorted_differences(theta0, session.initial_sample_size)
        second = session.sorted_differences(theta0, session.initial_sample_size)
        assert first is second  # the literal cached array, not a copy
        assert np.all(np.diff(first) >= 0)
        stats = session.cache_stats()["diff"]
        assert (stats.hits, stats.misses) == (1, 1)

    def test_cache_misses_on_different_theta_and_n(self, binary_splits):
        spec = SpyLogisticSpec(regularization=1e-3)
        session = make_session(spec, binary_splits)
        theta0 = session.initial_model.theta
        session.sorted_differences(theta0, session.initial_sample_size)
        evaluations = spec.diff_evaluations

        # Different n: miss.
        session.sorted_differences(theta0, 2 * session.initial_sample_size)
        assert session.cache_stats()["diff"].misses == 2
        assert spec.diff_evaluations > evaluations

        # Different θ: miss.
        evaluations = spec.diff_evaluations
        session.sorted_differences(theta0 + 0.01, session.initial_sample_size)
        assert session.cache_stats()["diff"].misses == 3
        assert spec.diff_evaluations > evaluations

    def test_repeated_train_to_same_contract_is_free(self, binary_splits):
        spec = SpyLogisticSpec(regularization=1e-3)
        session = make_session(spec, binary_splits)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        first = session.train_to(contract)
        assert not first.used_initial_model  # the search actually ran
        evaluations = spec.diff_evaluations

        second = session.train_to(contract)
        # Accuracy estimates, size search and the final model all come from
        # session caches: no new diff evaluations, no retraining.
        assert spec.diff_evaluations == evaluations
        assert second.metadata["model_cache_hit"]
        assert second.sample_size == first.sample_size
        assert second.estimated_epsilon == first.estimated_epsilon
        np.testing.assert_array_equal(second.model.theta, first.model.theta)

    def test_loose_contract_returns_initial_model(self, binary_splits):
        session = make_session(LogisticRegressionSpec(regularization=1e-3), binary_splits)
        result = session.train_to(ApproximationContract(epsilon=0.5, delta=0.05))
        assert result.used_initial_model
        assert result.model is session.initial_model


class TestBoundedCaches:
    def test_diff_cache_capacity_never_exceeded(self, binary_splits):
        capacity = 4
        session = make_session(
            LogisticRegressionSpec(regularization=1e-3),
            binary_splits,
            diff_cache_entries=capacity,
        )
        theta0 = session.initial_model.theta
        sizes = np.linspace(500, session.full_size - 1, 12).astype(int)
        for n in sizes:
            session.sorted_differences(theta0, int(n))
            assert session.cache_stats()["diff"].entries <= capacity
        stats = session.cache_stats()["diff"]
        assert stats.entries == capacity
        assert stats.evictions == len(set(sizes.tolist())) - capacity
        assert stats.misses == len(set(sizes.tolist()))

    def test_evicted_vector_recomputes_identically(self, binary_splits):
        session = make_session(
            LogisticRegressionSpec(regularization=1e-3),
            binary_splits,
            diff_cache_entries=2,
        )
        theta0 = session.initial_model.theta
        original = session.sorted_differences(theta0, 500).copy()
        for n in (600, 700, 800):  # push the n=500 vector out of the LRU
            session.sorted_differences(theta0, n)
        recomputed = session.sorted_differences(theta0, 500)
        # The recompute rescales the same cached base draws, so the result
        # is bitwise identical to the evicted vector.
        np.testing.assert_array_equal(recomputed, original)
        assert session.cache_stats()["diff"].evictions > 0

    def test_diff_cache_byte_bound(self, binary_splits):
        # k=32 float64 differences -> 256 bytes per vector; a 700-byte
        # budget holds at most two vectors.
        session = make_session(
            LogisticRegressionSpec(regularization=1e-3),
            binary_splits,
            diff_cache_entries=None,
            diff_cache_bytes=700,
        )
        theta0 = session.initial_model.theta
        for n in (500, 600, 700, 800):
            session.sorted_differences(theta0, n)
        stats = session.cache_stats()["diff"]
        assert stats.bytes <= 700
        assert stats.entries == 2
        assert stats.evictions == 2

    def test_cache_stats_snapshot(self, binary_splits):
        session = make_session(LogisticRegressionSpec(regularization=1e-3), binary_splits)
        stats = session.cache_stats()
        assert set(stats) == {"diff", "model", "size"}
        assert stats["diff"].requests == 0
        session.answer(ApproximationContract(epsilon=0.3, delta=0.05))
        session.answer(ApproximationContract(epsilon=0.3, delta=0.10))
        stats = session.cache_stats()
        assert stats["diff"].hits == 1
        assert stats["diff"].misses == 1
        assert stats["diff"].hit_rate == pytest.approx(0.5)

    def test_model_cache_eviction_cannot_lose_initial_model(self, binary_splits):
        session = make_session(
            LogisticRegressionSpec(regularization=1e-3),
            binary_splits,
            model_cache_entries=1,
        )
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        result = session.train_to(contract)  # trains m_n, evicting the n0 entry
        assert not result.used_initial_model
        # m_0 is pinned outside the cache: still reachable and identical.
        assert session.initial_model.n_train == session.initial_sample_size
        second = session.train_to(ApproximationContract(epsilon=0.5, delta=0.05))
        assert second.model is session.initial_model


class TestFullDataShortCircuit:
    def test_full_data_estimate_skips_diff_cache(self, binary_splits):
        session = make_session(LogisticRegressionSpec(regularization=1e-3), binary_splits)
        theta0 = session.initial_model.theta
        N = session.full_size
        for n in (N, N + 1, N + 500):  # distinct n >= N used to each cache a zeros vector
            estimate = session.accuracy_estimate(theta0, n)
            assert estimate.epsilon == 0.0
            assert not estimate.sampled_differences.any()
        stats = session.cache_stats()["diff"]
        assert stats.entries == 0
        assert stats.requests == 0  # never touched the cache

    def test_full_data_vector_is_shared_and_read_only(self, binary_splits):
        session = make_session(LogisticRegressionSpec(regularization=1e-3), binary_splits)
        theta0 = session.initial_model.theta
        first = session.sorted_differences(theta0, session.full_size)
        second = session.sorted_differences(theta0, session.full_size + 7)
        assert first is second  # one shared zeros vector, not one per n
        assert first.flags.writeable is False


class TestConcurrentServing:
    N_THREADS = 8

    def test_concurrent_answers_bitwise_match_serial(self, binary_splits):
        """Acceptance: 8 threads x shuffled mix of 4 contracts == serial run."""
        spec = LogisticRegressionSpec(regularization=1e-3)
        contracts = [
            ApproximationContract(epsilon=0.05, delta=0.05),
            ApproximationContract(epsilon=0.10, delta=0.01),
            ApproximationContract(epsilon=0.20, delta=0.10),
            ApproximationContract(epsilon=0.30, delta=0.20),
        ]
        serial_session = make_session(spec, binary_splits)
        serial = {
            contract: serial_session.answer(contract) for contract in contracts
        }

        threaded_session = make_session(spec, binary_splits)
        workload = contracts * self.N_THREADS
        random.Random(0).shuffle(workload)
        with ThreadPoolExecutor(self.N_THREADS) as pool:
            answers = list(pool.map(threaded_session.answer, workload))

        for contract, answer in zip(workload, answers):
            baseline = serial[contract]
            assert answer.satisfied == baseline.satisfied
            assert answer.estimate.epsilon == baseline.estimate.epsilon  # bitwise
            np.testing.assert_array_equal(
                answer.estimate.sampled_differences,
                baseline.estimate.sampled_differences,
            )
        # Single-flight: the k streamed GEMMs ran exactly once; every other
        # request (including waiters on the in-flight compute) was a hit.
        stats = threaded_session.cache_stats()["diff"]
        assert stats.misses == 1
        assert stats.hits == len(workload) - 1
        assert sum(1 for answer in answers if not answer.from_cache) == 1

    def test_concurrent_accuracy_estimates_match_serial(self, binary_splits):
        spec = LogisticRegressionSpec(regularization=1e-3)
        sizes = [500, 900, 1700, 2600, 4000, 6000]

        serial_session = make_session(spec, binary_splits)
        theta0 = serial_session.initial_model.theta
        serial = {
            n: serial_session.accuracy_estimate(theta0, n).epsilon for n in sizes
        }

        threaded_session = make_session(spec, binary_splits)
        theta0 = threaded_session.initial_model.theta
        workload = sizes * 4
        random.Random(1).shuffle(workload)
        with ThreadPoolExecutor(self.N_THREADS) as pool:
            epsilons = list(
                pool.map(lambda n: threaded_session.accuracy_estimate(theta0, n).epsilon, workload)
            )
        for n, epsilon in zip(workload, epsilons):
            assert epsilon == serial[n]  # bitwise: same cached base draws
        stats = threaded_session.cache_stats()["diff"]
        assert stats.misses == len(sizes)
        assert stats.hits == len(workload) - len(sizes)

    def test_concurrent_train_to_matches_serial(self, binary_splits):
        spec = LogisticRegressionSpec(regularization=1e-3)
        contracts = [
            ApproximationContract(epsilon=0.03, delta=0.05),
            ApproximationContract(epsilon=0.04, delta=0.05),
        ]
        serial_session = make_session(spec, binary_splits)
        serial = {contract: serial_session.train_to(contract) for contract in contracts}

        threaded_session = make_session(spec, binary_splits)
        workload = contracts * 4
        random.Random(2).shuffle(workload)
        with ThreadPoolExecutor(self.N_THREADS) as pool:
            results = list(pool.map(threaded_session.train_to, workload))

        for contract, result in zip(workload, results):
            baseline = serial[contract]
            assert result.sample_size == baseline.sample_size
            assert result.estimated_epsilon == baseline.estimated_epsilon
            np.testing.assert_array_equal(result.model.theta, baseline.model.theta)
        # Each distinct contract ran its size search exactly once.
        assert threaded_session.cache_stats()["size"].misses == len(contracts)

    def test_concurrent_identical_contracts_single_flight(self, binary_splits):
        spec = SpyLogisticSpec(regularization=1e-3)
        session = make_session(spec, binary_splits)
        contract = ApproximationContract(epsilon=0.3, delta=0.05)
        with ThreadPoolExecutor(self.N_THREADS) as pool:
            answers = list(
                pool.map(session.answer, [contract] * (self.N_THREADS * 4))
            )
        assert sum(1 for answer in answers if not answer.from_cache) == 1
        epsilons = {answer.estimate.epsilon for answer in answers}
        assert len(epsilons) == 1


class TestInfeasiblePath:
    def test_infeasible_search_trains_on_full_data(self):
        data = gas_like(n_rows=2_000, n_features=5, seed=61)
        splits = train_holdout_test_split(data, SplitSpec(0.2, 0.2), rng=np.random.default_rng(7))
        session = EstimationSession(
            InfeasibleSpec(),
            splits.train,
            splits.holdout,
            initial_sample_size=200,
            n_parameter_samples=16,
            rng=0,
        )
        result = session.train_to(ApproximationContract(epsilon=0.1, delta=0.05))
        assert result.metadata["size_search_feasible"] is False
        assert result.metadata["trained_on_full_data"] is True
        assert result.sample_size == splits.train.n_rows
        assert result.model.n_train == splits.train.n_rows
        assert not result.used_initial_model

    def test_infeasible_search_through_facade(self):
        data = gas_like(n_rows=2_000, n_features=5, seed=62)
        splits = train_holdout_test_split(data, SplitSpec(0.2, 0.2), rng=np.random.default_rng(8))
        trainer = BlinkML(InfeasibleSpec(), initial_sample_size=200, n_parameter_samples=16, seed=0)
        result = trainer.train(splits.train, splits.holdout, ApproximationContract(epsilon=0.1))
        assert result.metadata["size_search_feasible"] is False
        assert result.metadata["trained_on_full_data"] is True
        assert result.sample_size == splits.train.n_rows


class TestFacade:
    def test_train_matches_explicit_session(self, binary_splits):
        spec = LogisticRegressionSpec(regularization=1e-3)
        contract = ApproximationContract(epsilon=0.04, delta=0.05)
        via_facade = BlinkML(
            spec, initial_sample_size=500, n_parameter_samples=32, seed=42
        ).train(binary_splits.train, binary_splits.holdout, contract)
        via_session = BlinkML(
            spec, initial_sample_size=500, n_parameter_samples=32, seed=42
        ).session(binary_splits.train, binary_splits.holdout).train_to(contract)
        assert via_facade.sample_size == via_session.sample_size
        assert via_facade.estimated_epsilon == via_session.estimated_epsilon
        np.testing.assert_array_equal(via_facade.model.theta, via_session.model.theta)

    def test_same_seed_same_outputs(self, binary_splits):
        spec = LogisticRegressionSpec(regularization=1e-3)
        contract = ApproximationContract(epsilon=0.04, delta=0.05)
        results = [
            BlinkML(spec, initial_sample_size=500, n_parameter_samples=32, seed=7).train(
                binary_splits.train, binary_splits.holdout, contract
            )
            for _ in range(2)
        ]
        assert results[0].sample_size == results[1].sample_size
        assert results[0].estimated_epsilon == results[1].estimated_epsilon
        np.testing.assert_array_equal(results[0].model.theta, results[1].model.theta)


class TestReadOnlyDifferences:
    def test_sampled_differences_are_read_only(self, binary_splits):
        session = make_session(LogisticRegressionSpec(regularization=1e-3), binary_splits)
        answer = session.answer(ApproximationContract(epsilon=0.1, delta=0.05))
        differences = answer.estimate.sampled_differences
        assert differences.flags.writeable is False
        with pytest.raises(ValueError):
            differences[0] = 123.0

    def test_construction_does_not_freeze_callers_array(self):
        from repro.core.accuracy import AccuracyEstimate

        mine = np.array([0.3, 0.1, 0.2])
        estimate = AccuracyEstimate(epsilon=0.3, delta=0.05, sampled_differences=mine)
        assert estimate.sampled_differences.flags.writeable is False
        mine[0] = 0.9  # the caller's own array stays writable
        assert estimate.sampled_differences[0] == 0.9  # documented aliasing


class TestDefaultDelta:
    def test_contract_default_is_config_constant(self):
        assert ApproximationContract(epsilon=0.1).delta == DELTA
        assert (
            inspect.signature(BlinkML.train_with_accuracy).parameters["delta"].default
            == DELTA
        )
        assert (
            inspect.signature(ApproximationContract.from_accuracy)
            .parameters["delta"]
            .default
            == DELTA
        )

    def test_validate_delta(self):
        assert validate_delta(0.2) == 0.2
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ContractError):
                validate_delta(bad)

    def test_session_rejects_invalid_delta(self, binary_splits):
        session = make_session(LogisticRegressionSpec(regularization=1e-3), binary_splits)
        with pytest.raises(ContractError):
            session.accuracy_estimate(session.initial_model.theta, 500, delta=1.5)

    def test_default_delta_is_the_papers(self):
        # δ is a fixed default, not an env knob: the paper's 0.05, read from
        # no environment variable (tests/test_config_environment.py).
        assert DELTA == 0.05
        assert ApproximationContract(epsilon=0.1).delta == 0.05


class TestBatchedProbes:
    @pytest.fixture(scope="class")
    def search_setup(self, binary_splits):
        spec = LogisticRegressionSpec(regularization=1e-3)
        n0 = 500
        sample = binary_splits.train.take(np.arange(n0))
        model = spec.fit(sample)
        statistics = compute_statistics(spec, model.theta, sample)
        return spec, binary_splits, model, statistics, n0

    def test_batch_outcomes_match_single_probes(self, search_setup):
        spec, splits, model, stats, n0 = search_setup
        estimator = SampleSizeEstimator(spec, splits.holdout, n_parameter_samples=32)
        sampler = ParameterSampler(stats, rng=np.random.default_rng(5))
        N = splits.train.n_rows
        candidates = [n0, N // 4, N // 2, N]
        batched = estimator.candidate_differences_batch(
            model.theta, n0, candidates, N, sampler
        )
        singles = [
            estimator.candidate_differences_batch(
                model.theta, n0, [candidate], N, sampler
            )[0]
            for candidate in candidates
        ]
        # The cached base draws make both paths deterministic and identical.
        for batch_vector, single_vector in zip(batched, singles, strict=True):
            assert batch_vector.tobytes() == single_vector.tobytes()

    def test_batched_search_needs_fewer_rounds(self, search_setup):
        spec, splits, model, stats, n0 = search_setup
        estimator = SampleSizeEstimator(spec, splits.holdout, n_parameter_samples=32)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        N = splits.train.n_rows
        bisect = estimator.estimate(
            model.theta, n0, N, contract, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(5)),
            probe_batch=1,
        )
        batched = estimator.estimate(
            model.theta, n0, N, contract, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(5)),
            probe_batch=3,
        )
        assert batched.feasible and bisect.feasible
        assert n0 <= batched.sample_size <= N
        # 3 candidates per pass narrow the bracket 4x per round instead of
        # 2x, so the number of stacked passes drops from ~log2 to ~log4.
        bisect_rounds = len(bisect.probed_sizes) - 2  # minus the endpoints
        batched_rounds = (len(batched.probed_sizes) - 2 + 2) // 3
        assert batched_rounds < bisect_rounds
        # Both land on a size certified by the same shared-draw check.
        sampler = ParameterSampler(stats, rng=np.random.default_rng(5))
        (differences,) = estimator.candidate_differences_batch(
            model.theta, n0, [batched.sample_size], N, sampler
        )
        assert satisfies_probability_threshold(
            differences, contract.epsilon, contract.delta
        )

    def test_batched_schedule_lands_on_bisection_answer(self, search_setup):
        # Under the (empirical, shared-draw) monotonicity of the satisfied(n)
        # predicate, the batched bracketing converges to the same minimum n
        # as the paper's plain bisection — this pins the default facade
        # schedule (probe_batch=3) against the pre-refactor behaviour
        # (probe_batch=1) across several contracts.
        spec, splits, model, stats, n0 = search_setup
        estimator = SampleSizeEstimator(spec, splits.holdout, n_parameter_samples=32)
        N = splits.train.n_rows
        for epsilon in (0.02, 0.03, 0.05):
            contract = ApproximationContract(epsilon=epsilon, delta=0.05)
            results = [
                estimator.estimate(
                    model.theta, n0, N, contract, stats,
                    sampler=ParameterSampler(stats, rng=np.random.default_rng(5)),
                    probe_batch=probe_batch,
                )
                for probe_batch in (1, 3)
            ]
            assert results[0].sample_size == results[1].sample_size
            assert results[0].feasible == results[1].feasible

    def test_probe_batch_validated(self, search_setup):
        spec, splits, model, stats, n0 = search_setup
        estimator = SampleSizeEstimator(spec, splits.holdout, n_parameter_samples=16)
        with pytest.raises(SampleSizeError):
            estimator.estimate(
                model.theta, n0, splits.train.n_rows,
                ApproximationContract(epsilon=0.05), stats, probe_batch=0,
            )


class TestRegistryIntegrationSurface:
    """Byte accounting, externally resized caps and idle timestamps.

    These are the hooks the cross-session registry (repro.core.registry)
    drives; the fleet-level behaviour is tested in test_core_registry.py.
    """

    def test_cache_bytes_sums_the_three_caches(self, binary_splits):
        registry = SessionRegistry(max_total_bytes=None, warm_cache=False)
        session = registry.get_or_create(
            "pair",
            LogisticRegressionSpec(regularization=1e-3),
            binary_splits.train,
            binary_splits.holdout,
            initial_sample_size=500,
            n_parameter_samples=32,
            rng=0,
        )
        assert registry.stats().bytes == 0
        session.answer(ApproximationContract.from_accuracy(0.85))
        expected = sum(stats.bytes for stats in session.cache_stats().values())
        stats = registry.stats()
        assert stats.per_session[0].bytes == stats.bytes == expected > 0

    def test_resize_cache_budget_caps_and_evicts(self, binary_splits):
        session = make_session(LogisticRegressionSpec(regularization=1e-3), binary_splits)
        theta = session.initial_model.theta
        for n in (600, 700, 800, 900, 1000, 1100):
            session.accuracy_estimate(theta, n)
        before = sum(stats.bytes for stats in session.cache_stats().values())
        # One 32-sample vector is 256 bytes; cap the whole session well
        # below the six vectors currently held.
        session.resize_cache_budget(1024)
        stats = session.cache_stats()
        assert sum(entry.max_bytes for entry in stats.values()) <= 1024
        assert stats["diff"].max_bytes == int(
            1024 * EstimationSession.CACHE_BUDGET_SPLIT["diff"]
        )
        held_bytes = sum(entry.bytes for entry in stats.values())
        assert held_bytes < before
        assert held_bytes <= 1024
        assert stats["diff"].evictions > 0
        # Growing the budget again raises the caps without dropping entries.
        held = session.cache_stats()["diff"].entries
        session.resize_cache_budget(1 << 20)
        assert session.cache_stats()["diff"].entries == held
        with pytest.raises(Exception):
            session.resize_cache_budget(0)

    def test_evicted_vectors_recompute_bitwise_identically(self, binary_splits):
        session = make_session(LogisticRegressionSpec(regularization=1e-3), binary_splits)
        theta = session.initial_model.theta
        baseline = {n: session.sorted_differences(theta, n).copy() for n in (600, 800, 1000)}
        session.resize_cache_budget(512)  # evicts most vectors
        for n, expected in baseline.items():
            np.testing.assert_array_equal(session.sorted_differences(theta, n), expected)

    def test_idle_clock_refreshes_on_serving_calls(self, binary_splits):
        session = make_session(LogisticRegressionSpec(regularization=1e-3), binary_splits)
        opened = session.last_used_at
        assert session.idle_seconds >= 0.0
        session.answer(ApproximationContract.from_accuracy(0.85))
        after_answer = session.last_used_at
        assert after_answer >= opened
        session.sorted_differences(session.initial_model.theta, 700)
        assert session.last_used_at >= after_answer
