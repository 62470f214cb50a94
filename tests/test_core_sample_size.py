"""Tests for the Sample Size Estimator (Section 4)."""

import numpy as np
import pytest

from repro.core.contract import ApproximationContract
from repro.core.guarantees import satisfies_probability_threshold
from repro.core.parameter_sampler import ParameterSampler
from repro.core.sample_size import (
    SampleSizeEstimate,
    SampleSizeEstimator,
    adaptive_probe_count,
)
from repro.core.statistics import compute_statistics
from repro.data.dataset import Dataset
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.exceptions import SampleSizeError
from repro.models.logistic_regression import LogisticRegressionSpec


@pytest.fixture(scope="module")
def initial_model_setup():
    rng = np.random.default_rng(40)
    X = rng.normal(size=(40_000, 6))
    theta_true = rng.normal(size=6)
    y = (rng.uniform(size=40_000) < 1 / (1 + np.exp(-X @ theta_true))).astype(int)
    splits = train_holdout_test_split(
        Dataset(X, y), SplitSpec(0.1, 0.1), rng=np.random.default_rng(1)
    )
    spec = LogisticRegressionSpec(regularization=1e-3)
    n0 = 1000
    sample = splits.train.take(np.arange(n0))
    initial_model = spec.fit(sample)
    statistics = compute_statistics(spec, initial_model.theta, sample)
    return spec, splits, initial_model, statistics, n0


def make_estimator(spec, splits, k=64):
    return SampleSizeEstimator(spec, splits.holdout, n_parameter_samples=k)


class TestBinarySearch:
    def test_estimate_within_bounds(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.05, delta=0.05)
        estimate = estimator.estimate(model.theta, n0, splits.train.n_rows, contract, stats)
        assert isinstance(estimate, SampleSizeEstimate)
        assert n0 <= estimate.sample_size <= splits.train.n_rows
        assert estimate.n_probability_evaluations == len(estimate.probed_sizes)

    def test_tighter_contract_needs_larger_sample(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        loose = estimator.estimate(
            model.theta, n0, splits.train.n_rows,
            ApproximationContract(epsilon=0.10, delta=0.05), stats,
        )
        tight = estimator.estimate(
            model.theta, n0, splits.train.n_rows,
            ApproximationContract(epsilon=0.01, delta=0.05), stats,
        )
        assert tight.sample_size >= loose.sample_size

    def test_number_of_probes_is_logarithmic(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        estimate = estimator.estimate(model.theta, n0, splits.train.n_rows, contract, stats)
        N = splits.train.n_rows
        # 2 endpoint checks + at most ceil(log2(N - n0)) bisection steps.
        assert estimate.n_probability_evaluations <= 2 + int(np.ceil(np.log2(N - n0))) + 1

    def test_very_loose_contract_returns_n0(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.9, delta=0.05)
        estimate = estimator.estimate(model.theta, n0, splits.train.n_rows, contract, stats)
        assert estimate.sample_size == n0
        assert estimate.feasible

    def test_shared_sampler_makes_search_deterministic(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.04, delta=0.05)
        sampler = ParameterSampler(stats, rng=np.random.default_rng(3))
        a = estimator.estimate(model.theta, n0, splits.train.n_rows, contract, stats, sampler)
        b = estimator.estimate(model.theta, n0, splits.train.n_rows, contract, stats, sampler)
        assert a.sample_size == b.sample_size

    def test_contract_satisfied_monotone_in_n(self, initial_model_setup):
        """Empirical check of Theorem 2: satisfaction probability rises with n."""
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits, k=96)
        contract = ApproximationContract(epsilon=0.05, delta=0.2)
        sampler = ParameterSampler(stats, rng=np.random.default_rng(4))
        N = splits.train.n_rows
        differences = estimator.candidate_differences_batch(
            model.theta, n0, [n0, N // 8, N // 2, N], N, sampler
        )
        outcomes = [
            satisfies_probability_threshold(vector, contract.epsilon, contract.delta)
            for vector in differences
        ]
        # Once satisfied, staying satisfied as n grows (with shared draws).
        first_true = outcomes.index(True) if True in outcomes else len(outcomes)
        assert all(outcomes[first_true:])

    def test_skip_lower_probe_saves_one_evaluation(self, initial_model_setup):
        # The coordinator only reaches the search after the accuracy
        # estimator rejected n0, so the lower-endpoint probe is redundant.
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        N = splits.train.n_rows
        default = estimator.estimate(
            model.theta, n0, N, contract, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(11)),
        )
        skipped = estimator.estimate(
            model.theta, n0, N, contract, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(11)),
            skip_lower_probe=True,
        )
        # n0 is never Monte-Carlo-evaluated: the first probe is the upper
        # endpoint, and with identical base draws the search lands on the
        # same answer with exactly one evaluation fewer.
        assert n0 not in skipped.probed_sizes
        assert skipped.probed_sizes[0] == N
        assert skipped.n_probability_evaluations == default.n_probability_evaluations - 1
        assert skipped.sample_size == default.sample_size
        assert skipped.feasible == default.feasible

    def test_skip_lower_probe_degenerate_n0_equals_N(self, initial_model_setup):
        # With n0 = N the search window is a single point; skipping the
        # lower probe must still terminate after the (free) upper probe.
        spec, splits, model, stats, _ = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        N = splits.train.n_rows
        estimate = estimator.estimate(
            model.theta, N, N, contract, stats, skip_lower_probe=True
        )
        assert estimate.feasible
        assert estimate.sample_size == N
        assert estimate.n_probability_evaluations == 1
        assert estimate.probed_sizes == (N,)

    def test_invalid_sizes(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits)
        contract = ApproximationContract(epsilon=0.05, delta=0.05)
        with pytest.raises(SampleSizeError):
            estimator.estimate(model.theta, 0, splits.train.n_rows, contract, stats)
        with pytest.raises(SampleSizeError):
            estimator.estimate(model.theta, splits.train.n_rows + 1, splits.train.n_rows, contract, stats)

    def test_rejects_too_few_parameter_samples(self, initial_model_setup):
        spec, splits, *_ = initial_model_setup
        with pytest.raises(SampleSizeError):
            SampleSizeEstimator(spec, splits.holdout, n_parameter_samples=1)


class TestAdaptiveProbeBatching:
    """probe_batch is a ceiling; the per-round count adapts to the bracket."""

    def test_unit_schedule(self):
        # Wide brackets use the full batch; narrow ones shrink it without
        # adding passes; a width-2 bracket has exactly one useful midpoint.
        assert adaptive_probe_count(1024, 3) == 3
        assert adaptive_probe_count(9, 3) == 2
        assert adaptive_probe_count(5, 3) == 2
        assert adaptive_probe_count(2, 3) == 1
        assert adaptive_probe_count(1, 3) == 0
        # probe_batch=1 is the classic bisection at every width.
        for span in (2, 3, 10, 1000):
            assert adaptive_probe_count(span, 1) == 1
        # The count never exceeds what the bracket can use.
        for span in range(2, 50):
            for batch in range(1, 6):
                count = adaptive_probe_count(span, batch)
                assert 1 <= count <= min(batch, span - 1)

    def test_same_pass_count_as_fixed_batch(self):
        # The adaptive count is chosen so (count+1)^rounds >= span with the
        # same rounds the fixed batch needs, so passes never increase.
        for span in range(2, 2_000, 37):
            for batch in (2, 3, 5):
                fixed_rounds = 1
                while (batch + 1) ** fixed_rounds < span:
                    fixed_rounds += 1
                count = adaptive_probe_count(span, batch)
                assert (count + 1) ** fixed_rounds >= span

    def test_rejects_probe_batch_below_one(self):
        for bad in (0, -1, -100):
            with pytest.raises(SampleSizeError, match="probe_batch"):
                adaptive_probe_count(10, bad)

    def test_resolved_bracket_probes_nothing(self):
        # span <= 1 means low and high are adjacent (or equal): there is no
        # interior point left, whatever the batch ceiling.
        for span in (1, 0, -3):
            for batch in (1, 2, 7):
                assert adaptive_probe_count(span, batch) == 0

    def test_width_two_bracket_has_one_midpoint(self):
        for batch in (1, 2, 16, 10_000):
            assert adaptive_probe_count(2, batch) == 1

    def test_probe_batch_larger_than_span_caps_at_interior(self):
        # A ceiling wider than the bracket stacks exactly the interior
        # points (resolving in one pass), never phantom candidates.
        for span in range(2, 12):
            assert adaptive_probe_count(span, 10_000) == span - 1

    def test_adaptive_batched_search_matches_bisection_with_fewer_probes(
        self, initial_model_setup
    ):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits, k=32)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        N = splits.train.n_rows
        bisect = estimator.estimate(
            model.theta, n0, N, contract, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(5)),
            probe_batch=1,
        )
        # Spy on the stacked passes to observe the per-round schedule.
        round_sizes = []
        original = estimator.candidate_differences_batch

        def spy(theta0, n0_, candidates, N_, sampler_):
            round_sizes.append(len(candidates))
            return original(theta0, n0_, candidates, N_, sampler_)

        estimator.candidate_differences_batch = spy
        try:
            batched = estimator.estimate(
                model.theta, n0, N, contract, stats,
                sampler=ParameterSampler(stats, rng=np.random.default_rng(5)),
                probe_batch=3,
            )
        finally:
            del estimator.candidate_differences_batch
        # Same answer under the shared-draw monotone predicate...
        assert batched.sample_size == bisect.sample_size
        assert batched.feasible == bisect.feasible
        assert all(n0 <= probe <= N for probe in batched.probed_sizes)
        # ...and the observed schedule is genuinely adaptive: no round ever
        # stacked above the ceiling, the first (widest) bracket used the
        # full batch, and at least one narrowed round stacked fewer.  The
        # first two spy entries are the single-candidate endpoint probes.
        bracket_rounds = round_sizes[2:]
        assert bracket_rounds, "search never entered the bracket loop"
        assert all(1 <= size <= 3 for size in bracket_rounds)
        assert bracket_rounds[0] == 3
        assert min(bracket_rounds) < 3


class TestFusedLockstepSearch:
    """estimate_many: lockstep fused search ≡ serial searches, fewer passes."""

    CONTRACTS = [
        ApproximationContract(epsilon=0.02, delta=0.05),
        ApproximationContract(epsilon=0.03, delta=0.05),
        ApproximationContract(epsilon=0.05, delta=0.05),
        ApproximationContract(epsilon=0.03, delta=0.10),
    ]

    def test_matches_serial_estimates_exactly(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits, k=32)
        N = splits.train.n_rows
        # Serial baseline: one shared sampler, as a session would hold
        # (cached base draws make the vectors order-independent).
        serial_sampler = ParameterSampler(stats, rng=np.random.default_rng(17))
        rounds_per_search = []
        serial = []
        for contract in self.CONTRACTS:
            original = estimator.candidate_differences_batch
            rounds = 0

            def spy(*args, _original=original, **kwargs):
                nonlocal rounds
                rounds += 1
                return _original(*args, **kwargs)

            estimator.candidate_differences_batch = spy
            try:
                serial.append(
                    estimator.estimate(
                        model.theta, n0, N, contract, stats,
                        sampler=serial_sampler,
                        skip_lower_probe=True, probe_batch=3,
                    )
                )
            finally:
                del estimator.candidate_differences_batch
            rounds_per_search.append(rounds)

        fused = estimator.estimate_many(
            model.theta, n0, N, self.CONTRACTS, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(17)),
            skip_lower_probe=True, probe_batch=3,
        )
        assert len(fused.estimates) == len(self.CONTRACTS)
        for lone, member in zip(serial, fused.estimates):
            assert member.sample_size == lone.sample_size
            assert member.feasible == lone.feasible
            assert member.probed_sizes == lone.probed_sizes
            assert member.n_probability_evaluations == lone.n_probability_evaluations
        # Exact accounting: serial cost is each member's own round count;
        # the fused run shares rounds, so it can only be cheaper.
        assert fused.serial_passes == sum(rounds_per_search)
        assert fused.fused_passes < fused.serial_passes
        assert fused.passes_saved == fused.serial_passes - fused.fused_passes

    def test_duplicate_contracts_cost_nothing_extra(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits, k=32)
        N = splits.train.n_rows
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        lone = estimator.estimate_many(
            model.theta, n0, N, [contract], stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(21)),
            skip_lower_probe=True, probe_batch=3,
        )
        tripled = estimator.estimate_many(
            model.theta, n0, N, [contract] * 3, stats,
            sampler=ParameterSampler(stats, rng=np.random.default_rng(21)),
            skip_lower_probe=True, probe_batch=3,
        )
        # Identical contracts schedule identical candidates: the union pass
        # absorbs them, so the fused cost does not grow with multiplicity.
        assert tripled.fused_passes == lone.fused_passes
        assert tripled.serial_passes == 3 * lone.serial_passes
        for member in tripled.estimates:
            assert member.sample_size == lone.estimates[0].sample_size
            assert member.probed_sizes == lone.estimates[0].probed_sizes

    def test_empty_and_invalid_inputs(self, initial_model_setup):
        spec, splits, model, stats, n0 = initial_model_setup
        estimator = make_estimator(spec, splits, k=32)
        N = splits.train.n_rows
        empty = estimator.estimate_many(model.theta, n0, N, [], stats)
        assert empty.estimates == ()
        assert (empty.fused_passes, empty.serial_passes) == (0, 0)
        contract = ApproximationContract(epsilon=0.03, delta=0.05)
        with pytest.raises(SampleSizeError):
            estimator.estimate_many(model.theta, 0, N, [contract], stats)
        with pytest.raises(SampleSizeError):
            estimator.estimate_many(
                model.theta, n0, N, [contract], stats, probe_batch=0
            )


class TestProbeBatchBoundaryValidation:
    """probe_batch is validated with a clear error at every entry layer."""

    def test_coordinator_rejects_bad_probe_batch(self):
        from repro.core.coordinator import BlinkML

        spec = LogisticRegressionSpec(regularization=1e-3)
        with pytest.raises(SampleSizeError, match="probe_batch must be at least 1"):
            BlinkML(spec, probe_batch=0)
        with pytest.raises(SampleSizeError, match="probe_batch"):
            BlinkML(spec, probe_batch=-2)

    def test_session_rejects_bad_probe_batch(self):
        from repro.core.session import EstimationSession

        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        y = (rng.uniform(size=30) < 0.5).astype(int)
        data = Dataset(X, y)
        spec = LogisticRegressionSpec(regularization=1e-3)
        # Raises before any model is trained.
        with pytest.raises(SampleSizeError, match="probe_batch must be at least 1"):
            EstimationSession(
                spec, data, data, initial_sample_size=10, probe_batch=0
            )
