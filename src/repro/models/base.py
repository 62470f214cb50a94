"""Model class specification (MCS) base class.

Section 2.2 of the paper defines the MCS as the minimal interface BlinkML
needs from a model family:

* ``grads`` — the list of per-example gradients ``q(θ; x_i, y_i) + r(θ)``
  (Equation (3)); BlinkML needs the individual values, not just their
  average, because ObservedFisher estimates the gradient covariance J from
  them;
* ``diff`` — the prediction difference between two parameter vectors on the
  holdout set, which is the quantity ``v(m_n)`` that the approximation
  contract bounds.

On top of those two, this implementation adds the pieces any real library
needs: the training objective (so the Model Trainer can run), predictions,
and a closed-form Hessian where one exists (so the ClosedForm statistics
method of Section 3.4 can be exercised).

Parameters are always exchanged as flat 1-D vectors; models that are
naturally matrix-shaped (max-entropy, PPCA) flatten and unflatten internally,
exactly as the paper describes in Appendix A.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import ModelSpecError
from repro.optim.base import Objective
from repro.optim.driver import minimize
from repro.optim.result import OptimizationResult


class DiffAccumulator(ABC):
    """Streaming accumulator for a batched model-difference metric.

    The streaming sharded holdout engine
    (:mod:`repro.evaluation.streaming`) shards the holdout into row blocks
    and feeds them to an accumulator one at a time, so the full
    ``(k, n_holdout)`` prediction block never exists in memory — only
    O(k · block) lives at once.  An accumulator is
    created by :meth:`ModelClassSpec.diff_accumulator` /
    :meth:`ModelClassSpec.pairwise_diff_accumulator` with the parameter
    batch(es) bound in; the driver then calls :meth:`update` once per block
    (in holdout order) and :meth:`finalize` exactly once at the end.

    For parallel sharding the engine folds each block into a fresh
    accumulator wherever it runs, then left-folds those partials with
    :meth:`merge` in block order onto a zero accumulator before finalizing.
    """

    #: set to False by accumulators whose differences need no holdout block
    #: (PPCA's parameter-space cosine, Lin's factor diffs); the driver then
    #: skips the block loop entirely.
    needs_holdout_blocks: bool = True

    @abstractmethod
    def update(self, block: Dataset) -> None:
        """Fold one holdout row block into the running statistics."""

    @abstractmethod
    def merge(self, other: "DiffAccumulator") -> None:
        """Fold another accumulator's partial statistics into this one.

        ``other`` must come from the same factory and parameters and have
        consumed a disjoint, later range of holdout blocks.
        """

    @abstractmethod
    def finalize(self) -> np.ndarray:
        """Return the per-candidate differences, shape ``(k,)``."""


class BlockSumDiffAccumulator(DiffAccumulator):
    """Accumulator for metrics that are a function of per-candidate row sums.

    Covers every mean-reduced metric in the library: classification
    disagreement (sum of mismatch indicators) and (normalised) RMS
    differences (sum of squared prediction gaps).  A family binds
    ``block_sums`` — a callable mapping a holdout block to the ``(k,)``
    per-candidate sums over that block — and ``reduce`` — a callable mapping
    the grand totals ``(sums, n_rows)`` to the final differences.
    """

    def __init__(
        self,
        n_candidates: int,
        block_sums: Callable[[Dataset], np.ndarray],
        reduce: Callable[[np.ndarray, int], np.ndarray],
    ):
        if n_candidates < 1:
            raise ModelSpecError("need at least one candidate parameter vector")
        self._sums = np.zeros(int(n_candidates), dtype=np.float64)
        self._rows = 0
        self._block_sums = block_sums
        self._reduce = reduce

    def update(self, block: Dataset) -> None:
        self._sums += np.asarray(self._block_sums(block), dtype=np.float64)
        self._rows += block.n_rows

    def merge(self, other: DiffAccumulator) -> None:
        if not isinstance(other, BlockSumDiffAccumulator):
            raise ModelSpecError("cannot merge accumulators of different kinds")
        self._sums += other._sums
        self._rows += other._rows

    def finalize(self) -> np.ndarray:
        if self._rows == 0:
            raise ModelSpecError("accumulator finalized before seeing any holdout rows")
        return np.asarray(self._reduce(self._sums, self._rows), dtype=np.float64)


class PrecomputedDiffAccumulator(DiffAccumulator):
    """Accumulator whose differences are known before any holdout block.

    Three uses: parameter-space metrics (PPCA's aligned cosine) that are
    fully determined by the parameter batches; Lin's diffs, computed from
    the d × d holdout factor of one earlier pass; and the generic fallback
    for custom :class:`ModelClassSpec` subclasses without a streaming
    decomposition — the fallback evaluates the scalar
    ``prediction_difference`` pair by pair on the full holdout up front,
    which preserves correctness but not the O(k · block) memory bound
    (documented in ``docs/architecture.md``).
    """

    needs_holdout_blocks = False

    def __init__(self, values: np.ndarray):
        self._values = np.asarray(values, dtype=np.float64)

    def update(self, block: Dataset) -> None:
        del block  # the metric is block-independent

    def merge(self, other: DiffAccumulator) -> None:
        if not isinstance(other, PrecomputedDiffAccumulator):
            raise ModelSpecError("cannot merge accumulators of different kinds")

    def finalize(self) -> np.ndarray:
        return self._values


def holdout_label_scale(dataset: Any, family: str) -> float:
    """Label standard deviation normalising a regression diff metric.

    One implementation for every normalised regression family (linear,
    Poisson) so the scale contract cannot silently diverge between them.
    Both holdout kinds expose the scale as ``label_std()``: an in-memory
    :class:`~repro.data.dataset.Dataset` memoises ``np.std(y)``, and a
    :class:`repro.data.store.ShardedDataset` reads its precomputed
    manifest moments (O(1), no label I/O, equal to ``np.std`` of the
    materialised labels to a few ulps).  (Near-)zero scales fall back to
    1.0 to avoid dividing by zero on constant labels.
    """
    # Supervision is checked first so the unlabeled-holdout misuse raises
    # the same ModelSpecError whichever storage tier the holdout lives in
    # (label_std() would otherwise surface a DataError instead of
    # explaining the missing labels).
    if not dataset.is_supervised:
        raise ModelSpecError(
            f"normalised {family} difference needs holdout labels for scaling"
        )
    scale = float(dataset.label_std())
    return scale if scale > 0 else 1.0


def materialize_if_sharded(dataset: Any) -> Dataset:
    """An in-memory :class:`Dataset` for ``dataset``, whatever it is.

    Block sources (e.g. :class:`repro.data.store.ShardedDataset`) expose a
    ``materialize()`` method; in-memory datasets pass through untouched.
    This is the correctness escape hatch for code that genuinely needs the
    whole feature matrix — notably the generic accumulator fallbacks for
    custom model specs without a streaming decomposition — and it
    deliberately trades the out-of-core memory bound for compatibility.
    """
    materialize = getattr(dataset, "materialize", None)
    if callable(materialize):
        return materialize()
    return dataset


#: Rows one BLAS call in the fit path spans at most.  BLAS splits a longer
#: call across its threads, and OpenBLAS's bits then depended on the thread
#: count: the partial sums of ``Xᵀr`` meet in another order, and ``X @ θ``
#: changed at some row counts too.  Calls of 4,096 rows gave the same bits
#: at one and two threads.
_BLAS_ROWS = 4096


def row_blocked_product(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``X @ M``, one product per block of :data:`_BLAS_ROWS` rows of X."""
    out = np.empty((X.shape[0],) + M.shape[1:])
    for lo in range(0, X.shape[0], _BLAS_ROWS):
        hi = lo + _BLAS_ROWS
        np.matmul(X[lo:hi], M, out=out[lo:hi])
    return out


def transposed_row_sum(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``Xᵀ R``: one product per block of :data:`_BLAS_ROWS` rows of X and R.

    The block partials are added in row order, so the sum does not depend
    on how many threads BLAS runs.
    """
    total = X[:_BLAS_ROWS].T @ R[:_BLAS_ROWS]
    for lo in range(_BLAS_ROWS, X.shape[0], _BLAS_ROWS):
        hi = lo + _BLAS_ROWS
        total += X[lo:hi].T @ R[lo:hi]
    return total


class ModelClassSpec(ABC):
    """Abstract base class for every supported model family."""

    #: one of "regression", "binary", "multiclass", "unsupervised"
    task: str = "regression"
    #: short name used by the registry and in reports (e.g. "lr")
    name: str = "model"

    def __init__(self, regularization: float = 0.0):
        if regularization < 0:
            raise ModelSpecError("regularization coefficient must be non-negative")
        self.regularization = float(regularization)

    # ------------------------------------------------------------------
    # Parameter bookkeeping
    # ------------------------------------------------------------------
    @abstractmethod
    def n_parameters(self, dataset: Dataset) -> int:
        """Dimension of the flattened parameter vector θ for this dataset."""

    def initial_parameters(self, dataset: Dataset, rng: np.random.Generator | None = None) -> np.ndarray:
        """Deterministic-by-default starting point for the optimizer."""
        del rng
        return np.zeros(self.n_parameters(dataset))

    # ------------------------------------------------------------------
    # MLE objective pieces (Equations (1)-(3))
    # ------------------------------------------------------------------
    @abstractmethod
    def loss(self, theta: np.ndarray, dataset: Dataset) -> float:
        """The objective ``f_n(θ)``: average negative log-likelihood + R(θ)."""

    @abstractmethod
    def per_example_gradients(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        """The ``(n, p)`` matrix whose i-th row is ``q(θ; x_i, y_i)``.

        These are the *unregularised* per-example gradients; the regulariser
        gradient ``r(θ)`` is added separately (it does not vary across
        examples and therefore contributes nothing to the covariance J).

        Implementations must be *row-decomposable*: the gradient of row i
        may depend on θ and on row i only, never on the other rows in
        ``dataset``.  The streaming statistics tier
        (:mod:`repro.core.statistics`) relies on this to evaluate the
        method block-by-block over a sharded store and fold the blocks into
        a moment summary — calling it on a block must yield exactly the
        corresponding rows of the full-matrix call.
        """

    def regularizer(self, theta: np.ndarray) -> float:
        """The regulariser ``R(θ)``; L2 by default: ``(β/2) ‖θ‖²``."""
        return 0.5 * self.regularization * float(theta @ theta)

    def regularizer_gradient(self, theta: np.ndarray) -> np.ndarray:
        """``r(θ) = ∇R(θ)``; L2 by default: ``βθ``."""
        return self.regularization * np.asarray(theta, dtype=np.float64)

    def gradient(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        """The full gradient ``g_n(θ)`` = mean per-example gradient + r(θ).

        This default averages :meth:`per_example_gradients`.  The built-in
        families override it with a row-blocked GEMM that never builds the
        per-example rows; it equals this mean to rounding, not bitwise.
        Every :meth:`value_and_gradient` override must return the bytes of
        its own family's ``gradient``.
        """
        per_example = self.per_example_gradients(theta, dataset)
        return per_example.mean(axis=0) + self.regularizer_gradient(theta)

    def value_and_gradient(
        self, theta: np.ndarray, dataset: Dataset
    ) -> tuple[float, np.ndarray]:
        """``(loss, gradient)``, the pair every optimizer step evaluates.

        The default calls :meth:`loss` and :meth:`gradient`, so a custom
        spec inherits it unchanged.  The built-in families override it to
        run their forward pass once, with the bytes of :meth:`loss` and
        :meth:`gradient`.
        """
        return self.loss(theta, dataset), self.gradient(theta, dataset)

    def grads(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        """The MCS ``grads`` function from Section 2.2.

        Returns the list of ``q(θ; x_i, y_i) + r(θ)`` for i = 1..n as an
        ``(n, p)`` matrix.
        """
        per_example = self.per_example_gradients(theta, dataset)
        return per_example + self.regularizer_gradient(theta)[None, :]

    def hessian(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Analytic Hessian of ``f_n`` (ClosedForm path).

        Subclasses with a tractable closed form override this; others raise,
        in which case BlinkML falls back to InverseGradients or
        ObservedFisher, exactly as discussed in Section 3.4.
        """
        raise ModelSpecError(
            f"{type(self).__name__} does not provide a closed-form Hessian"
        )

    @property
    def has_closed_form_hessian(self) -> bool:
        """Whether :meth:`hessian` is implemented for this model family."""
        return type(self).hessian is not ModelClassSpec.hessian

    # ------------------------------------------------------------------
    # Prediction and the `diff` metric (Section 2.1, Appendix C)
    # ------------------------------------------------------------------
    @abstractmethod
    def predict(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Model predictions ``m(x; θ)`` for each row of ``X``."""

    @abstractmethod
    def prediction_difference(
        self, theta_a: np.ndarray, theta_b: np.ndarray, dataset: Dataset
    ) -> float:
        """The ``diff`` function: ``v`` between two parameter vectors.

        Classification models return the disagreement probability on the
        holdout set; regression returns the (normalised) RMS prediction
        difference; PPCA returns ``1 − cosine(θ_a, θ_b)``.
        """

    # ------------------------------------------------------------------
    # Batched parameter evaluation
    #
    # The accuracy and sample-size estimators evaluate the MCS ``diff``
    # function against k = O(100) sampled parameter vectors at every
    # estimate and every binary-search probe.  ``predict_many`` exposes the
    # predictions as a set-at-a-time operation so model families can replace
    # k separate predict calls with a single ``X @ Thetas.T``-style GEMM.
    # ------------------------------------------------------------------
    def _as_parameter_batch(self, Thetas: np.ndarray) -> np.ndarray:
        """Validate and coerce a stack of parameter vectors to ``(k, p)``."""
        Thetas = np.asarray(Thetas, dtype=np.float64)
        if Thetas.ndim != 2:
            raise ModelSpecError(
                f"expected a (k, p) batch of parameter vectors, got shape {Thetas.shape}"
            )
        return Thetas

    def _as_paired_batches(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate two parameter batches that must match pair for pair."""
        Thetas_a = self._as_parameter_batch(Thetas_a)
        Thetas_b = self._as_parameter_batch(Thetas_b)
        if Thetas_a.shape != Thetas_b.shape:
            raise ModelSpecError(
                f"paired parameter batches must have matching shapes; got "
                f"{Thetas_a.shape} and {Thetas_b.shape}"
            )
        return Thetas_a, Thetas_b

    def predict_many(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Predictions for each parameter vector in the ``(k, p)`` batch.

        Returns an array whose leading axis indexes the k parameter vectors;
        entry i equals ``predict(Thetas[i], X)`` wherever the products
        ``Xθ`` are finite.  Vectorised overrides compute all k prediction
        sets in one BLAS-level matrix product, and on overflowing products
        that GEMM and ``predict``'s GEMV may disagree: for LR with
        x = [1e308, 1e308] and θ = [10, −10] the GEMV sees inf − inf (NaN,
        class 0) where the GEMM sees +inf (class 1).
        """
        Thetas = self._as_parameter_batch(Thetas)
        return np.stack([self.predict(theta, X) for theta in Thetas])

    def _decisions(self, Thetas: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The labels the disagreement accumulators compare, one row per θ.

        Contract: ``_decisions(Thetas, X).astype(np.int64)`` equals
        ``predict_many(Thetas, X)`` for every input, and so equals the
        scalar ``predict`` row by row only where the products ``Xθ`` are
        finite (see :meth:`predict_many`).  This default returns
        ``predict_many``; the classifiers override it to skip the int64
        widening and take their labels in the narrowest dtype that holds
        them.  A subclass that overrides ``predict_many`` must override this
        too, or the diff path keeps the parent's labels.
        """
        return self.predict_many(Thetas, X)

    # ------------------------------------------------------------------
    # The batched ``diff``, streamed over holdout blocks
    #
    # The two factories below are the one batched ``diff`` implementation:
    # each hands back a DiffAccumulator that the streaming engine
    # (repro.evaluation.streaming) drives block by block, keeping memory at
    # O(k · block).  The built-in families override them with
    # disagreement counts over ``_decisions`` and squared-error sums over
    # ``predict_many``, one GEMM per block; the generic fallbacks evaluate
    # the scalar ``prediction_difference`` pair by pair, so a custom spec
    # that only implements ``predict`` and ``prediction_difference`` keeps
    # working (correct, but without the memory bound).
    # ------------------------------------------------------------------
    def diff_accumulator(
        self, theta_ref: np.ndarray, Thetas: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        """Batched ``diff``: ``v(θ_ref, Thetas[i])`` for each i, block by block.

        This is the accuracy-estimator inner loop (Section 3.3 step 2): one
        reference model against k sampled full-model parameters.
        ``dataset`` is the *full* holdout: factories may read global context
        from it (e.g. the label scale of normalised regression metrics) but
        must not evaluate predictions on it — rows arrive via ``update``.
        It may also be a block source (:class:`repro.data.store.ShardedDataset`);
        this generic fallback then materialises it once, preserving
        correctness for custom specs at the cost of the memory bound (the
        built-in families override with true streaming decompositions).
        """
        Thetas = self._as_parameter_batch(Thetas)
        theta_ref = np.asarray(theta_ref, dtype=np.float64)
        holdout = materialize_if_sharded(dataset)
        return PrecomputedDiffAccumulator(
            np.array(
                [self.prediction_difference(theta_ref, theta, holdout) for theta in Thetas],
                dtype=np.float64,
            )
        )

    def pairwise_diff_accumulator(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray, dataset: Dataset
    ) -> DiffAccumulator:
        """Elementwise batched ``diff``: ``v(Thetas_a[i], Thetas_b[i])``.

        This is the sample-size-estimator inner loop (Section 4.1): the k
        two-stage pairs ``(θ_n,i, θ_N,i)`` are compared pair by pair at every
        binary-search probe.
        """
        Thetas_a, Thetas_b = self._as_paired_batches(Thetas_a, Thetas_b)
        holdout = materialize_if_sharded(dataset)
        return PrecomputedDiffAccumulator(
            np.array(
                [
                    self.prediction_difference(theta_a, theta_b, holdout)
                    for theta_a, theta_b in zip(Thetas_a, Thetas_b)
                ],
                dtype=np.float64,
            )
        )

    # ------------------------------------------------------------------
    # Shared accumulator builders for the two metric shapes every built-in
    # family reduces to: mean prediction disagreement (classification) and
    # (normalised) RMS prediction gap (regression).  Families call these
    # from their diff_accumulator overrides so the blockwise decomposition
    # lives in exactly one place.
    # ------------------------------------------------------------------
    def _disagreement_accumulator(
        self, theta_ref: np.ndarray, Thetas: np.ndarray
    ) -> DiffAccumulator:
        """Blockwise mean-disagreement vs one reference θ (exact counts)."""
        Thetas = self._as_parameter_batch(Thetas)
        theta_ref = np.asarray(theta_ref, dtype=np.float64)

        def block_sums(block: Dataset) -> np.ndarray:
            decisions = self._decisions(Thetas, block.X)
            # The reference row keeps the scalar predict, the product the
            # scalar prediction_difference takes; its labels fit the hook's
            # dtype, so the compare runs on narrow labels.
            reference = self.predict(theta_ref, block.X).astype(decisions.dtype, copy=False)
            return np.count_nonzero(decisions != reference[None, :], axis=1)

        return BlockSumDiffAccumulator(
            Thetas.shape[0], block_sums, lambda sums, rows: sums / rows
        )

    def _pairwise_disagreement_accumulator(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray
    ) -> DiffAccumulator:
        """Blockwise mean-disagreement between matched parameter pairs."""
        Thetas_a, Thetas_b = self._as_paired_batches(Thetas_a, Thetas_b)
        stacked = np.concatenate([Thetas_a, Thetas_b], axis=0)
        k = Thetas_a.shape[0]

        def block_sums(block: Dataset) -> np.ndarray:
            labels = self._decisions(stacked, block.X)
            return np.count_nonzero(labels[:k] != labels[k:], axis=1)

        return BlockSumDiffAccumulator(k, block_sums, lambda sums, rows: sums / rows)

    def _rms_accumulator(
        self, theta_ref: np.ndarray, Thetas: np.ndarray, scale: float
    ) -> DiffAccumulator:
        """Blockwise ``sqrt(mean((pred − ref)²)) / scale`` vs one reference θ."""
        Thetas = self._as_parameter_batch(Thetas)
        theta_ref = np.asarray(theta_ref, dtype=np.float64)

        def block_sums(block: Dataset) -> np.ndarray:
            gaps = self.predict_many(Thetas, block.X) - self.predict(theta_ref, block.X)[None, :]
            return np.einsum("kn,kn->k", gaps, gaps)

        return BlockSumDiffAccumulator(
            Thetas.shape[0], block_sums, lambda sums, rows: np.sqrt(sums / rows) / scale
        )

    def _pairwise_rms_accumulator(
        self, Thetas_a: np.ndarray, Thetas_b: np.ndarray, scale: float
    ) -> DiffAccumulator:
        """Blockwise normalised RMS gap between matched parameter pairs."""
        Thetas_a, Thetas_b = self._as_paired_batches(Thetas_a, Thetas_b)
        stacked = np.concatenate([Thetas_a, Thetas_b], axis=0)
        k = Thetas_a.shape[0]

        def block_sums(block: Dataset) -> np.ndarray:
            predictions = self.predict_many(stacked, block.X)
            gaps = predictions[:k] - predictions[k:]
            return np.einsum("kn,kn->k", gaps, gaps)

        return BlockSumDiffAccumulator(
            k, block_sums, lambda sums, rows: np.sqrt(sums / rows) / scale
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def objective(self, dataset: Dataset) -> Objective:
        """Wrap this model + dataset pair as an optimizer objective."""
        return _ModelObjective(self, dataset)

    def fit(
        self,
        dataset: Dataset,
        theta0: np.ndarray | None = None,
        **kwargs: Any,
    ) -> TrainedModel:
        """Train on ``dataset`` and return a :class:`TrainedModel`.

        The fit runs :func:`repro.optim.minimize`, so it follows the
        paper's dimension rule (BFGS below 100 parameters, L-BFGS above);
        ``kwargs`` (``max_iterations``, ``gradient_tolerance``, ...) go to
        the optimizer.
        """
        if theta0 is None:
            theta0 = self.initial_parameters(dataset)
        result = minimize(self.objective(dataset), theta0, **kwargs)
        return TrainedModel(spec=self, theta=result.theta, n_train=dataset.n_rows, optimization=result)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def validate_dataset(self, dataset: Dataset) -> None:
        """Raise :class:`ModelSpecError` when the dataset does not fit the task."""
        if self.task in {"regression", "binary", "multiclass"} and not dataset.is_supervised:
            raise ModelSpecError(f"{self.name} requires labels but the dataset has none")

    def describe(self) -> dict:
        """Lightweight description used by reports."""
        return {"model": self.name, "task": self.task, "regularization": self.regularization}


class GeneralizedLinearSpec(ModelClassSpec):
    """A family whose likelihood sees row i only through ``z_i = θᵀx_i``.

    Linear, logistic and Poisson regression: the data term is a mean of
    ``ℓ(z_i, y_i)`` and row i's gradient is ``ℓ'(z_i, y_i) · x_i``.  A
    subclass supplies both from the linear predictor ``z = Xθ``, and every
    objective piece below computes ``z`` once.
    """

    @abstractmethod
    def _data_term(self, z: np.ndarray, y: np.ndarray) -> float:
        """The mean negative log-likelihood given the linear predictor."""

    @abstractmethod
    def _slopes(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``ℓ'(z_i, y_i)`` per row: the scale of ``x_i`` in its gradient."""

    def _linear_predictor(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        self.validate_dataset(dataset)
        return row_blocked_product(dataset.X, theta)

    def _data_gradient(self, z: np.ndarray, dataset: Dataset) -> np.ndarray:
        """The mean of the rows ``ℓ'(z_i, y_i) · x_i``, as ``Xᵀ slopes / n``."""
        return transposed_row_sum(dataset.X, self._slopes(z, dataset.y)) / dataset.n_rows

    def loss(self, theta: np.ndarray, dataset: Dataset) -> float:
        z = self._linear_predictor(theta, dataset)
        return self._data_term(z, dataset.y) + self.regularizer(theta)

    def per_example_gradients(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        z = self._linear_predictor(theta, dataset)
        return self._slopes(z, dataset.y)[:, None] * dataset.X

    def gradient(self, theta: np.ndarray, dataset: Dataset) -> np.ndarray:
        z = self._linear_predictor(theta, dataset)
        return self._data_gradient(z, dataset) + self.regularizer_gradient(theta)

    def value_and_gradient(
        self, theta: np.ndarray, dataset: Dataset
    ) -> tuple[float, np.ndarray]:
        z = self._linear_predictor(theta, dataset)
        return (
            self._data_term(z, dataset.y) + self.regularizer(theta),
            self._data_gradient(z, dataset) + self.regularizer_gradient(theta),
        )


class _ModelObjective(Objective):
    """Adapter exposing a (spec, dataset) pair through the optimizer interface."""

    def __init__(self, spec: ModelClassSpec, dataset: Dataset):
        self._spec = spec
        self._dataset = dataset

    def value_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self._spec.value_and_gradient(theta, self._dataset)


@dataclass
class TrainedModel:
    """A fitted model: the spec plus the learned parameter vector.

    This is what the coordinator returns (wrapped in an
    :class:`repro.core.result.ApproximateTrainingResult`) and what the
    baselines and the hyperparameter harness consume.
    """

    spec: ModelClassSpec
    theta: np.ndarray
    n_train: int
    optimization: OptimizationResult | None = None
    metadata: dict = field(default_factory=dict)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions of the fitted model on a feature matrix."""
        return self.spec.predict(self.theta, X)

    def difference(self, other: TrainedModel, dataset: Dataset) -> float:
        """Prediction difference ``v`` between this model and ``other``."""
        if type(self.spec) is not type(other.spec):
            raise ModelSpecError("cannot compare models from different model classes")
        return self.spec.prediction_difference(self.theta, other.theta, dataset)

    @property
    def n_parameters(self) -> int:
        return int(self.theta.shape[0])
