"""General-form sequence router with pluggable component networks.

This is the faithful, unoptimized formulation: an iterative
expectation-maximization loop that turns ``n_inp`` input vectors into
``n_out`` output vectors. Four caller-supplied networks parameterize it:

* ``activations`` scores each input vector; the logistic of the score
  gates how much of that input's data all outputs may collectively use.
* ``votes`` proposes, for every input vector, one candidate output
  vector per output slot. The full (n_inp, n_out, d_out) proposal tensor
  is materialized here on purpose: this module trades memory for
  transparency and serves as the correctness oracle for the factored
  implementation in :mod:`vecroute.optimized`.
* ``predict`` maps current output states back to predicted inputs.
* ``score`` rates actual against predicted inputs; a row softmax of the
  scores yields each input's routing distribution over outputs.

Each iteration splits every activated input's gate into a share used and
a share ignored per output (the two always sum to the gate, and used
shares sum to the gate across outputs), then updates each output as a
net-benefit-minus-net-cost combination of the proposals, with per-pair
``beta_use``/``beta_ign`` coefficients pricing each unit of data used or
ignored. The first iteration uses a flat prior of 1/n_out instead of
predictions. The loop always runs exactly ``n_iters`` times; no
convergence criterion is applied.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .tensor import (
    ALWAYS_ON,
    AlwaysOn,
    DenseTensor,
    NumericError,
    ShapeError,
    as_array,
    logistic,
    softmax_rows,
)

__all__ = [
    "BetaPair",
    "HopfieldReductionReport",
    "IterationRecord",
    "PluggableNetworks",
    "RoutingDims",
    "RoutingTrace",
    "always_on_activation_plugin",
    "hopfield_reduction_check",
    "memory_votes_plugin",
    "phi_of",
    "relative_linf",
    "route_reference",
]

Scores = Union[np.ndarray, AlwaysOn]


@dataclass(frozen=True)
class RoutingDims:
    """Index bounds of one routing. ``n_inp=None`` means variable length."""

    n_inp: int | None
    n_out: int
    d_inp: int
    d_out: int
    n_iters: int

    def __post_init__(self):
        for name in ("n_out", "d_inp", "d_out"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_inp is not None and self.n_inp < 1:
            raise ValueError("n_inp must be positive or None (variable length)")
        # Two iterations minimum: one pass on the flat prior plus at least
        # one prediction-driven update.
        if self.n_iters < 2:
            raise ValueError("n_iters must be at least 2")

    @property
    def variable_length(self) -> bool:
        return self.n_inp is None


@dataclass(frozen=True)
class PluggableNetworks:
    """The four implementation-specific networks of the general router.

    All four must be pure functions of their declared inputs; statefulness
    would make traces unreproducible. ``votes`` should break symmetry,
    i.e. propose a different candidate per output slot for generic input;
    a symmetric ``votes`` makes routing pointless (every output sees the
    same basis) but is still accepted, since the associative-recall
    special case relies on it.
    """

    activations: Callable[[np.ndarray], Scores]  # (n_inp, d_inp) -> (n_inp,) or ALWAYS_ON
    votes: Callable[[np.ndarray], np.ndarray]  # (n_inp, d_inp) -> (n_inp, n_out, d_out)
    predict: Callable[[np.ndarray], np.ndarray]  # (n_out, d_out) -> (n_out, d_inp)
    score: Callable[[np.ndarray, np.ndarray], np.ndarray]  # -> (n_inp, n_out)


@dataclass(frozen=True)
class BetaPair:
    """Per-pair net benefit to use and net cost to ignore a unit of data.

    Values may be positive or negative; "net" carries no sign restriction.
    """

    beta_use: DenseTensor
    beta_ign: DenseTensor

    def __post_init__(self):
        bu = _coerce_rank2(self.beta_use, "beta_use")
        bi = _coerce_rank2(self.beta_ign, "beta_ign")
        object.__setattr__(self, "beta_use", bu)
        object.__setattr__(self, "beta_ign", bi)
        if bu.shape != bi.shape:
            raise ShapeError(
                f"beta_use shape {bu.shape} != beta_ign shape {bi.shape}"
            )


def _coerce_rank2(t, name: str) -> DenseTensor:
    out = t if isinstance(t, DenseTensor) else DenseTensor(t, context=name)
    if out.rank != 2:
        raise ShapeError(f"{name} must be rank 2, got rank {out.rank}")
    return out


@dataclass(frozen=True)
class IterationRecord:
    """Everything one loop iteration computed.

    ``scores`` and ``predicted`` are None in iteration 1, where the flat
    prior replaces the predict/score path.
    """

    routing: DenseTensor  # (n_inp, n_out), rows sum to 1
    scores: DenseTensor | None  # (n_inp, n_out)
    predicted: DenseTensor | None  # (n_out, d_inp)
    share_used: DenseTensor  # (n_inp, n_out)
    share_ignored: DenseTensor  # (n_inp, n_out)
    credit: DenseTensor  # (n_inp, n_out) coefficients combining the proposals
    output: DenseTensor  # (n_out, d_out)


@dataclass(frozen=True)
class RoutingTrace:
    """Full audit record of one forward pass.

    ``iterations`` is a sequence of one record per iteration: a tuple
    here, and in the optimized router a sequence that builds its records
    on first read, by rerunning the routing, which recomputes every
    iteration's prediction and output, and returns the same objects from
    then on. A minimal
    trace (capture off in the optimized router) keeps only
    ``final_credit``; activation fields are then None and ``iterations``
    is empty.
    """

    activation_scores: DenseTensor | AlwaysOn | None
    activation_gates: DenseTensor | None  # logistic of the scores, (n_inp,)
    iterations: Sequence[IterationRecord]
    final_credit: DenseTensor


def relative_linf(value, reference) -> float:
    """Max absolute deviation scaled by the reference's max magnitude."""
    a = as_array(value, "relative_linf value")
    b = as_array(reference, "relative_linf reference")
    diff = float(np.max(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))))
    scale = float(np.max(np.abs(b)))
    if diff == 0.0:
        return 0.0
    return diff / max(scale, 1e-30)


def _gates_of(scores: Scores, n_inp: int, dtype) -> np.ndarray:
    if isinstance(scores, AlwaysOn):
        return np.ones(n_inp, dtype=dtype)
    arr = np.asarray(scores)
    if arr.shape != (n_inp,):
        raise ShapeError(
            f"activation scores shape {arr.shape} != ({n_inp},) over index i"
        )
    return np.asarray(logistic(arr))


def _check_step(arr: np.ndarray, step: str, iteration: int | None = None) -> None:
    if not np.all(np.isfinite(arr)):
        where = f" at iteration {iteration}" if iteration is not None else ""
        raise NumericError(f"non-finite values in {step}{where}")


def route_reference(
    x_inp,
    nets: PluggableNetworks,
    betas: BetaPair,
    dims: RoutingDims,
    capture_trace: bool = True,
) -> tuple[DenseTensor, RoutingTrace | None]:
    """Run the general routing loop, materializing the full proposal tensor.

    Returns the final output states and, if ``capture_trace``, the full
    per-iteration audit record. Intended for correctness work: proposal
    storage is O(n_inp * n_out * d_out), so keep instances small.
    """
    x = as_array(x_inp, "x_inp")
    if x.ndim != 2:
        raise ShapeError(f"x_inp must be rank 2, got rank {x.ndim}")
    n_inp, d_inp = x.shape
    if not dims.variable_length and n_inp != dims.n_inp:
        raise ShapeError(f"x_inp has {n_inp} rows, dims fix n_inp={dims.n_inp}")
    if d_inp != dims.d_inp:
        raise ShapeError(f"x_inp has {d_inp} columns, dims fix d_inp={dims.d_inp}")
    n_out, d_out = dims.n_out, dims.d_out
    beta_use = betas.beta_use.array
    beta_ign = betas.beta_ign.array
    if beta_use.shape != (n_inp, n_out):
        raise ShapeError(
            f"beta tensors shape {beta_use.shape} != ({n_inp}, {n_out}) over indices ij"
        )
    dtype = x.dtype

    raw_scores = nets.activations(x)
    gates = _gates_of(raw_scores, n_inp, dtype)
    _check_step(gates, "activations")

    votes = np.asarray(nets.votes(x))
    if votes.shape != (n_inp, n_out, d_out):
        raise ShapeError(
            f"votes shape {votes.shape} != ({n_inp}, {n_out}, {d_out}) over indices ijh"
        )
    _check_step(votes, "votes")

    records: list[IterationRecord] = []
    x_out = None
    phi = None
    for it in range(1, dims.n_iters + 1):
        if it == 1:
            routing = np.full((n_inp, n_out), 1.0 / n_out, dtype=dtype)
            predicted = None
            scores = None
        else:
            predicted = np.asarray(nets.predict(x_out))
            if predicted.shape != (n_out, d_inp):
                raise ShapeError(
                    f"predicted inputs shape {predicted.shape} != ({n_out}, {d_inp})"
                )
            _check_step(predicted, "predict", it)
            scores = np.asarray(nets.score(x, predicted))
            if scores.shape != (n_inp, n_out):
                raise ShapeError(
                    f"prediction scores shape {scores.shape} != ({n_inp}, {n_out})"
                )
            _check_step(scores, "score", it)
            routing = softmax_rows(scores).array

        share_used = gates[:, None] * routing
        share_ignored = gates[:, None] - share_used
        # Output update exactly as written: net benefit to use the shares
        # used, less net cost to ignore the shares ignored.
        use_term = np.einsum("ij,ijh->jh", beta_use * share_used, votes)
        ign_term = np.einsum("ij,ijh->jh", beta_ign * share_ignored, votes)
        x_out = use_term - ign_term
        _check_step(x_out, "output update", it)
        phi = beta_use * share_used - beta_ign * share_ignored

        if capture_trace:
            records.append(
                IterationRecord(
                    routing=DenseTensor(routing, copy=False),
                    scores=None if scores is None else DenseTensor(scores, copy=True),
                    predicted=None if predicted is None else DenseTensor(predicted, copy=True),
                    share_used=DenseTensor(share_used, copy=False),
                    share_ignored=DenseTensor(share_ignored, copy=False),
                    credit=DenseTensor(phi, copy=False),
                    output=DenseTensor(x_out, copy=True),
                )
            )

    result = DenseTensor(x_out, copy=False)
    if not capture_trace:
        return result, None
    trace = RoutingTrace(
        activation_scores=(
            raw_scores if isinstance(raw_scores, AlwaysOn) else DenseTensor(np.asarray(raw_scores), copy=True)
        ),
        activation_gates=DenseTensor(gates, copy=False),
        iterations=tuple(records),
        final_credit=records[-1].credit,
    )
    return result, trace


def phi_of(record: IterationRecord, betas: BetaPair) -> DenseTensor:
    """Recompute an iteration's credit coefficients from its shares.

    credit[i, j] = beta_use[i, j] * share_used[i, j]
                 - beta_ign[i, j] * share_ignored[i, j]

    Contracting these coefficients with the proposal tensor reproduces the
    iteration's output update; the difference-of-weighted-sums form and
    this factored form are the same linear combination.
    """
    bu = betas.beta_use.array
    bi = betas.beta_ign.array
    out = bu * record.share_used.array - bi * record.share_ignored.array
    return DenseTensor(out, copy=False, context="phi_of")


def memory_votes_plugin(memories) -> Callable[[np.ndarray], np.ndarray]:
    """Proposal network that retrieves a stored tensor instead of computing.

    The returned plugin ignores its input and always yields ``memories``
    (n_inp, n_out, d_out): every output's basis is a learned memory,
    retrieved rather than derived from the data at inference.
    """
    mem = memories if isinstance(memories, DenseTensor) else DenseTensor(memories, context="memories")
    if mem.rank != 3:
        raise ShapeError(f"memories must be rank 3, got rank {mem.rank}")
    arr = mem.array

    def votes(x: np.ndarray) -> np.ndarray:
        if np.asarray(x).shape[0] != arr.shape[0]:
            raise ShapeError(
                f"memories cover {arr.shape[0]} input vectors, got {np.asarray(x).shape[0]}"
            )
        return arr

    return votes


def always_on_activation_plugin() -> Callable[[np.ndarray], Scores]:
    """Activation network that fully activates every input, never gating.

    Returns the symbolic marker rather than a literal infinite score; the
    logistic of the marker is exactly 1.
    """

    def activations(x: np.ndarray) -> Scores:
        return ALWAYS_ON

    return activations


@dataclass(frozen=True)
class HopfieldReductionReport:
    """Outcome of checking the associative-recall special case.

    ``conditions_hold`` records whether the configuration is the exact
    special case: always-on activations, beta_use identically 1 and
    beta_ign identically 0 (no cost to ignore, so the bias half of the
    factored update vanishes and each update is a pure softmax mixture
    of the proposals). ``max_mixture_deviation`` measures how far each
    iteration's output is from that mixture; ``max_factorization_deviation``
    checks the values-minus-biases factorization itself, which is an
    algebraic identity and should be at rounding level for any betas.
    """

    conditions_hold: bool
    max_mixture_deviation: float
    max_factorization_deviation: float
    bias_weight_magnitude: float
    tolerance: float

    @property
    def reduces(self) -> bool:
        return self.conditions_hold and self.max_mixture_deviation <= self.tolerance


def hopfield_reduction_check(
    x_inp,
    nets: PluggableNetworks,
    betas: BetaPair,
    dims: RoutingDims,
    tolerance: float = 1e-5,
) -> HopfieldReductionReport:
    """Verify the reduction of the routing update to associative recall.

    Runs the reference loop, then independently evaluates two forms per
    iteration: the pure softmax mixture sum_i routing[i,j] * votes[i,j,h],
    and the factored update sum_i (routing * values - biases) with
    values = (beta_use + beta_ign) * gate * votes and
    biases = beta_ign * gate * votes. The mixture matches the loop's
    output exactly when the special-case conditions hold; the factored
    form matches always.
    """
    x = as_array(x_inp, "x_inp")
    x_out, trace = route_reference(x, nets, betas, dims, capture_trace=True)
    votes = np.asarray(nets.votes(x))
    gates = trace.activation_gates.array
    bu = betas.beta_use.array
    bi = betas.beta_ign.array

    always_on = isinstance(trace.activation_scores, AlwaysOn)
    conditions = bool(always_on and np.all(bu == 1.0) and np.all(bi == 0.0))
    bias_weight = float(np.max(np.abs(bi * gates[:, None])))

    values = ((bu + bi) * gates[:, None])[:, :, None] * votes
    biases = (bi * gates[:, None])[:, :, None] * votes
    bias_sum = biases.sum(axis=0)

    mixture_dev = 0.0
    factored_dev = 0.0
    for record in trace.iterations:
        routing = record.routing.array
        out = record.output.array
        mixture = np.einsum("ij,ijh->jh", routing, votes)
        factored = np.einsum("ij,ijh->jh", routing, values) - bias_sum
        mixture_dev = max(mixture_dev, relative_linf(mixture, out))
        factored_dev = max(factored_dev, relative_linf(factored, out))

    return HopfieldReductionReport(
        conditions_hold=conditions,
        max_mixture_deviation=mixture_dev,
        max_factorization_deviation=factored_dev,
        bias_weight_magnitude=bias_weight,
        tolerance=tolerance,
    )
