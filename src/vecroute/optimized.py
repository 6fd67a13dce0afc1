"""Memory-lean concrete router that never stores the proposal tensor.

The general formulation in :mod:`vecroute.reference` materializes one
candidate output per (input, output) pair, an (n_inp, n_out, d_out) block
that dominates memory at scale. This module fixes concrete linear forms
for the four component networks and reorders the output update so the
contraction over inputs happens first:

    pooled[j, d] = sum_i credit[i, j] * x[i, d]

after which the proposal network's two factors are applied to ``pooled``
instead of to every input separately, so nothing of size
n_inp * n_out * d_out ever exists. The proposals stay implicit, but
:func:`materialized_votes` can still build the tensor explicitly for
small instances so tests can compare both execution orders.

Every step of an iteration except that contraction is local to one
input row: the use/ignore coefficients, the agreement score, the routing
over outputs, the shares and the credit. :func:`route_optimized`
therefore runs each iteration over blocks of B = max(1, BLOCK_ELEMENTS //
n_out) input rows. A block computes its stages in place in one
block-sized workspace, checks them for non-finite values once, and adds
its ``credit.T @ x`` and ``credit.sum(0)`` into the output-sized
partials that the M-step finishes once per iteration. With the trace off
the only routing-pair-sized (n_inp * n_out) array is the returned final
credit; everything else is input-sized (n_inp), block-sized, or
output-sized (n_out * max(d_inp, d_out)). The public stage functions
(:func:`activation_scores`, :func:`beta_pair_for`, :func:`predict_inputs`,
:func:`score_predictions`, :func:`m_step_factored`) still take and return
whole arrays; :func:`as_plugins` hands them to the reference router.

Two parameter layouts are supported. Fixed-length mode keys activation,
score, and use/ignore coefficients by input position, so n_inp is baked
into the parameter shapes. Variable-length mode drops the input index
from every parameter and instead derives the per-pair use/ignore
coefficients from the input vectors themselves, one block at a time, so
one parameter set serves any sequence length.

Iteration 1 routes every input to every output with the flat prior
p = 1/n_out. In the variable layout its credit is then linear in the
input, credit[i, j] = g_i * (x_i . w1_j + c1_j), with w1 = p * W_use -
(1 - p) * W_ign and c1 = p * b_use - (1 - p) * b_ign, so its pooled sums
need only the gated Gram matrix G = sum_i g_i x_i x_i^T and s = sum_i
g_i x_i:

    pooled = (G w1)^T + c1 s^T,    total = w1^T s + c1 * sum_i g_i

Accumulating G costs 2 * d_inp**2 flops per input, against about
6 * n_out * d_inp for the block path (two coefficient sets and the
pooling matmul) plus its pair-sized elementwise passes, so
:func:`route_optimized` takes the closed form exactly when
d_inp < 3 * n_out; the rule is an operation count on the input's shape,
not a setting. Its one-off n_out * d_inp**2 term is the size of the
M-step's own projection matmul, so the count leaves it out. The fixed
layout's coefficients are per-pair tables, so it always runs iteration 1
on the blocks. Every later iteration recomputes each block's
coefficients, so the closed form moves their finite checks there; any
earlier failure first checks the coefficients, and a non-finite
closed-form output redoes iteration 1 on the blocks, so errors name the
same stage as the block path.

Every later iteration routes input i by the softmax over outputs of its
log-logistic scores, softmax_j(log sigma(z_ij)) with z = gain * inner +
bias. That softmax is sigma(z_ij) / S_i with S_i = sum_j sigma(z_ij), so a
block computes sigma once and scales each row by g_i / S_i, which folds
the gate in too: five pair-sized passes (exp, +1, reciprocal, row sum,
row scale) where the log-logistic, the max-shifted softmax and the gate
took twelve. A block whose z holds a non-finite value, or with a row
whose S_i falls below tiny / eps of the dtype (every sigma of the row
near or past underflow), takes the exact path instead: the log-logistic,
its finite check, and the max-shifted softmax. So +inf scores still
route as a score of 0, -inf and NaN still raise, and underflowing rows
keep full precision. The floor is a property of the dtype, not a
setting. A trace records log sigma(z) as the scores and sigma / S as
the routing; the outputs do not depend on whether it is on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Mapping

import numpy as np

from .reference import (
    BetaPair,
    IterationRecord,
    PluggableNetworks,
    RoutingDims,
    RoutingTrace,
    _check_step,
)
from .tensor import (
    DenseTensor,
    NumericError,
    ShapeError,
    as_array,
    log_logistic,
    logistic,
    normalize_vectors,
)

__all__ = [
    "BLOCK_ELEMENTS",
    "FIXED_FIELD_NAMES",
    "TRANSIENT_ELEMENT_BOUND_FACTOR",
    "VARIABLE_FIELD_NAMES",
    "RoutingParams",
    "VoteParamBudget",
    "activation_scores",
    "as_plugins",
    "beta_pair_for",
    "field_shapes",
    "fixed_field_shapes",
    "variable_field_shapes",
    "m_step_factored",
    "materialized_votes",
    "predict_inputs",
    "route_optimized",
    "score_predictions",
    "total_param_count",
    "transient_element_bound",
    "vote_param_budget",
    "vote_param_count",
    "votes_for_input",
]

# Elements (rows * n_out) of one block of the routing loop: 256 KiB per
# float32 array, so the seven arrays of a block's workspace (1.75 MiB)
# fit a 2 MiB per-core L2 cache.
BLOCK_ELEMENTS = 65536

# Canonical field order. Serialization, initialization draw order, and
# parameter counting all follow this order, so it must never be permuted.
FIXED_FIELD_NAMES = (
    "act_weight",
    "act_bias",
    "vote_mix",
    "vote_proj",
    "vote_bias",
    "pred_proj",
    "pred_gate",
    "pred_bias",
    "score_gain",
    "score_bias",
    "beta_use",
    "beta_ign",
)
VARIABLE_FIELD_NAMES = (
    "act_weight",
    "act_bias",
    "vote_mix",
    "vote_proj",
    "vote_bias",
    "pred_proj",
    "pred_gate",
    "pred_bias",
    "score_gain",
    "score_bias",
    "beta_use_weight",
    "beta_use_bias",
    "beta_ign_weight",
    "beta_ign_bias",
)


def fixed_field_shapes(dims: RoutingDims) -> dict[str, tuple[int, ...]]:
    if dims.variable_length:
        raise ValueError("dims are variable-length; no fixed layout exists")
    return {
        "act_weight": (dims.n_inp, dims.d_inp),
        "act_bias": (dims.n_inp,),
        "vote_mix": (dims.n_out, dims.d_inp),
        "vote_proj": (dims.d_inp, dims.d_out),
        "vote_bias": (dims.n_out, dims.d_out),
        "pred_proj": (dims.d_out, dims.d_inp),
        "pred_gate": (dims.n_out, dims.d_inp),
        "pred_bias": (dims.n_out, dims.d_inp),
        "score_gain": (dims.n_inp, dims.n_out),
        "score_bias": (dims.n_inp, dims.n_out),
        "beta_use": (dims.n_inp, dims.n_out),
        "beta_ign": (dims.n_inp, dims.n_out),
    }


def variable_field_shapes(dims: RoutingDims) -> dict[str, tuple[int, ...]]:
    # Scalars are stored shape (1,) so every parameter is a tensor.
    return {
        "act_weight": (dims.d_inp,),
        "act_bias": (1,),
        "vote_mix": (dims.n_out, dims.d_inp),
        "vote_proj": (dims.d_inp, dims.d_out),
        "vote_bias": (dims.n_out, dims.d_out),
        "pred_proj": (dims.d_out, dims.d_inp),
        "pred_gate": (dims.n_out, dims.d_inp),
        "pred_bias": (dims.n_out, dims.d_inp),
        "score_gain": (dims.n_out,),
        "score_bias": (dims.n_out,),
        "beta_use_weight": (dims.d_inp, dims.n_out),
        "beta_use_bias": (dims.n_out,),
        "beta_ign_weight": (dims.d_inp, dims.n_out),
        "beta_ign_bias": (dims.n_out,),
    }


def field_shapes(dims: RoutingDims) -> dict[str, tuple[int, ...]]:
    """Name -> required shape for the layout ``dims`` selects."""
    if dims.variable_length:
        return variable_field_shapes(dims)
    return fixed_field_shapes(dims)


@dataclass(frozen=True)
class RoutingParams:
    """One complete parameter set for the concrete router.

    Exactly one layout's fields are populated; the other layout's fields
    stay None. Every tensor shares one dtype (float32 by default,
    float64 for high-precision cross-checks). ``dims`` rides along so a
    parameter set is self-describing.
    """

    dims: RoutingDims
    act_weight: DenseTensor | None = None
    act_bias: DenseTensor | None = None
    vote_mix: DenseTensor | None = None
    vote_proj: DenseTensor | None = None
    vote_bias: DenseTensor | None = None
    pred_proj: DenseTensor | None = None
    pred_gate: DenseTensor | None = None
    pred_bias: DenseTensor | None = None
    score_gain: DenseTensor | None = None
    score_bias: DenseTensor | None = None
    beta_use: DenseTensor | None = None
    beta_ign: DenseTensor | None = None
    beta_use_weight: DenseTensor | None = None
    beta_use_bias: DenseTensor | None = None
    beta_ign_weight: DenseTensor | None = None
    beta_ign_bias: DenseTensor | None = None

    def __post_init__(self):
        required = field_shapes(self.dims)
        tensor_names = {f.name for f in dataclass_fields(self)} - {"dims"}
        dtypes = set()
        for name in sorted(tensor_names):
            value = getattr(self, name)
            if name not in required:
                if value is not None:
                    raise ValueError(
                        f"{name} does not belong to {self.mode}-length parameters"
                    )
                continue
            if value is None:
                raise ValueError(f"missing parameter {name} for {self.mode}-length mode")
            if not isinstance(value, DenseTensor):
                value = DenseTensor(value, context=name)
                object.__setattr__(self, name, value)
            if value.shape != required[name]:
                raise ShapeError(
                    f"{name} shape {value.shape} != required {required[name]}"
                )
            dtypes.add(value.dtype)
        if len(dtypes) != 1:
            raise ValueError(f"parameters mix dtypes {sorted(str(d) for d in dtypes)}")

    @property
    def mode(self) -> str:
        return "variable" if self.dims.variable_length else "fixed"

    @property
    def dtype(self) -> np.dtype:
        return self.vote_mix.dtype

    def field_names(self) -> tuple[str, ...]:
        return VARIABLE_FIELD_NAMES if self.dims.variable_length else FIXED_FIELD_NAMES

    def field_items(self) -> tuple[tuple[str, DenseTensor], ...]:
        """(name, tensor) pairs in the canonical order for this layout."""
        return tuple((name, getattr(self, name)) for name in self.field_names())

    def astype(self, dtype) -> "RoutingParams":
        return RoutingParams(
            dims=self.dims,
            **{name: t.astype(dtype) for name, t in self.field_items()},
        )

    @classmethod
    def from_mapping(cls, dims: RoutingDims, tensors: Mapping[str, DenseTensor]) -> "RoutingParams":
        expected = set(field_shapes(dims))
        given = set(tensors)
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            raise ValueError(f"parameter names mismatch: missing {missing}, extra {extra}")
        return cls(dims=dims, **dict(tensors))


def _scale(n_inp: int, dtype) -> np.ndarray:
    # The update sums are damped by sqrt(sequence length), computed in the
    # working dtype so both execution orders round identically.
    return dtype.type(1.0) / np.sqrt(np.asarray(n_inp, dtype=dtype))


def activation_scores(x_inp: np.ndarray, params: RoutingParams) -> np.ndarray:
    """Pre-gate activation score of each input vector, shape (n_inp,).

    A per-input linear form damped by sqrt(sequence length), with bias.
    The damping divides by the root of the input count even though the
    sum runs over features; that is the defined behavior, kept verbatim.
    """
    n_inp = x_inp.shape[0]
    scale = _scale(n_inp, x_inp.dtype)
    if params.dims.variable_length:
        return (x_inp @ params.act_weight.array) * scale + params.act_bias.array[0]
    return (
        np.einsum("id,id->i", params.act_weight.array, x_inp) * scale
        + params.act_bias.array
    )


def beta_pair_for(x_inp: np.ndarray, params: RoutingParams) -> BetaPair:
    """Per-pair use/ignore coefficients for this pass.

    Fixed mode returns the stored tables unchanged. Variable mode derives
    the coefficients from the input vectors through a per-output linear
    map; they depend only on the inputs, so they are computed once here
    and stay constant across iterations.
    """
    if not params.dims.variable_length:
        return BetaPair(params.beta_use, params.beta_ign)
    bu = x_inp @ params.beta_use_weight.array + params.beta_use_bias.array[None, :]
    bi = x_inp @ params.beta_ign_weight.array + params.beta_ign_bias.array[None, :]
    return BetaPair(
        DenseTensor(bu, copy=False, context="beta_use coefficients"),
        DenseTensor(bi, copy=False, context="beta_ign coefficients"),
    )


def predict_inputs(x_out: np.ndarray, params: RoutingParams) -> np.ndarray:
    """Map output states back to predicted inputs, shape (n_out, d_inp).

    Output rows are normalized to zero mean and unit variance before the
    two-factor linear map, so prediction depends on output direction, not
    the magnitudes the update sums produce.
    """
    normed = normalize_vectors(x_out).array
    return (
        params.pred_gate.array * (normed @ params.pred_proj.array)
        + params.pred_bias.array
    )


def score_predictions(x_inp: np.ndarray, predicted: np.ndarray, params: RoutingParams) -> np.ndarray:
    """Agreement score of each input with each predicted input.

    The gained inner product is squashed through log-of-logistic, keeping
    every score nonpositive and saturating smoothly for strong agreement.
    Variable mode broadcasts per-output gain and bias over inputs.
    """
    inner = x_inp @ predicted.T
    z = params.score_gain.array * inner + params.score_bias.array
    return np.asarray(log_logistic(z))


def m_step_factored(x_inp: np.ndarray, phi: np.ndarray, params: RoutingParams) -> np.ndarray:
    """Output update with the input contraction done first.

    pooled[j, d] = sum_i phi[i, j] * x[i, d] collapses the inputs before
    the proposal network's mixing and projection factors are applied, so
    the per-(input, output) proposals are never formed. The bias term
    picks up the total credit each output assigned.
    """
    return _finish_m_step(phi.T @ x_inp, phi.sum(axis=0), x_inp.shape[0], params)


def _finish_m_step(pooled: np.ndarray, total: np.ndarray, n_inp: int, params: RoutingParams) -> np.ndarray:
    """Outputs from the input-contracted credit sums of a whole sequence."""
    scale = _scale(n_inp, pooled.dtype)
    out = ((params.vote_mix.array * pooled) @ params.vote_proj.array) * scale
    out += total[:, None] * params.vote_bias.array
    return out


def _log_logistic_into(z: np.ndarray, scratch: np.ndarray) -> None:
    """:func:`vecroute.tensor.log_logistic` of ``z`` in place, same arithmetic.

    The block loop routes by sigma / sum(sigma) and uses this only for the
    scores record of a trace and for blocks on the exact path.
    """
    np.abs(z, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.log1p(scratch, out=scratch)
    np.minimum(z, 0.0, out=z)
    z -= scratch


def _softmax_rows_in_place(scores: np.ndarray) -> None:
    """:func:`vecroute.tensor.softmax_rows` of ``scores``, written back into it.

    Routes only the blocks on the exact path: a non-finite score, or a row
    whose sigma sum is below tiny / eps of the dtype.
    """
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)


def _dims_for_run(params: RoutingParams, dims: RoutingDims | None) -> RoutingDims:
    if dims is None:
        return params.dims
    fixed = ("n_inp", "n_out", "d_inp", "d_out")
    for name in fixed:
        if getattr(dims, name) != getattr(params.dims, name):
            raise ShapeError(
                f"dims.{name}={getattr(dims, name)} conflicts with parameter "
                f"layout {name}={getattr(params.dims, name)}"
            )
    return dims


def _block_betas(x: np.ndarray, params: RoutingParams, rows: int, block):
    """Function from a row slice to that block's (beta_use, beta_ign).

    Fixed mode views the stored tables. Variable mode derives both sets
    of a block with one matmul into a reused buffer, so the values match
    :func:`beta_pair_for` without the pair-sized arrays ever existing.
    ``block(buffer, n_rows, n_cols)`` lays out that buffer, sized for
    blocks of up to ``rows`` rows.
    """
    if not params.dims.variable_length:
        use, ign = params.beta_use.array, params.beta_ign.array
        return lambda blk: (use[blk], ign[blk])
    n_out = params.dims.n_out
    weight = np.concatenate([params.beta_use_weight.array, params.beta_ign_weight.array], axis=1)
    bias = np.concatenate([params.beta_use_bias.array, params.beta_ign_bias.array])
    work = np.empty(2 * n_out * rows, x.dtype)

    def betas(blk: slice):
        both = block(work, blk.stop - blk.start, 2 * n_out)
        np.matmul(x[blk], weight, out=both)
        both += bias
        return both[:, :n_out], both[:, n_out:]

    return betas


def _closed_form_sums(
    x: np.ndarray, gates: np.ndarray, work: np.ndarray, params: RoutingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Iteration 1's (pooled, total) sums in the variable layout.

    With w = [w1; c1] (see the module docstring), pooled = w^T [G; s^T]
    and total = w1^T s + c1 * sum_i g_i. G is accumulated over blocks of
    as many rows as ``work`` holds, each block's gated inputs written
    into it.
    """
    n_inp, d = x.shape
    gram = np.empty((d + 1, d), x.dtype)  # [G; s^T]
    rows = work.size // d  # at least 1: d_inp < 3 * n_out <= work.size
    for start in range(0, n_inp, rows):
        xb = x[start : start + rows]
        gated = work.reshape(-1)[: xb.size].reshape(xb.shape)
        np.multiply(xb, gates[start : start + rows, None], out=gated)
        if start == 0:
            np.matmul(gated.T, xb, out=gram[:d])
        else:
            gram[:d] += gated.T @ xb
    np.matmul(gates, x, out=gram[d])

    n_out = params.dims.n_out
    p = x.dtype.type(1.0 / n_out)
    w = np.empty((d + 1, n_out), x.dtype)
    for out, use, ign in (
        (w[:d], params.beta_use_weight.array, params.beta_ign_weight.array),
        (w[d], params.beta_use_bias.array, params.beta_ign_bias.array),
    ):
        # p * use - (1 - p) * ign, written without temporaries.
        np.add(use, ign, out=out)
        out *= p
        out -= ign
    total = gram[d] @ w[:d]
    total += w[d] * gates.sum()
    return w.T @ gram, total


def route_optimized(
    x_inp,
    params: RoutingParams,
    dims: RoutingDims | None = None,
    capture_trace: bool = False,
) -> tuple[DenseTensor, RoutingTrace]:
    """Run the routing loop without materializing proposals.

    ``dims`` may override the iteration count; its sizes must agree with
    the parameter layout. Each iteration runs over blocks of
    max(1, BLOCK_ELEMENTS // n_out) input rows, except that the variable
    layout with d_inp < 3 * n_out takes iteration 1 in closed form (see
    :func:`_closed_form_sums`). Later iterations route each row by
    sigma(z) / sum(sigma(z)), or by the max-shifted softmax of log
    sigma(z) in a block with a non-finite score or a row sum below
    tiny / eps of the dtype (see the module docstring). The block split
    and the arithmetic that produce the outputs are the same whether
    ``capture_trace`` is on or off; tracing also records iteration 1's
    shares and credit. With it off (the default, and the configuration
    the transient-memory promise covers), a block's intermediates live
    only in the reused block workspace and the returned trace carries
    only the final credit coefficients. With it on, every iteration's
    scores, routing, shares, credit, and output are retained, which
    keeps O(n_iters * n_inp * n_out) memory alive.
    """
    x = as_array(x_inp, "x_inp")
    if x.ndim != 2:
        raise ShapeError(f"x_inp must be rank 2, got rank {x.ndim}")
    run_dims = _dims_for_run(params, dims)
    n_inp, d_inp = x.shape
    if not run_dims.variable_length and n_inp != run_dims.n_inp:
        raise ShapeError(f"x_inp has {n_inp} rows, params fix n_inp={run_dims.n_inp}")
    if d_inp != run_dims.d_inp:
        raise ShapeError(f"x_inp has {d_inp} columns, params fix d_inp={run_dims.d_inp}")
    if x.dtype != params.dtype:
        raise TypeError(f"x_inp dtype {x.dtype} != parameter dtype {params.dtype}")
    n_out = run_dims.n_out
    n_iters = run_dims.n_iters
    dtype = x.dtype

    raw = activation_scores(x, params)
    _check_step(raw, "activations")
    gates = np.asarray(logistic(raw))

    rows = min(n_inp, max(1, BLOCK_ELEMENTS // n_out))
    blocks = [slice(i, min(i + rows, n_inp)) for i in range(0, n_inp, rows)]
    per_row = not run_dims.variable_length  # fixed mode keys score and beta tables by input

    def block(buffer: np.ndarray, n: int, cols: int) -> np.ndarray:
        # Block arrays are indexed (row, output) like the full arrays.
        # Fixed mode stores them row-major, the layout of its per-pair
        # tables. Variable mode has no such tables and stores them
        # output-major, so reductions and broadcasts over the outputs
        # run along long contiguous runs even when n_out is small.
        flat = buffer[: n * cols]
        return flat.reshape(n, cols) if per_row else flat.reshape(cols, n).T

    prior = dtype.type(1.0 / n_out)
    # Iteration 1 in closed form from a gated Gram matrix; the module
    # docstring derives it and the operation count behind the rule.
    closed_form = run_dims.variable_length and d_inp < 3 * n_out
    # The pair-sized arrays the call returns: per iteration (scores,
    # routing, used shares, ignored shares, credit) when tracing, the
    # first iteration having no scores, else only the final credit.
    # Allocating them before the block workspace puts the space the
    # workspace frees above them. Allocated after it, a dropped trace
    # left the top of the heap free, so the heap went back to the system
    # and the next call faulted it in again: a third of the time of a
    # traced three-stage chain.
    pair = (n_inp, n_out)
    if capture_trace:
        kept = [
            (
                None if it == 1 else np.empty(pair, dtype),
                np.full(pair, prior, dtype) if it == 1 else np.empty(pair, dtype),
                np.empty(pair, dtype),
                np.empty(pair, dtype),
                np.empty(pair, dtype),
            )
            for it in range(1, n_iters + 1)
        ]
    else:
        final_credit = np.empty(pair, dtype)
    betas = _block_betas(x, params, rows, block)
    gain, bias = params.score_gain.array, params.score_bias.array
    # Block workspace: scores (-z, which the exact path turns into
    # routing), used shares, ignored shares, credit, scratch (sigma). The
    # Gram matrix borrows it for its blocks of gated inputs.
    work = np.empty((5, rows * n_out), dtype)
    pooled_part = np.empty((n_out, d_inp), dtype)
    # Each block's row sums S_i of sigma(z_ij), then g_i / S_i. Below the
    # floor, sigma has lost relative precision to underflow, so such a
    # block takes the max-shifted softmax of log sigma instead.
    row_sums = np.empty(rows, dtype)
    row_sum_floor = np.finfo(dtype).tiny / np.finfo(dtype).eps
    # Every block's betas are finite-checked before any other check of the
    # run may fail, as when iteration 1 computed them all first. The
    # closed form computes none, so iteration 2 checks them instead.
    betas_checked = False

    def check_betas() -> None:
        nonlocal betas_checked
        if betas_checked:
            return
        betas_checked = True
        for blk in blocks:
            bu, bi = betas(blk)
            _check_step(bu, "beta_use coefficients")
            _check_step(bi, "beta_ign coefficients")

    def sweep(it: int, predicted, closed: bool) -> np.ndarray:
        """One iteration over the blocks; returns its output update."""
        nonlocal betas_checked
        if capture_trace:
            scores_all, routing_all, used_all, ignored_all, credit_all = kept[it - 1]
        else:
            credit_all = final_credit if it == n_iters else None
        if closed:
            # The Gram matrix can overflow where the direct sums do not;
            # the caller then redoes the iteration on the blocks.
            with np.errstate(over="ignore", invalid="ignore"):
                x_closed = _finish_m_step(*_closed_form_sums(x, gates, work, params), n_inp, params)
            if not capture_trace:
                return x_closed
        else:
            pooled = np.zeros((n_out, d_inp), dtype)
            total = np.zeros(n_out, dtype)
        if it > 1:
            # Negation is exact, so scoring against -predicted leaves
            # -z = -(gain * inner + bias) in the scores buffer, bit for
            # bit, and exp(-z) takes one pass. Negated in place, as a copy
            # would raise the peak, and restored after the blocks.
            np.negative(predicted, out=predicted)
        for blk in blocks:
            n = blk.stop - blk.start
            scores, used, ignored, credit, scratch = (block(w, n, n_out) for w in work)
            xb = x[blk]
            g = gates[blk, None]
            bu, bi = betas(blk)
            if not (betas_checked or (np.isfinite(bu).all() and np.isfinite(bi).all())):
                check_betas()
            if it == 1:
                np.multiply(g, prior, out=used)
            else:
                np.matmul(xb, predicted.T, out=scores)
                scores *= gain[blk] if per_row else gain
                scores -= bias[blk] if per_row else bias
                row_sum = row_sums[:n]
                exact = not np.isfinite(scores).all()
                if not exact:
                    # sigma = 1 / (1 + exp(-z)); an overflowed exp gives 0.
                    with np.errstate(over="ignore"):
                        np.exp(scores, out=scratch)
                    scratch += 1.0
                    np.reciprocal(scratch, out=scratch)
                    np.sum(scratch, axis=1, out=row_sum)
                    exact = row_sum.min() < row_sum_floor
                if exact:
                    np.negative(scores, out=scores)
                    _log_logistic_into(scores, scratch)
                    _check_step(scores, "score", it)
                    if capture_trace:
                        scores_all[blk] = scores
                    _softmax_rows_in_place(scores)
                    if capture_trace:
                        routing_all[blk] = scores
                    np.multiply(g, scores, out=used)
                else:
                    if capture_trace:
                        # log sigma(z) in place in the record, with the
                        # credit buffer, not yet written, as its scratch in
                        # the record's layout.
                        record = scores_all[blk]
                        np.negative(scores, out=record)
                        _log_logistic_into(record, work[3, : n * n_out].reshape(n, n_out))
                        np.divide(scratch, row_sum[:, None], out=routing_all[blk])
                    np.divide(gates[blk], row_sum, out=row_sum)  # now g / S
                    np.multiply(scratch, row_sum[:, None], out=used)
            np.subtract(g, used, out=ignored)
            np.multiply(bu, used, out=credit)
            np.multiply(bi, ignored, out=scratch)
            credit -= scratch
            if not closed:
                np.matmul(credit.T, xb, out=pooled_part)
                pooled += pooled_part
                total += credit.sum(axis=0)
            if capture_trace:
                used_all[blk] = used
                ignored_all[blk] = ignored
            if credit_all is not None:
                credit_all[blk] = credit
        if it > 1:
            np.negative(predicted, out=predicted)
        betas_checked = True
        return x_closed if closed else _finish_m_step(pooled, total, n_inp, params)

    records: list[IterationRecord] = []
    x_out = None
    for it in range(1, n_iters + 1):
        predicted = None
        closed = closed_form and it == 1
        try:
            if it > 1:
                predicted = predict_inputs(x_out, params)
                _check_step(predicted, "predict", it)
            x_out = sweep(it, predicted, closed)
            if closed and not np.isfinite(x_out).all():
                # The direct pass also checks the betas first.
                x_out = sweep(it, None, False)
            _check_step(x_out, "output update", it)
        except NumericError:
            check_betas()
            raise
        if capture_trace:
            scores_all, routing_all, used_all, ignored_all, credit_all = kept[it - 1]
            records.append(
                IterationRecord(
                    routing=DenseTensor(routing_all, copy=False),
                    scores=None if scores_all is None else DenseTensor(scores_all, copy=False),
                    predicted=None if predicted is None else DenseTensor(predicted, copy=False),
                    share_used=DenseTensor(used_all, copy=False),
                    share_ignored=DenseTensor(ignored_all, copy=False),
                    credit=DenseTensor(credit_all, copy=False),
                    output=DenseTensor(x_out, copy=True),
                )
            )

    if capture_trace:
        trace = RoutingTrace(
            activation_scores=DenseTensor(raw, copy=False),
            activation_gates=DenseTensor(gates, copy=False),
            iterations=tuple(records),
            final_credit=records[-1].credit,
        )
    else:
        trace = RoutingTrace(
            activation_scores=None,
            activation_gates=None,
            iterations=(),
            final_credit=DenseTensor(final_credit, copy=False),
        )
    return DenseTensor(x_out, copy=False), trace


def materialized_votes(x_inp: np.ndarray, params: RoutingParams) -> DenseTensor:
    """Explicit proposal tensor (n_inp, n_out, d_out) for small instances.

    Builds what :func:`route_optimized` deliberately avoids, so the two
    execution orders can be compared. Memory is O(n_inp * n_out * d_out);
    use only at test scale.
    """
    scale = _scale(x_inp.shape[0], x_inp.dtype)
    # The optimized contraction may hand back a strided view; the in-place
    # updates and the zero-copy tensor wrap both need an owned C buffer.
    votes = np.ascontiguousarray(
        np.einsum(
            "id,jd,dh->ijh",
            x_inp,
            params.vote_mix.array,
            params.vote_proj.array,
            optimize=True,
        )
    )
    votes *= scale
    votes += params.vote_bias.array[None, :, :]
    return DenseTensor(votes, copy=False, context="materialized votes")


def votes_for_input(x_inp: np.ndarray, index: int, params: RoutingParams) -> np.ndarray:
    """Proposals of one input vector, shape (n_out, d_out).

    Lets streaming checks walk the implicit tensor row by row without
    ever holding more than one input's proposals.
    """
    scale = _scale(x_inp.shape[0], x_inp.dtype)
    mixed = params.vote_mix.array * x_inp[index][None, :]
    return (mixed @ params.vote_proj.array) * scale + params.vote_bias.array


def as_plugins(x_inp: np.ndarray, params: RoutingParams) -> tuple[PluggableNetworks, BetaPair]:
    """Bridge this parameterization into the general router's plugin slots.

    Feeding the result to :func:`vecroute.reference.route_reference` runs
    the identical model through the proposal-materializing path, which is
    the equivalence oracle for :func:`route_optimized`. The returned
    coefficient pair is bound to ``x_inp`` (variable mode derives it from
    the data), so pass the same input to both routers.
    """
    nets = PluggableNetworks(
        activations=lambda xx: activation_scores(xx, params),
        votes=lambda xx: materialized_votes(xx, params).array,
        predict=lambda x_out: predict_inputs(x_out, params),
        score=lambda xx, predicted: score_predictions(xx, predicted, params),
    )
    return nets, beta_pair_for(x_inp, params)


def vote_param_count(dims: RoutingDims) -> int:
    """Parameters in the factored proposal network.

    The mixing table, the shared projection, and the bias table:
    n_out * d_inp + d_inp * d_out + n_out * d_out.
    """
    return (
        dims.n_out * dims.d_inp
        + dims.d_inp * dims.d_out
        + dims.n_out * dims.d_out
    )


@dataclass(frozen=True)
class VoteParamBudget:
    """Factored proposal parameter count next to the unfactored baselines.

    ``full_naive`` keys a separate linear map by (input, output) pair;
    ``shared_naive`` shares one map across inputs but still keys a full
    d_inp x d_out matrix by output.
    """

    factored: int
    shared_naive: int
    full_naive: int


def vote_param_budget(dims: RoutingDims, n_inp: int | None = None) -> VoteParamBudget:
    rows = dims.n_inp if n_inp is None else n_inp
    if rows is None:
        raise ValueError("variable-length dims need an explicit n_inp for the naive counts")
    return VoteParamBudget(
        factored=vote_param_count(dims),
        shared_naive=dims.n_out * dims.d_inp * dims.d_out,
        full_naive=rows * dims.n_out * dims.d_inp * dims.d_out,
    )


def total_param_count(params: RoutingParams) -> int:
    """Total scalar parameters across every tensor in the set."""
    return sum(t.size for _, t in params.field_items())


# Documented ceiling on transient allocations of route_optimized with the
# trace off, in array elements (multiply by dtype itemsize for bytes).
# Input-sized (n_inp * d_inp, which also covers every n_inp-sized
# vector) and output-sized (n_out * (d_inp + d_out)) intermediates share
# one factor that absorbs their simultaneously live generations. The only
# routing-pair-sized (n_inp * n_out) array is the returned final credit,
# counted twice for headroom; pair-dominated shapes measure at most 1.14
# pair arrays. The block workspace is seven arrays (five in fixed mode)
# of one block, rows * n_out elements, which is at most
# max(BLOCK_ELEMENTS, n_out) however long the sequence and less when the
# whole sequence fits in one block. The variable layout's closed-form
# first iteration adds no term: its gated inputs reuse the block
# workspace, and it runs only when d_inp < 3 * n_out, which makes its
# (d_inp + 1) * d_inp Gram matrix and (d_inp + 1) * n_out coefficients
# output-sized. The floor covers interpreter-level overhead that
# dominates at toy sizes. Measured over fixed and variable shapes from
# 1x1x1x1 up to 100000x16x64x64 and 3000x100000x2x2 (float32), the peak
# reaches at most half the bound. The bound assumes capture_trace off;
# trace capture retains every iteration. The test suite asserts measured
# peaks stay under this bound.
TRANSIENT_ELEMENT_BOUND_FACTOR = 16
TRANSIENT_PAIR_FACTOR = 2
TRANSIENT_BLOCK_FACTOR = 8
TRANSIENT_ELEMENT_BOUND_FLOOR = 16384


def transient_element_bound(n_inp: int, n_out: int, d_inp: int, d_out: int) -> int:
    """Max array elements route_optimized may allocate, trace off.

    Notably independent of n_inp * n_out * d_out: the proposal tensor
    never exists, so the bound carries no triple product.
    """
    return (
        TRANSIENT_ELEMENT_BOUND_FLOOR
        + TRANSIENT_ELEMENT_BOUND_FACTOR * (n_inp * d_inp + n_out * (d_inp + d_out))
        + TRANSIENT_PAIR_FACTOR * n_inp * n_out
        + TRANSIENT_BLOCK_FACTOR * min(n_inp * n_out, max(BLOCK_ELEMENTS, n_out))
    )
