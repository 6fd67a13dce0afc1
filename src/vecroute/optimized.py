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
n_out) input rows. A block computes its stages in place in a workspace
of four block-sized slots, checks them for non-finite values once, and adds
its ``credit.T @ x`` and ``credit.sum(0)`` into the output-sized
partials that the M-step finishes once per iteration. With the trace off
the only routing-pair-sized (n_inp * n_out) array is the returned final
credit and the only input-sized (n_inp) one the gates; everything else
is block-sized or output-sized (n_out * max(d_inp, d_out)). The public
stage functions
(:func:`activation_scores`, :func:`beta_pair_for`, :func:`predict_inputs`,
:func:`score_predictions`, :func:`m_step_factored`) still take and return
whole arrays; :func:`as_plugins` hands them to the reference router.

Two parameter layouts are supported. Fixed-length mode keys activation,
score, and use/ignore coefficients by input position, so n_inp is baked
into the parameter shapes. Variable-length mode drops the input index
from every parameter and instead derives the per-pair use/ignore
coefficients from the input vectors themselves, one block at a time, so
one parameter set serves any sequence length. Each layout is one ordered
table of (name, shape, init) rows, ``_LAYOUTS`` below; the parameter
names, shapes, initialization, validation and file layout all derive
from it. The router picks one block kernel per call from the layout
(``_FixedBlocks``, ``_VariableBlocks``). The kernel owns the block
orientation, iteration 1's credit, a later block's coefficients and
scores, and the coefficients' finite check; the loop that drives it has
no layout branch. Fixed-layout blocks are row-major, the layout of its
per-pair tables. Variable-layout blocks are output-major, so reductions
and broadcasts over the outputs run along long contiguous runs even when
n_out is small. A block writes its shares and credit into a kept
pair-sized array itself when its blocks are row-major like that array,
and otherwise into its workspace slots, copied in after the block.

Iteration 1 routes every input to every output with the flat prior
p = 1/n_out, so its credit is g_i * (p * bu_ij - (1 - p) * bi_ij),
without the shares. Each product is taken separately, so the credit is
finite wherever the coefficients are. The fixed layout takes it per
block from its stored tables. In the variable layout it is linear in
the input, credit[i, j] = g_i * (x_i . w1_j + c1_j), with w1 = p * W_use
- (1 - p) * W_ign and c1 = p * b_use - (1 - p) * b_ign, the same formula
applied to the weights, so a block takes it from one n_out-column matmul
against w1, a bias pass and a gate pass, without the coefficients. Its
pooled sums need only the gated Gram matrix G = sum_i g_i x_i x_i^T and
s = sum_i g_i x_i:

    pooled = (G w1)^T + c1 s^T,    total = w1^T s + c1 * sum_i g_i

Accumulating G costs 2 * d_inp**2 flops per input; its one-off
n_out * d_inp**2 term is the size of the M-step's own projection matmul,
so the count leaves it out. :func:`route_optimized` takes the closed
form exactly when d_inp < 3 * n_out, an operation count on the input's
shape, not a setting: it weighs G against a block path of about
6 * n_out * d_inp flops (two coefficient sets and the pooling matmul).
The linear block path costs about 4 * n_out * d_inp plus three
pair-sized passes, and measures about as fast as the closed form for
2 * n_out <= d_inp < 3 * n_out. Neither variable-layout form computes
the coefficients, and no block scans them: a non-finite one makes its
credit non-finite (inf * 0 is NaN), which fails iteration 2's output
update check (the last paragraph). Any failure checks the coefficients
first, so errors name the same stage as when iteration 1 computed them;
past iteration 2 they are finite, and a failure keeps its own message.
The linear form can overflow where the coefficients do not, and G where
the direct sums do not, so a non-finite closed-form output redoes
iteration 1 on the blocks.

Every later iteration routes input i by the softmax over outputs of its
log-logistic scores, softmax_j(log sigma(z_ij)) with z = gain * inner +
bias. A block takes its coefficients and its inner products from one
matmul against [W_use | W_ign | -predicted^T] (against -predicted^T
alone in the fixed layout). Negation is exact, so -z = -(gain * inner
+ bias) lands in the score columns bit for bit. The softmax is
sigma(z_ij) / S_i with S_i = sum_j sigma(z_ij), so a block computes
sigma once and scales each row by g_i / S_i, which folds the gate in
too: five pair-sized passes (exp, +1, reciprocal, row sum, row scale),
where the log-logistic, the max-shifted softmax and the gate taken one
by one need twelve. The first three are the kernel that also computes
the gates, sigma = 1 / (1 + exp(-z)) from -z, where an overflowing exp
gives sigma = 0. z = +inf gives sigma = 1, the score 0 of the
log-logistic; z = -inf and NaN raise. A row whose S_i falls below
tiny / eps of the dtype (every sigma of the row near or past underflow)
is rescued: it takes the max-shifted softmax of z, on a copy of just the
rescued rows, with S_i = 1. Below that floor log sigma(z) rounds to z,
so the rescue is the softmax of the scores, at full precision. The
floor is a property of the dtype, not a setting. A trace records
log sigma(z) as the scores and sigma / S as the routing; the outputs do
not depend on whether it is on.

Each workspace slot is overwritten in place once the value it holds is
dead, so a later block needs four block-sized arrays:

    slot 0: bu, then the credit (bu * used, then minus slot 1)
    slot 1: bi, then bi * ignored
    slot 2: -z, then the ignored shares, once the rescue has read -z
    slot 3: sigma, then the used shares

The variable layout's matmul writes (bu | bi | -z) straight into slots
0-2. Its output-major block views keep a full block's leading
dimension, so column group k starts at slot k in a ragged last block
too, and each in-place product meets its output as the very same view;
a view that only partly overlapped its output would make numpy copy the
operand first. The fixed layout's tables stand in for bu and bi, and a
row-major trace writes the shares and credit into its records, so it
keeps only -z and sigma, and takes bi * ignored where sigma was.
Iteration 1 uses the same slots: its credit in slot 0, (1 - p) * bi in
slot 1 (fixed layout) and, traced, its shares in slots 3 and 2.

A trace costs its record writes and little more. log sigma(z) =
-log1p(e^(-z)) comes from the e^(-z) the sigma kernel already holds, in
two passes (z itself where e^(-z) overflows). Fixed-layout blocks
compute their shares and credit in the records themselves (the write
rule above). The records but the final credit share a few allocations
(``_TRACE_CHUNK_BYTES``), so that repeated traced calls reuse heap
memory instead of faulting in fresh pages.

Each value is checked for non-finite values once. IEEE arithmetic
propagates them (inf * 0 and inf - inf are NaN), so one check covers
every value that is a term of the array it scans. x_ik is a summand of
input i's activation score, so the activations check covers the input,
and x_inp is scanned only once that check fails, to name the input.
Routing, shares and scores are finite by construction (sigma <= 1,
S_i >= tiny / eps, gates in [0, 1], a rescued row is the softmax of a
finite z). Every credit array that a block pools, each traced record
and the returned final credit, feeds total_j = sum_i credit_ij and so,
through total_j * vote_bias_j, every entry of output row j, so the
iteration's output update check fails first on a non-finite one. The
closed form's iteration 1 pools no block: its output's own isfinite
test, which picks the fallback, is its check, and it scans its traced
credit record. The next prediction reads the checked output unscanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .reference import (
    BetaPair,
    IterationRecord,
    PluggableNetworks,
    RoutingDims,
    RoutingTrace,
)
from .tensor import (
    DenseTensor,
    NumericError,
    ShapeError,
    _check_finite,
    _float_array,
    _logistic_of_negated_into,
    _softmax_rows_in_place,
    log_logistic,
    logistic,
    normalize_vectors,
)

__all__ = [
    "BLOCK_ELEMENTS",
    "TRANSIENT_ELEMENT_BOUND_FACTOR",
    "RoutingParams",
    "VoteParamBudget",
    "activation_scores",
    "as_plugins",
    "beta_pair_for",
    "field_shapes",
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

# Elements (rows * n_out) of one block of the routing loop: 448 KiB per
# float32 array, so the four slots of a block's workspace (1.75 MiB) fit
# a 2 MiB per-core L2 cache. Each block costs a fixed number of numpy
# calls and a BLAS call or two, so the largest block that fits is fastest.
BLOCK_ELEMENTS = 114688

# Largest allocation a trace's records share (the final credit, which a
# caller may keep alone, has its own). glibc's malloc maps a request
# above its mmap threshold afresh; freeing such a mapping of at most
# 32 MiB raises that threshold to its size and the heap's trim threshold
# to twice it. So after the first traced call, later traces come from
# the heap, and a dropped trace under twice this size stays there for
# the next call instead of going back to the system to be faulted in
# again. Records allocated one by one keep the trim threshold low, and a
# dropped trace is handed back whenever nothing live sits above it.
_TRACE_CHUNK_BYTES = 31 * 2**20


class FanIn(NamedTuple):
    """Init rule: a zero-mean normal draw with standard deviation
    1/sqrt(extent), where ``extent`` is the fan-in (the number of summands
    feeding one element of the op that consumes the tensor), named as a
    RoutingDims field or given as a count."""

    extent: str | int


# The parameter layouts: one ordered table of (name, shape, init) per
# layout. Names, shapes, initialization, validation, the file layout and
# parameter counting all derive from these tables, and serialization and
# the initialization draw order follow their row order, so it must never
# be permuted (docs/param-format.md). A shape names RoutingDims fields.
# The variable layout has n_inp None and so drops the input index from
# every parameter; a parameter left with no index (act_bias) is stored
# as shape (1,) so every parameter is a tensor. ``init`` is a FanIn draw
# or a constant fill: biases start at 0, and the use/ignore coefficients
# at the neutral point (use 1, ignore 0) where routing behaves like plain
# associative recall.
_SHARED_FIELDS = (
    ("act_weight", ("n_inp", "d_inp"), FanIn("d_inp")),
    ("act_bias", ("n_inp",), 0.0),
    ("vote_mix", ("n_out", "d_inp"), FanIn("d_inp")),
    ("vote_proj", ("d_inp", "d_out"), FanIn("d_inp")),
    ("vote_bias", ("n_out", "d_out"), 0.0),
    ("pred_proj", ("d_out", "d_inp"), FanIn("d_out")),
    ("pred_gate", ("n_out", "d_inp"), FanIn(1)),  # an elementwise gain
    ("pred_bias", ("n_out", "d_inp"), 0.0),
    ("score_gain", ("n_inp", "n_out"), FanIn("d_inp")),
    ("score_bias", ("n_inp", "n_out"), 0.0),
)
_LAYOUTS = {
    # Per-pair use/ignore coefficient tables.
    "fixed": _SHARED_FIELDS
    + (
        ("beta_use", ("n_inp", "n_out"), 1.0),
        ("beta_ign", ("n_inp", "n_out"), 0.0),
    ),
    # Per-output linear maps that derive the coefficients from each input;
    # zero weights start every input at the fixed layout's neutral point.
    "variable": _SHARED_FIELDS
    + (
        ("beta_use_weight", ("d_inp", "n_out"), 0.0),
        ("beta_use_bias", ("n_out",), 1.0),
        ("beta_ign_weight", ("d_inp", "n_out"), 0.0),
        ("beta_ign_bias", ("n_out",), 0.0),
    ),
}


def _mode(dims: RoutingDims) -> str:
    return "variable" if dims.variable_length else "fixed"


def _layout(dims: RoutingDims) -> tuple[tuple[str, tuple[int, ...], FanIn | float], ...]:
    """The layout table ``dims`` selects, with extents resolved to numbers."""

    def extent(axis: str | int) -> int | None:
        return getattr(dims, axis) if isinstance(axis, str) else axis

    return tuple(
        (
            name,
            tuple(e for e in map(extent, axes) if e is not None) or (1,),
            FanIn(extent(init.extent)) if isinstance(init, FanIn) else init,
        )
        for name, axes, init in _LAYOUTS[_mode(dims)]
    )


def field_shapes(dims: RoutingDims) -> dict[str, tuple[int, ...]]:
    """Name -> required shape, in canonical order, for the layout ``dims`` selects."""
    return {name: shape for name, shape, _ in _layout(dims)}


@dataclass(frozen=True, init=False)
class RoutingParams:
    """One complete parameter set for the concrete router.

    ``RoutingParams(dims, **tensors)`` takes exactly the names of the
    layout ``dims`` selects, each a DenseTensor or array of the table's
    shape, all of one dtype (float32 by default, float64 for
    high-precision cross-checks). The tensors read as attributes
    (``params.vote_mix``) or from ``tensors`` in canonical order.
    ``dims`` rides along so a parameter set is self-describing.
    """

    dims: RoutingDims
    tensors: Mapping[str, DenseTensor]

    def __init__(self, dims: RoutingDims, **tensors):
        shapes = field_shapes(dims)
        if tensors.keys() != shapes.keys():
            missing = sorted(shapes.keys() - tensors.keys())
            extra = sorted(tensors.keys() - shapes.keys())
            raise ValueError(f"parameter names mismatch: missing {missing}, extra {extra}")
        checked = {}
        for name, shape in shapes.items():
            value = tensors[name]
            if not isinstance(value, DenseTensor):
                value = DenseTensor(value, context=name)
            if value.shape != shape:
                raise ShapeError(f"{name} shape {value.shape} != required {shape}")
            checked[name] = value
        dtypes = {t.dtype for t in checked.values()}
        if len(dtypes) != 1:
            raise ValueError(f"parameters mix dtypes {sorted(str(d) for d in dtypes)}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "tensors", MappingProxyType(checked))

    def __getattr__(self, name: str) -> DenseTensor:
        # Reached only for names that are not attributes: the tensors.
        tensors = self.__dict__.get("tensors", {})
        if name in tensors:
            return tensors[name]
        raise AttributeError(f"RoutingParams has no attribute {name!r}")

    @property
    def mode(self) -> str:
        return _mode(self.dims)

    @property
    def dtype(self) -> np.dtype:
        return self.vote_mix.dtype

    def field_items(self) -> tuple[tuple[str, DenseTensor], ...]:
        """(name, tensor) pairs in the canonical order for this layout."""
        return tuple(self.tensors.items())

    def astype(self, dtype) -> "RoutingParams":
        return RoutingParams(
            self.dims, **{name: t.astype(dtype) for name, t in self.tensors.items()}
        )


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


def predict_inputs(x_out: np.ndarray | DenseTensor, params: RoutingParams) -> np.ndarray:
    """Map output states back to predicted inputs, shape (n_out, d_inp).

    Output rows are normalized to zero mean and unit variance before the
    two-factor linear map, so prediction depends on output direction, not
    the magnitudes the update sums produce. An array ``x_out`` is checked
    for non-finite values; a DenseTensor was checked when it was built.
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


def _flat_prior_credit(
    use: np.ndarray, ign: np.ndarray, p: np.generic, out: np.ndarray, scratch: np.ndarray
) -> None:
    """p * use - (1 - p) * ign into ``out``: iteration 1's credit per unit gate.

    Each product is taken separately, so the result, a convex combination
    of use and -ign, is finite wherever both are.
    """
    np.multiply(use, p, out=out)
    np.multiply(ign, 1 - p, out=scratch)
    out -= scratch


def _first_iteration_weights(params: RoutingParams) -> np.ndarray:
    """[w1; c1], shape (d_inp + 1, n_out): iteration 1's credit is
    g_i * (x_i . w1 + c1) in the variable layout (see the module docstring)."""
    d, n_out = params.dims.d_inp, params.dims.n_out
    p = params.dtype.type(1.0 / n_out)
    w = np.empty((d + 1, n_out), params.dtype)
    scratch = np.empty_like(w)
    for rows, use, ign in (
        (slice(d), params.beta_use_weight, params.beta_ign_weight),
        (d, params.beta_use_bias, params.beta_ign_bias),
    ):
        _flat_prior_credit(use.array, ign.array, p, w[rows], scratch[rows])
    return w


def _closed_form_sums(
    x: np.ndarray, gates: np.ndarray, work: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Iteration 1's (pooled, total) sums from its weights ``w`` = [w1; c1].

    pooled = w^T [G; s^T] and total = w1^T s + c1 * sum_i g_i. G is
    accumulated over blocks of as many rows as ``work`` holds, each
    block's gated inputs written into it.
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
    total = gram[d] @ w[:d]
    total += w[d] * gates.sum()
    return w.T @ gram, total


class _FixedBlocks:
    """Block kernel of the fixed layout: row-major blocks, stored tables."""

    row_major = True
    closed_form = False
    first = None  # iteration 1 takes its credit from the tables

    def __init__(self, params: RoutingParams, x: np.ndarray, blocks: list[slice], work: np.ndarray):
        n_out = params.dims.n_out
        self.use, self.ign = params.beta_use.array, params.beta_ign.array
        self.gain, self.bias = params.score_gain.array, params.score_bias.array
        self.prior = params.dtype.type(1.0 / n_out)
        self.x, self.work = x, work
        self.weight = np.empty((params.dims.d_inp, n_out), params.dtype)  # -predicted^T

    @staticmethod
    def block(buffer: np.ndarray, n: int, cols: int) -> np.ndarray:
        return buffer[: n * cols].reshape(n, cols)

    def first_credit(self, blk: slice, credit: np.ndarray, scratch: np.ndarray) -> None:
        _flat_prior_credit(self.use[blk], self.ign[blk], self.prior, credit, scratch)

    def later_block(self, blk: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # -z in slot 2 (the first of a traced workspace's two); the tables
        # stand in for slots 0 and 1.
        neg_z = self.block(self.work[-2], blk.stop - blk.start, self.weight.shape[1])
        np.matmul(self.x[blk], self.weight, out=neg_z)
        neg_z *= self.gain[blk]
        neg_z -= self.bias[blk]
        return self.use[blk], self.ign[blk], neg_z

    def check_betas(self) -> None:
        """Nothing to do: the tables were checked with the parameters."""


class _VariableBlocks:
    """Block kernel of the variable layout: output-major blocks, coefficients
    from each block's inputs (see the module docstring)."""

    row_major = False

    def __init__(self, params: RoutingParams, x: np.ndarray, blocks: list[slice], work: np.ndarray):
        dims, dtype = params.dims, params.dtype
        n_out = self.n_out = dims.n_out
        self.params, self.x, self.blocks, self.work = params, x, blocks, work
        self.closed_form = dims.d_inp < 3 * n_out
        # [W_use | W_ign | -predicted^T]; the score columns are written per iteration.
        self.weight = np.empty((dims.d_inp, 3 * n_out), dtype)
        self.weight[:, :n_out] = params.beta_use_weight.array
        self.weight[:, n_out : 2 * n_out] = params.beta_ign_weight.array
        self.beta_bias = np.concatenate([params.beta_use_bias.array, params.beta_ign_bias.array])
        self.gain, self.bias = params.score_gain.array, params.score_bias.array
        # Overflow here surfaces as a non-finite iteration 1.
        with np.errstate(over="ignore", invalid="ignore"):
            self.first = _first_iteration_weights(params)

    @staticmethod
    def block(buffer: np.ndarray, n: int, cols: int) -> np.ndarray:
        # Leading dimension of a full block, so that column group k of a
        # view over several slots starts at slot k in a ragged block too.
        return buffer.reshape(cols, -1)[:, :n].T

    def first_credit(self, blk: slice, credit: np.ndarray, scratch: np.ndarray) -> None:
        np.matmul(self.x[blk], self.first[:-1], out=credit)
        credit += self.first[-1]

    def later_block(self, blk: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (bu | bi | -inner) in workspace slots 0-2, from one matmul.
        coef = self.block(self.work[:3], blk.stop - blk.start, self.weight.shape[1])
        np.matmul(self.x[blk], self.weight, out=coef)
        coef[:, : 2 * self.n_out] += self.beta_bias
        bu, bi, neg_z = np.split(coef, 3, axis=1)
        neg_z *= self.gain
        neg_z -= self.bias
        return bu, bi, neg_z

    def check_betas(self) -> None:
        """Finite-check every block's coefficients, in block order."""
        for blk in self.blocks:
            beta_pair_for(self.x[blk], self.params)


def route_optimized(
    x_inp,
    params: RoutingParams,
    capture_trace: bool = False,
) -> tuple[DenseTensor, RoutingTrace]:
    """Run the routing loop without materializing proposals.

    ``x_inp`` is an (n_inp, d_inp) array of the parameters' dtype; the
    fixed layout needs n_inp to match its tables. Its rank, extents and
    dtype are checked before its values. Returns the
    (n_out, d_out) outputs and a :class:`RoutingTrace`. The outputs do
    not depend on ``capture_trace``; the module docstring derives how they
    are computed. With the trace off (the default, and the configuration
    that :func:`transient_element_bound` covers), the trace carries only
    the final credit; a block's intermediates live in one reused block
    workspace, and the activation scores are dropped once the gates
    exist. With it on, the trace also holds the activation scores and
    gates and every iteration's scores, routing, shares, credit,
    prediction and output, O(n_iters * n_inp * n_out) memory. The records
    but the final credit are views of a few shared allocations, so one
    kept after its trace is dropped keeps its allocation alive.
    """
    x = _float_array(x_inp)  # its values are checked through the activations
    if x.ndim != 2:
        raise ShapeError(f"x_inp must be rank 2, got rank {x.ndim}")
    dims = params.dims
    n_inp, d_inp = x.shape
    if n_inp == 0:
        raise ShapeError("x_inp has 0 rows; routing needs at least one input")
    if dims.n_inp not in (None, n_inp):
        raise ShapeError(f"x_inp has {n_inp} rows, params fix n_inp={dims.n_inp}")
    if d_inp != dims.d_inp:
        raise ShapeError(f"x_inp has {d_inp} columns, params fix d_inp={dims.d_inp}")
    if x.dtype != params.dtype:
        raise TypeError(f"x_inp dtype {x.dtype} != parameter dtype {params.dtype}")
    n_out, n_iters, dtype = dims.n_out, dims.n_iters, x.dtype

    try:
        # inf * 0 is NaN without a warning here: the check below names it.
        with np.errstate(over="ignore", invalid="ignore"):
            raw = activation_scores(x, params)
        _check_finite(raw, "activations")
    except NumericError:
        _check_finite(x, "x_inp")  # a non-finite input is named first
        raise
    gates = np.asarray(logistic(raw))
    if not capture_trace:
        raw = None  # so only the gates stay input-sized beside the credit

    rows = min(n_inp, max(1, BLOCK_ELEMENTS // n_out))
    blocks = [slice(i, min(i + rows, n_inp)) for i in range(0, n_inp, rows)]
    prior = dtype.type(1.0 / n_out)
    # Each iteration's kept arrays, by IterationRecord field: every
    # record field when tracing, else the last iteration's credit alone.
    # The pair-sized ones come before the block workspace, so the space
    # the workspace frees lies above them. Allocated after it, a dropped
    # trace left the top of the heap free, so the heap went back to the
    # system and the next call faulted it in again: a third of the time
    # of a traced three-stage chain. For the same reason the records but
    # the final credit share allocations of at most _TRACE_CHUNK_BYTES.
    pair = (n_inp, n_out)
    if capture_trace:
        n_shared = 5 * n_iters - 2
        per_chunk = max(1, _TRACE_CHUNK_BYTES // (n_inp * n_out * dtype.itemsize))
        shared = (
            record
            for start in range(0, n_shared, per_chunk)
            for record in np.empty((min(per_chunk, n_shared - start),) + pair, dtype)
        )
        kept = [
            {
                "scores": None if it == 1 else next(shared),
                "routing": next(shared),
                "share_used": next(shared),
                "share_ignored": next(shared),
                "credit": np.empty(pair, dtype) if it == n_iters else next(shared),
                "predicted": None,
            }
            for it in range(1, n_iters + 1)
        ]
        kept[0]["routing"].fill(prior)  # iteration 1 routes by the flat prior
    else:
        kept = [{} for _ in range(1, n_iters)] + [{"credit": np.empty(pair, dtype)}]
    kernel_type = _VariableBlocks if dims.variable_length else _FixedBlocks
    # The block workspace: four slots, each reused once its value is dead
    # (the module docstring's table). The closed form borrows it for gated
    # inputs. A row-major trace writes its shares and credit into the
    # records, so it needs only -z and sigma, then bi * ignored in sigma's.
    work = np.empty((2 if kernel_type.row_major and capture_trace else 4, rows * n_out), dtype)
    kernel = kernel_type(params, x, blocks, work)
    pooled_part = np.empty((n_out, d_inp), dtype)
    row_sums = np.empty(rows, dtype)  # each block's S_i, then g_i / S_i
    row_sum_floor = np.finfo(dtype).tiny / np.finfo(dtype).eps

    def sweep(rec: dict, it: int, closed: bool) -> np.ndarray:
        """One iteration over the blocks; returns its output update, checked."""
        if closed:
            x_closed = _finish_m_step(*_closed_form_sums(x, gates, work, kernel.first), n_inp, params)
            closed = np.isfinite(x_closed).all()  # else redone on the blocks
            if closed and not rec:
                return x_closed
        pooled = np.zeros((n_out, d_inp), dtype)
        total = np.zeros(n_out, dtype)
        scores, routing = rec.get("scores"), rec.get("routing")
        wholes = (rec.get("share_used"), rec.get("share_ignored"), rec.get("credit"))
        for blk in blocks:
            n = blk.stop - blk.start
            xb, g = x[blk], gates[blk, None]
            # Where a block writes: into a kept array itself when the
            # blocks are row-major like it, else into its workspace slot,
            # copied in after the block.
            used, ignored, credit = (
                whole[blk] if kernel.row_major and whole is not None else kernel.block(work[k], n, n_out)
                for k, whole in zip((3, 2, 0), wholes)
            )
            product = kernel.block(work[1], n, n_out)  # bi * ignored
            if it == 1:
                kernel.first_credit(blk, credit, product)
                credit *= g
                if routing is not None:
                    np.multiply(g, prior, out=used)
                    np.subtract(g, used, out=ignored)
            else:
                bu, bi, neg_z = kernel.later_block(blk)
                if not neg_z.max() < np.inf:
                    raise NumericError(f"non-finite values in score at iteration {it}")
                sigma = kernel.block(work[-1], n, n_out)
                _logistic_of_negated_into(neg_z, sigma, None if scores is None else scores[blk])
                row_sum = row_sums[:n]
                np.sum(sigma, axis=1, out=row_sum)
                low = np.flatnonzero(row_sum < row_sum_floor)
                if low.size:
                    rescued = np.negative(neg_z[low])
                    _softmax_rows_in_place(rescued)
                    sigma[low] = rescued
                    row_sum[low] = 1.0
                if routing is not None:
                    np.divide(sigma, row_sum[:, None], out=routing[blk])
                np.divide(gates[blk], row_sum, out=row_sum)
                # Each result overwrites the slot of an operand dead from here on.
                np.multiply(sigma, row_sum[:, None], out=used)
                np.subtract(g, used, out=ignored)
                np.multiply(bu, used, out=credit)
                np.multiply(bi, ignored, out=product)
                credit -= product
            if not closed:
                np.matmul(credit.T, xb, out=pooled_part)
                pooled += pooled_part
                total += credit.sum(axis=0)
            if not kernel.row_major:
                for whole, computed in zip(wholes, (used, ignored, credit)):
                    if whole is not None:
                        whole[blk] = computed
        if closed:
            # Pooled by no block, so no output update check covers it.
            _check_finite(rec["credit"], "credit", it)
            return x_closed
        x_out = _finish_m_step(pooled, total, n_inp, params)
        _check_finite(x_out, "output update", it)
        return x_out

    records: list[IterationRecord] = []
    for it, rec in enumerate(kept, start=1):
        try:
            if it == 1:
                with np.errstate(over="ignore", invalid="ignore"):
                    x_out = sweep(rec, it, kernel.closed_form)
                kernel.first = None  # output-sized, and needed no more
            else:
                predicted = predict_inputs(output, params)  # a tensor: not scanned again
                _check_finite(predicted, "predict", it)
                np.negative(predicted.T, out=kernel.weight[:, -n_out:])  # the score columns
                if capture_trace:
                    rec["predicted"] = predicted
                del predicted  # its negated copy in the weight serves the blocks
                x_out = sweep(rec, it, False)
        except NumericError:
            kernel.check_betas()  # a bad coefficient is named first (module docstring)
            raise
        # Adopted unscanned: the module docstring says which check proves
        # each finite; the prediction and the output passed their own.
        output = DenseTensor._adopt(x_out)
        rec = {name: None if a is None else DenseTensor._adopt(a) for name, a in rec.items()}
        if capture_trace:
            records.append(IterationRecord(output=output, **rec))

    trace = RoutingTrace(
        # Checked by "activations" above; the gates are sigma in [0, 1].
        activation_scores=None if raw is None else DenseTensor._adopt(raw),
        activation_gates=DenseTensor._adopt(gates) if capture_trace else None,
        iterations=tuple(records),
        final_credit=rec["credit"],
    )
    return output, trace


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
# pair arrays. The block workspace is four arrays of one block, rows *
# n_out elements, which is at most max(BLOCK_ELEMENTS, n_out) however
# long the sequence and less when the whole sequence fits in one block,
# so the block factor leaves headroom too. The variable layout's closed-form
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
