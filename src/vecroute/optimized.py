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

Every step of an iteration except that contraction is local to one input
row: the use/ignore coefficients, the agreement score, the routing over
outputs, the shares and the credit. :func:`route_optimized` therefore
runs each iteration over blocks of input rows. A block computes its
stages in place in a workspace of one or three block-sized slots, checks
them for non-finite values once, and adds its ``credit.T @ x`` and its
column totals into the output-sized partials that the M-step finishes
once per iteration; the n_out x d_inp product goes into workspace the
block has left dead, where it fits (below). With the trace off the only
routing-pair-sized (n_inp * n_out) array is the returned final credit.
Beside it the activation scores, then the gates, take one input-sized
(n_inp) array or the credit's unwritten tail. Everything else is
block-sized or output-sized (n_out * max(d_inp, d_out)). The public
stage functions (:func:`activation_scores`, :func:`beta_pair_for`,
:func:`predict_inputs`, :func:`score_predictions`,
:func:`m_step_factored`) still take and return whole arrays;
:func:`as_plugins` hands them to the reference router.

Two parameter layouts are supported. Fixed-length mode keys activation,
score, and use/ignore coefficients by input position, so n_inp is baked
into the parameter shapes. Variable-length mode drops the input index
from every parameter and instead derives the per-pair use/ignore
coefficients from the input vectors themselves, one block at a time, so
one parameter set serves any sequence length. Each layout is one ordered
table of (name, shape, init) rows, ``_LAYOUTS`` below; the parameter
names, shapes, initialization, validation and file layout all derive
from it. A call takes each decision its shapes decide once, in one plan
(``_Plan``, which documents each rule), the layout's block kernel
(``_FixedBlocks``, ``_VariableBlocks``) among them. The kernel owns the
block orientation, a block's coefficients and scores, the coefficients'
finite check and its iteration 1's shares or credit. The loop that
drives the kernel has neither a layout branch nor an iteration-1 case:
each iteration predicts from the output before it, if there is one, and
then sweeps the blocks. Fixed-layout blocks are row-major, the layout of
its per-pair tables. Variable-layout blocks are output-major, so
reductions and broadcasts over the outputs run along long contiguous
runs even when n_out is small. A block computes its shares in its
workspace, and a record that keeps them takes a copy of its rows. Only a
row-major block computes its credit in place, in the rows of a kept
credit, which is row-major too; an output-major block computes it in a
slot and copies it in. A fixed-layout call computes each earlier
iteration's credit in the final credit's rows too, which its last
iteration overwrites; in a replay (below) each iteration writes the rows
of its own credit record.

Iteration 1 routes every input to every output with the flat prior
p = 1/n_out: its used shares are the column g * p and its ignored shares
g - g * p. In the fixed layout it is the flat-prior case of a later
block, whose tail (below) takes that column for sigma * g / S: the
credit bu * (g * p) - bi * (g - g * p), the reference's products in the
reference's order. Each product is taken separately, so that credit is
finite wherever the coefficients are, but for rounding at the top of
the range. The variable kernel takes its iteration 1 itself. There the
credit g_i * (p * bu_ij - (1 - p) * bi_ij) is linear in the input,
credit[i, j] = g_i * (x_i . w1_j + c1_j), with w1 = p * W_use
- (1 - p) * W_ign and c1 = p * b_use - (1 - p) * b_ign, the same formula
applied to the weights, so a block takes it from one n_out-column matmul
against w1, a bias pass and a gate pass, without the coefficients. Its
pooled sums need only the gated Gram matrix G = sum_i g_i x_i x_i^T and
s = sum_i g_i x_i:

    pooled = (G w1)^T + c1 s^T,    total = w1^T s + c1 * sum_i g_i

The plan says when the variable kernel takes this closed form, and why.
Neither variable-layout form computes the coefficients, and no block
scans them: a non-finite one makes its credit non-finite (inf * 0 is
NaN), which fails iteration 2's output update check (the last
paragraph). Any failure checks the coefficients first, so errors name
the same stage as when iteration 1 computed them; past iteration 2 they
are finite, and a failure keeps its own message. The linear form can
overflow where the coefficients do not, and G where the direct sums do
not, so a non-finite closed-form output redoes iteration 1 on the
blocks.

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
not depend on whether it is on. One output routes exactly (``shares``).

Sigma overwrites -z, so the rescue reads a copy of the rows it may
need, taken first. Let T = log(eps / tiny) - 1 in the working dtype
(about 70.4 in float32 and 671 in float64). Where -z_ij
<= T, sigma(z_ij) >= 1 / (1 + e^T), about e * tiny / eps, and a sum of
non-negative terms is at least its largest, so a row with any -z_ij <= T
stays above the floor. The block's max of -z, which its finite check
takes anyway, decides: at or below T nothing is copied; above it the
rows whose every -z exceeds T are, a superset of the rescued rows.

Each workspace slot is overwritten in place once the value it holds is
dead (the liveness rule of Chen et al., arXiv:1604.06174), with the
trace on or off. A later block computes, in this order,
used = sigma * g / S, the credit product bu * used, ignored = g - used
and bi * ignored. Used, ignored and bi * ignored each overwrite the
value before them in sigma's slot, so one order serves both slot
tables. The variable layout needs three block-sized arrays:

    slot 0: bu, then the credit (bu * used, then minus bi * ignored)
    slot 1: bi
    slot 2: -z, then sigma, the used and the ignored shares, bi * ignored
    slots 1-2, once the credit is done: its pooled product credit^T x

The linear form of iteration 1 computes its credit in slot 0 and its
pooled product in slots 1-2. The fixed layout's tables stand in for bu
and bi, and its credit is computed in the rows of a kept credit, or of
the final credit (above), so it needs one:

    iteration 1:  slot 0: bi * (g - g * p), then the pooled product
    later:        slot 0: -z, then sigma, the used and the ignored
                          shares, bi * ignored, then the pooled product

A block's n_out x d_inp product goes into the workspace behind the
values that it pools, dead by then, where it fits: past slot 0's run
when those values are slot 0's, the whole workspace when they lie in the
rows of a credit. So the variable layout pools into its slots 1-2 once
d_inp <= 2 * rows, and the fixed layout into its one slot once
d_inp <= rows; a block whose product does not fit pools into a fresh
one. The same BLAS call writes the same bytes into either.

The workspace is one flat array, and slot k of an n-row block is its
k-th run of n * n_out elements. So column group k of the variable
layout's matmul, which writes (bu | bi | -z), is slot k, in a ragged
last block too, and each in-place product meets its output as the very
same compact view. A record copies each share in as soon as it is
computed, so the ignored shares take the used shares' slot traced too.
Iteration 1's shares are columns of n elements beside the slots, which a
replay's blocks copy into their records; the variable layout's linear
form computes only its credit, in slot 0. The fused weight exists from
the first later iteration on, and the last M-step runs after the
workspace and the weight are dropped. Row sums and column totals are
BLAS products with a ones vector that lives only during a sweep, so no
M-step or prediction holds it.

The final credit is allocated first. Where the plan keeps the
activation scores, checked there, then the gates, by the sigma kernel in
place, in its last n_inp elements, gate i sits at flat index
n_inp * n_out - n_inp + i. In that layout only the last iteration,
never the first, writes the final credit, and a block writing rows
[s, e) touches flat indices below e * n_out <= n_inp * n_out - n_inp + e,
so it never overwrites a later row's gate. It may overwrite its own, but
only in its last step, which copies its credit in from slot 0 after its
last read of those gates; so a block reads its gates where they lie.
When n_out is 1, the tail is the whole credit.

A traced call routes as an untraced one, on the same sweep, from the
caller's array, and fails where it does. It keeps only what its records
cannot be recomputed without: a private copy of the input, the
activation scores and gates, the call's plan, the final credit and the
returned output; no iteration's prediction or output. It copies the
input once the loop has returned, when the workspace and the weight
are gone, so the copy does not add to the loop's peak, and a call that
fails copies nothing. An input routed from a compact copy (the plan's
rule) is the exception: the trace keeps that copy for its replay. The
copy guards the records against a caller who writes ``x_inp`` after the
call, a ``DenseTensor``'s array too, which its owner can make writable
again. A write during the call is a data race that the untraced call
does not survive either. The first read of ``trace.iterations`` builds
every record once: it reruns the call's iteration loop, the same code on
the same inputs by the same plan, so each block and each M-step computes
the call's values bit for bit, and each block writes its rows of the
records. A closed-form iteration 1 reruns the closed form for its output
and its blocks for its records, and scans its credit record. The last
iteration pools nothing and computes no credit: its credit record is
the final credit, and its output is the call's. The sigma kernel writes
e^(-z) into the scores record and sigma from there over -z, then turns
the record into log sigma(z) = -log1p(e^(-z)) in two passes (z itself
where e^(-z) overflows, kept before sigma overwrites -z). The records
but the final credit share a few allocations of at most
``_TRACE_CHUNK_BYTES`` when they are built, so that repeated reads reuse
heap memory instead of faulting in fresh pages. A trace whose records
are never read, like those the credit algebra takes its final credit
from, costs none of them; a read costs one more routing, on the block
path, and the record writes.

Each value is checked for non-finite values once. IEEE arithmetic
propagates them (inf * 0 and inf - inf are NaN), so one check covers
every value that is a term of the array it scans. x_ik is a summand of
input i's activation score, so the activations check covers the input,
and x_inp is scanned only once that check fails, to name the input.
Routing, shares and scores are finite by construction (sigma <= 1,
S_i >= tiny / eps, gates in [0, 1], a rescued row is the softmax of a
finite z). Every credit that a block pools, the call's final credit
and each credit record of the replay too, feeds total_j and so, through
total_j * vote_bias_j, every entry of output row j, so the iteration's
output update check fails first on a non-finite one. The closed form's
iteration 1 pools no block: its output's own finite test, the checks'
min/max predicate, which picks the fallback, is its check, and the
replay scans its credit record, so a read can fail where the call did
not. The next prediction reads the checked output unscanned, and its own
check covers the normalized rows it is taken from: each normalized value
is a term of every entry of its predicted row.

The router owns its floating-point error state. Its two entry points,
:func:`route_optimized` and the records' replay, each run under
``np.errstate(all="ignore")``, and no stage of this module picks a state
of its own. An overflow or an underflow gives the value IEEE arithmetic
defines, which the kernels are built for (sigma = 0 where e^(-z)
overflows, the rescue where a row's sigmas fall below the row-sum
floor), and a non-finite value is redone or found by the checks above,
which name its stage, never by a floating-point flag. So what a call
routes, the records it replays and the NumericError it raises do not
depend on the state a caller set with ``np.seterr`` or ``np.errstate``,
and a call emits no RuntimeWarning and raises no FloatingPointError. The
invalid flag that OpenBLAS's gemv raised now and then on finite inputs
(``ones @ credit`` warned in 3 of about 200 test processes) is ignored
with the rest. The public stage functions above and the kernels of
:mod:`vecroute.tensor` keep the caller's state."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
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
    _all_finite,
    _check_finite,
    _float_array,
    _logistic_of_negated_into,
    _normalized_rows,
    _softmax_rows_in_place,
    log_logistic,
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
]

# Elements (rows * n_out) of one block of the routing loop: 448 KiB per
# float32 array, so the largest block workspace, the variable layout's
# three slots (1.31 MiB, traced or not), fits a 2 MiB per-core L2 cache.
# Each block costs a fixed number of numpy calls and a BLAS call or two,
# so the largest block that fits is fastest.
BLOCK_ELEMENTS = 114688

# Largest allocation a trace's records share (the final credit, which a
# caller may keep alone, has its own). glibc's malloc maps a request
# above its mmap threshold afresh; freeing such a mapping of at most
# 32 MiB raises that threshold to its size and the heap's trim threshold
# to twice it. So after the first records are built, later ones come
# from the heap, and dropped records under twice this size stay there
# for the next build instead of going back to the system to be faulted
# in again. Records allocated one by one keep the trim threshold low,
# and dropped records are handed back whenever nothing live sits above
# them.
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
    out = np.empty(x_inp.shape[0], np.result_type(x_inp, params.dtype))
    _activation_scores_into(x_inp, params, out)
    return out


def _activation_scores_into(x_inp: np.ndarray, params: RoutingParams, out: np.ndarray) -> None:
    """:func:`activation_scores` of ``x_inp`` written into ``out``, shape (n_inp,)."""
    if params.dims.variable_length:
        np.matmul(x_inp, params.act_weight.array, out=out)
        bias = params.act_bias.array[0]
    else:
        np.einsum("id,id->i", params.act_weight.array, x_inp, out=out)
        bias = params.act_bias.array
    out *= _scale(x_inp.shape[0], x_inp.dtype)
    out += bias


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
    return _predict(normalize_vectors(x_out).array, params)


def _predict(normalized: np.ndarray, params: RoutingParams) -> np.ndarray:
    """:func:`predict_inputs` of rows already normalized, not scanned."""
    out = normalized @ params.pred_proj.array
    out *= params.pred_gate.array
    out += params.pred_bias.array
    return out


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
    pooled = phi.T @ x_inp
    scale = _scale(x_inp.shape[0], pooled.dtype)
    pooled = pooled.astype(np.result_type(pooled, params.dtype), copy=False)
    return _finish_m_step(pooled, phi.sum(axis=0), scale, params)


def _finish_m_step(pooled: np.ndarray, total: np.ndarray, scale, params: RoutingParams) -> np.ndarray:
    """Outputs from the input-contracted credit sums of a whole sequence.

    ``pooled`` must be C-contiguous and of its products' result dtype: it
    takes vote_mix * pooled and then, where it is large enough, the bias
    term, so the step holds two output-sized arrays beside it (``out`` and
    numpy's iterator buffer for the broadcast ``total``), not four.
    """
    np.multiply(params.vote_mix.array, pooled, out=pooled)
    out = pooled @ params.vote_proj.array
    out *= scale
    bias = pooled.reshape(-1)[: out.size].reshape(out.shape) if pooled.size >= out.size else None
    out += np.multiply(total[:, None], params.vote_bias.array, out=bias)
    return out


def _first_iteration_weights(params: RoutingParams) -> np.ndarray:
    """[w1; c1] = p * [W_use; b_use] - (1 - p) * [W_ign; b_ign], shape
    (d_inp + 1, n_out): iteration 1's credit is g_i * (x_i . w1 + c1) in the
    variable layout (see the module docstring)."""
    p = params.dtype.type(1.0 / params.dims.n_out)
    use = np.vstack((params.beta_use_weight.array, params.beta_use_bias.array))
    ign = np.vstack((params.beta_ign_weight.array, params.beta_ign_bias.array))
    return p * use - (1 - p) * ign


def _closed_form_sums(
    x: np.ndarray, gates: np.ndarray, work: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Iteration 1's (pooled, total) sums from its weights ``w`` = [w1; c1].

    pooled = w^T [G; s^T] and total = w1^T s + c1 * sum_i g_i. G is
    accumulated over blocks of as many rows as ``work`` holds, each
    block's gated inputs written into it.
    """
    n_inp, d = x.shape
    gram = np.zeros((d + 1, d), x.dtype)  # [G; s^T]
    rows = work.size // d  # at least 1: d_inp < 3 * n_out <= work.size
    for start in range(0, n_inp, rows):
        xb = x[start : start + rows]
        gated = work[: xb.size].reshape(xb.shape)
        np.multiply(xb, gates[start : start + rows, None], out=gated)
        gram[:d] += gated.T @ xb
    np.matmul(gates, x, out=gram[d])
    total = gram[d] @ w[:d]
    total += w[d] * gates.sum()
    return w.T @ gram, total


class _Blocks:
    """The block loop both layouts share: its buffers and one block's stages.

    A layout's kernel (``_FixedBlocks``, ``_VariableBlocks``) adds the
    block orientation, a block's coefficients and scores, the
    coefficients' finite check and its iteration 1: the fixed kernel's
    blocks take the shared tail on the flat prior's shares, the variable
    kernel's take a form of their own. A kernel reads its decisions from
    the call's ``plan``. ``spare``, the final credit in a call (None in a
    replay, which keeps every credit it computes), holds a credit that a
    row-major kernel does not keep. Every class of the hierarchy
    declares ``__slots__``: each call builds a kernel, and with an
    instance ``__dict__`` the call's peak fell by 8 B a call over its
    first 14 or so calls (:mod:`vecroute.memtrack`).
    """

    __slots__ = ("n_out", "params", "x", "gates", "plan", "blocks", "prior", "scale", "ones", "work",
                 "row_sum_floor", "near_floor", "weight", "spare", "gain", "bias")

    def __init__(self, params: RoutingParams, x: np.ndarray, gates: np.ndarray, plan: _Plan, spare: np.ndarray | None):
        n_inp, dtype, rows = x.shape[0], params.dtype, plan.rows
        self.n_out = params.dims.n_out
        self.params, self.x, self.gates, self.plan, self.spare = params, x, gates, plan, spare
        self.blocks = [slice(i, min(i + rows, n_inp)) for i in range(0, n_inp, rows)]
        self.prior = dtype.type(1.0 / self.n_out)
        self.scale = _scale(n_inp, dtype)
        self.ones = None  # held during a sweep only, so no M-step or prediction holds it
        # The block workspace, each slot reused once its value is dead (the
        # module docstring's tables), held here alone so that dropping it
        # here frees it. The closed form borrows it for gated inputs.
        self.work = np.empty(plan.workspace, dtype)
        tiny, eps = np.finfo(dtype).tiny, np.finfo(dtype).eps
        self.row_sum_floor = tiny / eps
        self.near_floor = dtype.type(np.log(eps / tiny) - 1.0)  # T of the module docstring
        self.weight = None  # the fused weight, from the first later iteration on

    def score_against(self, predicted: np.ndarray) -> None:
        """Write -predicted^T into the fused weight's score columns,
        building the weight on first use (iteration 1 never reads it)."""
        if self.weight is None:
            self.weight = self.fused_weight()
        np.negative(predicted.T, out=self.weight[:, -self.n_out :])

    def sweep(self, rec: dict, it: int, pool: bool = True) -> np.ndarray | None:
        """One iteration over the blocks, writing their rows of the arrays
        in ``rec``. With ``pool``, they add up their pooled sums, and it
        returns the iteration's output update, checked."""
        d_inp, n_out, dtype = self.x.shape[1], self.n_out, self.x.dtype
        self.ones = np.ones(max(self.plan.rows, n_out), dtype)
        sums = (np.zeros((n_out, d_inp), dtype), np.zeros(n_out, dtype)) if pool else None
        for blk in self.blocks:
            self.route_block(rec, it, blk, sums)
        self.ones = None
        if not pool:
            return None
        if it == self.params.dims.n_iters:  # dead: the last M-step's peak holds neither
            self.work = self.weight = None
        x_out = _finish_m_step(*sums, self.scale, self.params)
        _check_finite(x_out, "output update", it)  # every pooled sum and total is a term of it
        return x_out

    def pool(self, values: np.ndarray, blk: slice, sums: tuple) -> None:
        """Add a block's ``values.T @ x`` and column totals into ``sums``.
        The block is done with the rest of its workspace, and ``values`` is
        slot 0's run or lies outside it, so the n_out x d_inp product goes
        into the workspace behind ``values`` where it fits, else into a
        fresh array (the module docstring)."""
        pooled, total = sums
        start = values.size if values.base is self.work else 0
        product = None
        if start + pooled.size <= self.work.size:
            product = self.work[start : start + pooled.size].reshape(pooled.shape)
        pooled += np.matmul(values.T, self.x[blk], out=product)
        total += np.dot(self.ones[: blk.stop - blk.start], values)

    def credit_rows(self, blk: slice, kept: np.ndarray | None) -> np.ndarray:
        """Where a block computes its credit: a row-major block in the rows
        of a kept credit, or else of ``spare``; an output-major block in
        slot 0, copied into a kept credit last."""
        if not self.row_major:
            return self.block(self.work, blk.stop - blk.start, self.n_out)
        return (self.spare if kept is None else kept)[blk]

    def shares(self, rec: dict, it: int, blk: slice, g: np.ndarray) -> tuple[np.ndarray, ...]:
        """(bu, bi, used) of a later iteration's block: the used shares
        g * sigma / S written over -z, and the routing into a kept one."""
        scores, routing = rec.get("scores"), rec.get("routing")
        bu, bi, neg_z = self.later_block(blk)
        top = neg_z.max()
        if not top < np.inf:
            raise NumericError(f"non-finite values in score at iteration {it}")
        # Only rows whose every -z exceeds near_floor can need the
        # rescue; their -z is copied before sigma overwrites it.
        near = None
        if top > self.near_floor:
            near = np.flatnonzero(neg_z.min(axis=1) > self.near_floor)
            near_z = neg_z[near]
        _logistic_of_negated_into(neg_z, None if scores is None else scores[blk])
        sigma = neg_z  # written over -z
        row_sum = np.dot(sigma, self.ones[: self.n_out])  # S_i, then g_i / S_i
        if near is not None:
            hit = row_sum[near] < self.row_sum_floor
            if hit.any():
                low = near[hit]
                rescued = np.negative(near_z[hit])
                _softmax_rows_in_place(rescued)
                sigma[low] = rescued
                row_sum[low] = 1.0
        if routing is not None:
            np.divide(sigma, row_sum[:, None], out=routing[blk])
        used = sigma
        # One output's routing is exactly 1, so used = g and ignored = g - g
        # is exactly 0, as in the reference; sigma * (g / S) would leave bi
        # times an ulp of g in the credit.
        if self.n_out == 1:
            np.copyto(used, g)
        else:
            np.divide(g[:, 0], row_sum, out=row_sum)
            np.multiply(sigma, row_sum[:, None], out=used)
        return bu, bi, used

    def route_block(self, rec: dict, it: int, blk: slice, sums: tuple | None) -> None:
        """One block of an iteration: its share of ``sums`` (the pooled
        sums and the totals; None when the iteration pools nothing) and its
        rows of the arrays in ``rec``. A block that neither pools nor keeps
        its credit computes none. Its views of the workspace end with the
        call."""
        n, n_out = blk.stop - blk.start, self.n_out
        kept = rec.get("credit")

        def keep(name: str, computed: np.ndarray) -> None:
            if rec.get(name) is not None:
                rec[name][blk] = computed

        # Read before the block's last step writes its credit: in the final
        # credit's tail, that write may overwrite these gates.
        g = self.gates[blk, None]
        bu, bi, used = self.shares(rec, it, blk, g)
        # Each result overwrites the slot of an operand dead from here on.
        keep("share_used", used)
        credit = None
        if sums is not None or kept is not None:
            credit = self.credit_rows(blk, kept)
            np.multiply(bu, used, out=credit)
        ignored = used
        np.subtract(g, used, out=ignored)
        keep("share_ignored", ignored)
        if credit is None:
            return
        # A column of ignored shares, the flat prior's, cannot hold the
        # product; the slot is free then.
        product = ignored if ignored.shape == bi.shape else self.block(self.work, n, n_out)
        np.multiply(bi, ignored, out=product)
        credit -= product
        self.keep_and_pool(rec, blk, credit, sums)

    def keep_and_pool(self, rec: dict, blk: slice, credit: np.ndarray, sums: tuple | None) -> None:
        """Copy a block's credit into a kept one, unless it was computed
        there, and pool it."""
        if not self.row_major and rec.get("credit") is not None:
            rec["credit"][blk] = credit
        if sums is not None:
            self.pool(credit, blk, sums)


class _FixedBlocks(_Blocks):
    """Block kernel of the fixed layout: row-major blocks, stored tables,
    and a credit computed in the kept rows or ``spare``, so one slot (the
    module docstring)."""

    __slots__ = ("use", "ign")
    row_major = True

    def __init__(self, *args):
        super().__init__(*args)
        self.use, self.ign = self.params.beta_use.array, self.params.beta_ign.array
        self.gain, self.bias = self.params.score_gain.array, self.params.score_bias.array

    @staticmethod
    def block(buffer: np.ndarray, n: int, cols: int) -> np.ndarray:
        return buffer[: n * cols].reshape(n, cols)

    def fused_weight(self) -> np.ndarray:
        """-predicted^T alone; written per iteration."""
        return np.empty((self.params.dims.d_inp, self.n_out), self.params.dtype)

    def shares(self, rec: dict, it: int, blk: slice, g: np.ndarray) -> tuple[np.ndarray, ...]:
        """In iteration 1, the tables and the flat prior's used shares g * p,
        a column; later, the shared stages."""
        if it == 1:
            return self.use[blk], self.ign[blk], g * self.prior
        return super().shares(rec, it, blk, g)

    def later_block(self, blk: slice) -> tuple[np.ndarray, ...]:
        """(bu, bi, -z): the tables stand in for bu and bi, so -z takes the slot."""
        neg_z = self.block(self.work, blk.stop - blk.start, self.n_out)
        np.matmul(self.x[blk], self.weight, out=neg_z)
        neg_z *= self.gain[blk]
        neg_z -= self.bias[blk]
        return self.use[blk], self.ign[blk], neg_z

    def check_betas(self) -> None:
        """Nothing to do: the tables were checked with the parameters."""


class _VariableBlocks(_Blocks):
    """Block kernel of the variable layout: output-major blocks, coefficients
    from each block's inputs, whole credits, and its own iteration 1 (see
    the module docstring)."""

    __slots__ = ("first",)
    row_major = False

    def __init__(self, *args):
        super().__init__(*args)
        p = self.params
        self.gain = p.score_gain.array
        self.bias = np.concatenate([p.beta_use_bias.array, p.beta_ign_bias.array, -p.score_bias.array])
        self.first = _first_iteration_weights(p)  # an overflow makes iteration 1 non-finite

    @staticmethod
    def block(buffer: np.ndarray, n: int, cols: int) -> np.ndarray:
        return buffer[: n * cols].reshape(cols, n).T

    def fused_weight(self) -> np.ndarray:
        """[W_use | W_ign | -predicted^T]; the score columns are written per iteration."""
        p = self.params
        weight = np.empty((p.dims.d_inp, 3 * self.n_out), p.dtype)
        weight[:, : self.n_out] = p.beta_use_weight.array
        weight[:, self.n_out : 2 * self.n_out] = p.beta_ign_weight.array
        return weight

    def sweep(self, rec: dict, it: int, pool: bool = True) -> np.ndarray | None:
        """Iteration 1 in closed form where the plan says so and its output
        is finite, else on the blocks; a later one on the blocks. A replay's
        closed-form iteration 1 has its blocks write its records, pooling
        nothing, and scans the credit record, which no output update check
        covers."""
        if it > 1:
            return super().sweep(rec, it, pool)
        x_out = None
        if self.plan.closed_form:
            x_out = _finish_m_step(
                *_closed_form_sums(self.x, self.gates, self.work, self.first), self.scale, self.params
            )
        if x_out is None or not _all_finite(x_out):
            x_out = super().sweep(rec, it)
        elif rec.get("credit") is not None:
            super().sweep(rec, it, pool=False)
            _check_finite(rec["credit"], "credit", it)
        self.first = None  # output-sized, and needed no more
        return x_out

    def route_block(self, rec: dict, it: int, blk: slice, sums: tuple | None) -> None:
        """A later iteration's block takes the shared stages; iteration 1's
        takes the linear form g * (x . w1 + c1) in slot 0, and writes a
        replay's flat-prior shares."""
        if it > 1:
            return super().route_block(rec, it, blk, sums)
        g = self.gates[blk, None]
        if rec.get("share_used") is not None:
            used = g * self.prior
            rec["share_used"][blk] = used
            rec["share_ignored"][blk] = g - used
        credit = self.block(self.work, blk.stop - blk.start, self.n_out)  # slot 0
        np.matmul(self.x[blk], self.first[:-1], out=credit)
        credit += self.first[-1]
        credit *= g
        self.keep_and_pool(rec, blk, credit, sums)

    def later_block(self, blk: slice) -> tuple[np.ndarray, ...]:
        """(bu, bi, -z) in workspace slots 0-2, from one matmul."""
        n_out = self.n_out
        coef = self.block(self.work, blk.stop - blk.start, 3 * n_out)
        np.matmul(self.x[blk], self.weight, out=coef)
        neg_z = coef[:, 2 * n_out :]
        neg_z *= self.gain
        coef += self.bias  # [b_use | b_ign | -score_bias]: x - b is x + (-b) bit for bit
        return coef[:, :n_out], coef[:, n_out : 2 * n_out], neg_z

    def check_betas(self) -> None:
        """Finite-check every block's coefficients, in block order."""
        for blk in self.blocks:
            beta_pair_for(self.x[blk], self.params)


class _Plan(NamedTuple):
    """What a call decides once, from its shapes alone. Its kernel reads
    the plan, and so does its records' replay, which gets the call's.

    - ``kernel``: the block kernel class of the call's layout.
    - ``rows``: max(1, BLOCK_ELEMENTS // n_out) input rows a block, at
      most n_inp, by ``BLOCK_ELEMENTS`` at the call.
    - ``workspace``: the block workspace's elements, slots of rows * n_out
      each: three in the variable layout, one in the fixed one.
    - ``closed_form``: the variable layout takes iteration 1 in closed
      form exactly when d_inp < 3 * n_out, an operation count, not a
      setting. G costs 2 * d_inp**2 flops per input (its one-off
      n_out * d_inp**2 term is the size of the M-step's projection, so
      the count leaves it out), against a block path of about
      6 * n_out * d_inp (two coefficient sets and the pooling matmul).
      The linear block path costs about 4 * n_out * d_inp plus three
      pair-sized passes; at 100000 x 16 x 40 (d_inp = 2.5 * n_out, two
      iterations, 2 CPUs) it measured 27.8 ms against the closed form's
      35.8 ms, faster in 14 of 15 alternating calls.

    Two rules stay in :func:`route_optimized`, which reads each once, so
    a field would add code. An input that is neither C- nor F-contiguous
    is routed, traced or not, from a compact copy taken first, since a
    strided operand can take another matmul loop than a compact one; a
    trace keeps that copy for its replay. The variable layout with the
    trace off keeps the activation scores, then the gates, in the final
    credit's last n_inp elements. Fixed blocks write the final credit in
    every iteration, so that layout keeps them in an n_inp array, which
    outgrows the slot it saves only past about BLOCK_ELEMENTS inputs,
    where its n_inp x n_out tables are far larger; a trace returns them
    in arrays of its own. A named tuple has no instance ``__dict__``
    (:mod:`vecroute.memtrack`).
    """

    kernel: type
    rows: int
    workspace: int
    closed_form: bool


def _plan(dims: RoutingDims, n_inp: int) -> _Plan:
    """The plan of a call on ``n_inp`` inputs (``_Plan`` gives each rule)."""
    n_out = dims.n_out
    rows = min(n_inp, max(1, BLOCK_ELEMENTS // n_out))
    if dims.variable_length:
        return _Plan(_VariableBlocks, rows, 3 * rows * n_out, closed_form=dims.d_inp < 3 * n_out)
    return _Plan(_FixedBlocks, rows, rows * n_out, closed_form=False)


@np.errstate(all="ignore")
def route_optimized(
    x_inp,
    params: RoutingParams,
    capture_trace: bool = False,
) -> tuple[DenseTensor, RoutingTrace]:
    """Run the routing loop without materializing proposals.

    ``x_inp`` is an (n_inp, d_inp) array of the parameters' dtype; the
    fixed layout needs n_inp to match its tables. Its rank, extents and
    dtype are checked before its values. Returns the (n_out, d_out)
    outputs and a :class:`RoutingTrace`. The outputs do not depend on
    ``capture_trace``; the module docstring derives how they are
    computed. With the trace off (the default, and the configuration
    that :func:`transient_element_bound` covers), the trace carries only
    the final credit; a block's intermediates live in one reused block
    workspace, and the activation scores, then the gates, in an n_inp
    array or the final credit's tail, by the layout. With it on, the call
    routes the same way, from ``x_inp`` itself, and fails where the
    untraced call does; the trace also holds the activation scores and
    gates and a private copy of the input, taken once the iteration loop
    has returned, but no iteration's prediction or output. A strided
    ``x_inp``, neither C- nor F-contiguous, is routed from a compact copy,
    traced or not, so that the call and its replay run the same matmuls.
    A replay is exact unless ``x_inp`` is written during the call, a data
    race that the untraced call does not survive either. Its
    ``iterations`` records are built on first read, by rerunning the
    iteration loop by the call's plan (the module docstring); the last
    record's output is the returned output. From then on they hold
    O(n_iters * n_inp * n_out) memory. The records but the final credit
    are views of a few allocations shared when they are built, so one
    kept after its trace is dropped keeps its allocation alive. The call,
    and the records' first read, run under ``np.errstate(all="ignore")``
    whatever state the caller set: a non-finite stage raises the
    :class:`NumericError` that names it, never a RuntimeWarning or a
    FloatingPointError, and the outputs and records do not depend on the
    caller's ``np.seterr``.
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
    plan = _plan(dims, n_inp)
    compacted = not (x.flags.c_contiguous or x.flags.f_contiguous)  # routed from a copy (_Plan)
    if compacted:
        x = x.copy(order="K")

    # Allocated before the block workspace, like a replay's records (see
    # _replay). Where the activation scores and gates live: _Plan.
    final_credit = np.empty((n_inp, n_out), dtype)
    in_tail = dims.variable_length and not capture_trace
    raw = final_credit.reshape(-1)[-n_inp:] if in_tail else np.empty(n_inp, dtype)
    try:
        _activation_scores_into(x, params, raw)
        _check_finite(raw, "activations")
    except NumericError:
        _check_finite(x, "x_inp")  # a non-finite input is named first
        raise
    gates = np.empty_like(raw) if capture_trace else raw
    np.negative(raw, out=gates)
    _logistic_of_negated_into(gates)  # logistic's kernel

    # A fixed-layout kernel computes every iteration's credit in the final
    # credit's rows, which the last iteration's credit overwrites.
    kernel = plan.kernel(params, x, gates, plan, final_credit)
    records = [{"credit": final_credit if it == n_iters else None} for it in range(1, n_iters + 1)]
    output = DenseTensor._adopt(_iterate(kernel, records))  # checked as its iteration's output update
    del kernel  # with its weight, so that nothing of the loop is live below

    final = DenseTensor._adopt(final_credit)
    if not capture_trace:
        return output, RoutingTrace(None, None, (), final)
    # The records' replay may run after the caller writes x_inp. Taken
    # here, the copy does not stack on the loop's workspace.
    replay = partial(_replay, x if compacted else x.copy(order="K"), params, gates, plan, output, final)
    trace = RoutingTrace(
        # Checked by "activations" above; the gates are sigma in [0, 1].
        activation_scores=DenseTensor._adopt(raw),
        activation_gates=DenseTensor._adopt(gates),
        iterations=_Records(n_iters, replay),
        final_credit=final,
    )
    return output, trace


def _iterate(kernel: _Blocks, records: list[dict], output: np.ndarray | None = None) -> np.ndarray:
    """The iteration loop of a call and of its records' replay; returns the
    last iteration's output. ``records[k]`` holds the arrays iteration
    k + 1 writes. A replay passes the call's ``output``: each record then
    also takes its iteration's prediction and output, and the last
    iteration pools nothing and returns ``output``. Each iteration
    predicts from the one before it, none in iteration 1, then sweeps."""
    params, n_iters = kernel.params, len(records)
    replay = output is not None
    x_out = None
    for it, rec in enumerate(records, start=1):
        pool = not (replay and it == n_iters)
        try:
            if x_out is not None:
                # The one check of the normalized rows too: each is a term of
                # every entry of its predicted row.
                predicted = _predict(_normalized_rows(x_out), params)
                _check_finite(predicted, "predict", it)
                x_out = None  # dead once predicted, unless a replay's record keeps it
                kernel.score_against(predicted)
                if replay:
                    rec["predicted"] = predicted
                del predicted  # its negated copy in the weight serves the blocks
            x_out = kernel.sweep(rec, it, pool)
        except NumericError:
            kernel.check_betas()  # a bad coefficient is named first (module docstring)
            raise
        if not pool:
            x_out = output
        if replay:
            rec["output"] = x_out
    return x_out


class _Records(Sequence):
    """A traced routing's iteration records, built by ``replay`` on first
    read and cached; the replay's inputs are dropped once it has run.
    Built in every traced call, so it has ``__slots__`` (:mod:`vecroute.memtrack`)."""

    __slots__ = ("_n_iters", "_replay", "_built")

    def __init__(self, n_iters: int, replay):
        self._n_iters, self._replay, self._built = n_iters, replay, None

    def __len__(self) -> int:
        return self._n_iters

    def __getitem__(self, index):
        if self._built is None:
            self._built = self._replay()
            self._replay = None
        return self._built[index]


@np.errstate(all="ignore")
def _replay(
    x: np.ndarray,
    params: RoutingParams,
    gates: np.ndarray,
    plan: _Plan,
    output: DenseTensor,
    final: DenseTensor,
) -> tuple[IterationRecord, ...]:
    """Every iteration's records, written by rerunning the traced call's
    iteration loop: the same code on the same inputs by the call's
    ``plan``, so the same values, the form of iteration 1 included.
    ``output`` and ``final`` are the call's output and final credit, the
    last record's."""
    n_inp, n_out, n_iters, dtype = x.shape[0], params.dims.n_out, params.dims.n_iters, x.dtype
    pair = (n_inp, n_out)
    # Allocated before the block workspace, so the space the workspace
    # frees lies above them. Allocated after it, a dropped trace left the
    # top of the heap free, so the heap went back to the system and the
    # next trace faulted it in again: a third of the time of a traced
    # three-stage chain. For the same reason the records share allocations
    # of at most _TRACE_CHUNK_BYTES; the last iteration's credit is the
    # final one.
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
            "credit": None if it == n_iters else next(shared),
            "predicted": None,  # and "output": both written by _iterate
        }
        for it in range(1, n_iters + 1)
    ]
    kernel = plan.kernel(params, x, gates, plan, None)  # every credit it computes is kept
    kept[0]["routing"].fill(kernel.prior)  # iteration 1 routes by the flat prior
    _iterate(kernel, kept, output.array)
    # Adopted unscanned: bitwise the values the call proved finite (the
    # module docstring says how), and iteration 1's closed-form credit was
    # scanned by its kernel.
    adopted = [{name: None if a is None else DenseTensor._adopt(a) for name, a in rec.items()} for rec in kept]
    adopted[-1].update(credit=final, output=output)
    return tuple(IterationRecord(**rec) for rec in adopted)


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
# Input-sized (n_inp * d_inp) and output-sized (n_out * (d_inp + d_out))
# intermediates share one factor that absorbs their simultaneously live
# generations, and so does the one n_inp-sized array, the fixed layout's
# activation scores and then gates (the variable layout keeps them in the
# final credit's tail). The only routing-pair-sized (n_inp * n_out) array
# is the returned final credit, counted twice for headroom; pair-dominated
# shapes measure at most 1.14 pair arrays. The block workspace is three
# arrays of one block (one in the fixed layout), traced or not,
# rows * n_out elements each, at most max(BLOCK_ELEMENTS, n_out) however
# long the sequence and less when the whole sequence fits in one block,
# so the block factor leaves headroom too. A block's pooled product
# (n_out * d_inp) is output-sized; where it fits, it lives in the
# workspace's dead slots (the module docstring). The variable layout's
# closed-form first iteration adds no term: its gated inputs reuse the
# block workspace, and the plan takes it only where d_inp < 3 * n_out,
# which makes its (d_inp + 1) * d_inp Gram matrix and (d_inp + 1) * n_out
# coefficients output-sized. The floor covers interpreter-level overhead
# that dominates at toy sizes. Measured over fixed and variable shapes
# from 1x1x1x1 up to 100000x16x64x64 and 3000x100000x2x2 (float32), the
# peak reaches at most half the bound. The bound assumes capture_trace off
# and a C- or F-contiguous input; any other input adds its compact copy.
# A traced call adds the activation scores and gates, and once its loop
# has returned a copy of the input, and keeps no iteration's prediction
# or output; its records are allocated when first read, by a rerun of the
# iteration loop in a block workspace of the same size, which recomputes
# those predictions and outputs. The test suite asserts measured peaks
# stay under this bound.
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
