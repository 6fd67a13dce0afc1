"""Composable credit assignment over chained routings.

A routing pass attributes each output additively to the inputs through a
single coefficient matrix (the final per-iteration credit of the trace).
Because the attribution is linear, credit matrices of composed routings
compose by linear algebra alone, without rerunning anything:

* routings applied one after another multiply their matrices,
* a residual connection adds the through-path to the product,
* routings summed into shared outputs stack rows over the combined
  input index,
* independent routings laid side by side form a block diagonal.

A dedicated three-stage helper normalizes the end-to-end product to unit
element-wise standard deviation, which makes attribution magnitudes
comparable across networks. Group aggregation then sums end-to-end
credit over user-chosen partitions of the inputs (tokens, patches,
regions) and can serialize the result as CSV for plotting; the report
holds its partition in two index arrays rather than one Python object
per input, so a million-input report keeps 8 MB of members, not about
36 MB of tuples of ints.

The compositions that multiply (:func:`compose_sequential`,
:func:`compose_residual` and :func:`end_to_end_three`) run under
``np.errstate(all="ignore")``, whatever state the caller set: an
overflow fails the finite check that names the operation, and an
underflow rounds towards 0, so what they return or raise does not depend
on ``np.seterr``.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

from .reference import RoutingTrace
from .tensor import DenseTensor, NumericError, ShapeError, _check_finite

__all__ = [
    "ArityError",
    "AttributionReport",
    "CreditMatrix",
    "DegenerateCreditError",
    "attribution_report",
    "compose_concat",
    "compose_residual",
    "compose_sequential",
    "compose_sum",
    "credit_from_trace",
    "end_to_end_three",
]

SIGMA_FLOOR = 1e-12
# float64 elements of end_to_end_three's spread pass: 64 KiB, the size
# of the buffer numpy takes for a cast in a ufunc or a reduction.
_SPREAD_CHUNK = 8192


class ArityError(ShapeError):
    """Composition operands whose input/output counts do not line up."""


class DegenerateCreditError(NumericError):
    """End-to-end credit with (near) zero spread; normalization undefined."""


@dataclass(frozen=True)
class CreditMatrix:
    """An additive attribution of outputs to inputs.

    ``values[i, j]`` is the coefficient with which input i's proposal
    enters output j. The arities are the shape of ``values``, so composition
    mistakes surface as structural errors instead of silent broadcasts.
    """

    values: DenseTensor

    def __post_init__(self):
        v = self.values if isinstance(self.values, DenseTensor) else DenseTensor(self.values, context="credit")
        object.__setattr__(self, "values", v)
        if v.rank != 2:
            raise ShapeError(f"credit matrix must be rank 2, got rank {v.rank}")

    @classmethod
    def identity(cls, arity: int, dtype=np.float32) -> "CreditMatrix":
        return cls(DenseTensor(np.eye(arity, dtype=dtype), copy=False))

    @property
    def input_arity(self) -> int:
        return self.values.shape[0]

    @property
    def output_arity(self) -> int:
        return self.values.shape[1]

    @property
    def array(self) -> np.ndarray:
        return self.values.array


def credit_from_trace(trace: RoutingTrace) -> CreditMatrix:
    """The routing's attribution matrix: its final credit coefficients."""
    return CreditMatrix(trace.final_credit)


@np.errstate(all="ignore")
def compose_sequential(a: CreditMatrix, b: CreditMatrix) -> CreditMatrix:
    """Credit through routing a followed by routing b: the matrix product.

    Associative, so chains of any length reduce pairwise in any
    bracketing.
    """
    _check_sequential(a, b)
    product = a.array @ b.array
    return CreditMatrix(DenseTensor(product, copy=False, context="sequential composition"))


def _check_sequential(a: CreditMatrix, b: CreditMatrix) -> None:
    if a.output_arity != b.input_arity:
        raise ArityError(
            f"sequential composition needs a.output_arity == b.input_arity, "
            f"got {a.output_arity} and {b.input_arity}"
        )


@np.errstate(all="ignore")
def compose_residual(a: CreditMatrix, b: CreditMatrix) -> CreditMatrix:
    """Credit through a followed by a residual stage b: a + a.b.

    The through-path adds a's credit directly to the matching output of
    the same index, so the residual stage must have equal input and
    output arity; a non-square b has no defined index matching and is
    rejected.
    """
    if b.input_arity != b.output_arity:
        raise ArityError(
            f"residual stage must be square, got ({b.input_arity}, {b.output_arity})"
        )
    if a.output_arity != b.input_arity:
        raise ArityError(
            f"residual composition needs a.output_arity == b.input_arity, "
            f"got {a.output_arity} and {b.input_arity}"
        )
    out = a.array + a.array @ b.array
    return CreditMatrix(DenseTensor(out, copy=False, context="residual composition"))


def compose_sum(a: CreditMatrix, b: CreditMatrix) -> CreditMatrix:
    """Credit of two routings whose outputs are summed elementwise.

    The inputs concatenate (a's first), the outputs coincide, so the
    matrices stack by row. Operand order is part of the result:
    associative, not commutative.
    """
    if a.output_arity != b.output_arity:
        raise ArityError(
            f"summed routings need equal output arity, got {a.output_arity} "
            f"and {b.output_arity}"
        )
    out = np.vstack([a.array, b.array])
    return CreditMatrix(DenseTensor(out, copy=False))


def compose_concat(a: CreditMatrix, b: CreditMatrix) -> CreditMatrix:
    """Credit of two independent routings laid side by side.

    Inputs and outputs both concatenate; neither routing touches the
    other's slots, so the off-diagonal blocks are exactly zero.
    """
    dtype = np.promote_types(a.array.dtype, b.array.dtype)
    out = np.zeros(
        (a.input_arity + b.input_arity, a.output_arity + b.output_arity),
        dtype=dtype,
    )
    out[: a.input_arity, : a.output_arity] = a.array
    out[a.input_arity :, a.output_arity :] = b.array
    return CreditMatrix(DenseTensor(out, copy=False))


@np.errstate(all="ignore")
def end_to_end_three(c1: CreditMatrix, c2: CreditMatrix, c3: CreditMatrix) -> CreditMatrix:
    """Normalized end-to-end credit of a three-stage chain.

    The product c1.c2.c3 is divided by the population standard deviation
    of its elements, giving the result unit element-wise spread; any
    positive rescaling of a single stage cancels. A spread below
    ``SIGMA_FLOOR`` (an all-constant product) leaves the normalization
    undefined and raises instead of returning infinities; so does a
    spread that overflows float64, which would scale the product to 0.

    The stages multiply as c1.(c2.c3). A stack of routings narrows
    (n > k1 > k2 > k3 for c1 of shape (n, k1) and c3 of shape (k2, k3)),
    and for it that order takes fewer multiply-adds, k1*k2*k3 + n*k1*k3
    against n*k1*k2 + n*k2*k3, and forms no n x k2 intermediate (the
    matrix chain order of Hu and Shing, 1982). The intermediate and the
    product are each checked as a sequential composition. The spread is
    taken in float64 in two passes over the product, its mean and then
    the squares of the deviations from it, the second over chunks of at
    most ``_SPREAD_CHUNK`` elements, so no float64 copy of the product
    exists; the product is then divided by it in place.
    """
    _check_sequential(c1, c2)
    _check_sequential(c2, c3)
    inner = c2.array @ c3.array
    _check_finite(inner, "sequential composition")
    product = c1.array @ inner
    del inner
    _check_finite(product, "sequential composition")
    sigma = _spread(product.reshape(-1))
    if sigma < SIGMA_FLOOR:
        raise DegenerateCreditError(
            f"end-to-end credit spread {sigma:.3e} is below {SIGMA_FLOOR:.0e}; "
            "unit-variance normalization is undefined"
        )
    if not sigma < np.inf:
        raise NumericError("non-finite values in end-to-end credit spread")
    product /= np.asarray(sigma, dtype=product.dtype)
    return CreditMatrix(DenseTensor(product, copy=False, context="end-to-end normalization"))


def _spread(flat: np.ndarray) -> float:
    """Population standard deviation of ``flat`` in float64, two-pass: the
    mean as np.mean takes it, then the deviations chunk by chunk."""
    mean = float(np.add.reduce(flat, dtype=np.float64)) / flat.size
    deviations = np.empty(min(flat.size, _SPREAD_CHUNK), np.float64)
    squares = 0.0
    for start in range(0, flat.size, _SPREAD_CHUNK):
        d = deviations[: min(_SPREAD_CHUNK, flat.size - start)]
        d[...] = flat[start : start + d.size]  # cast by assignment, which takes no buffer
        d -= mean
        squares += float(np.dot(d, d))
    return math.sqrt(squares / flat.size)


@dataclass(frozen=True, slots=True, eq=False)
class AttributionReport:
    """Per-group credit totals for each output.

    ``totals[g, j]`` sums the credit of every input in group g toward
    output j. Groups keep the order they were given in. The partition is
    held in two read-only intp arrays: ``members``, every group's inputs
    in the order given, group after group, and ``sizes``, each group's
    member count. ``groups``, the same partition as tuples of Python
    ints, is built from them on first read and kept; a report that is
    never asked for it holds 8 bytes per input and per group beside its
    totals, not a Python object per input.
    """

    members: np.ndarray  # (n_inputs,) intp
    sizes: np.ndarray  # (n_groups,) intp
    totals: DenseTensor  # (n_groups, output_arity)
    _groups: tuple[tuple[int, ...], ...] | None = field(default=None, init=False, repr=False)

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """The groups as tuples of ints, built on first read and kept."""
        if self._groups is None:
            object.__setattr__(self, "_groups", _split(self.members, self.sizes))
        return self._groups

    def write_csv(self, path) -> None:
        """Emit rows (output_index, group_id, credit) for external plotting."""
        arr = self.totals.array
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["output_index", "group_id", "credit"])
            for j in range(arr.shape[1]):
                for g in range(arr.shape[0]):
                    writer.writerow([j, g, repr(float(arr[g, j]))])


def attribution_report(e2e: CreditMatrix, groups: Iterable[Sequence[int]]) -> AttributionReport:
    """Aggregate credit over a partition of the inputs.

    ``groups`` must cover every input index exactly once (token, patch,
    or region aggregation). Singleton groups reproduce the matrix;
    a single all-covering group gives column sums. ``groups`` is read
    once into the report's ``members`` and ``sizes``, and the check and
    the sums work on those; a one-shot iterator of groups will do, held
    as a list of its groups so that a fault can name its place. At
    1,000,000 inputs x 16 float32 outputs in groups of 16 the call peaks
    at 20.6 MiB above its inputs: the members, the totals, one gathered
    step of the sums and the rows it adds into.
    """
    n = e2e.input_arity
    if not isinstance(groups, Sequence):  # a fault rescans the groups read
        groups = list(groups)
    counts: list[int] = []
    iterated: dict[int, tuple] = {}

    def read(group):
        try:
            counts.append(len(group))
        except TypeError:  # an iterator of members, kept for a fault's rescan
            group = iterated[len(counts)] = tuple(group)
            counts.append(len(group))
        return map(operator.index, group)

    try:
        members = np.fromiter(chain.from_iterable(map(read, groups)), np.intp)
    except (TypeError, OverflowError):  # a member not an integer or too large for any index
        read_groups = (iterated.get(g, group) for g, group in enumerate(groups))
        raise ValueError(_partition_fault(read_groups, n)) from None
    sizes = np.array(counts, np.intp)
    del counts, iterated
    if not _is_partition(members, sizes, n):
        raise ValueError(_partition_fault(_split(members, sizes), n))

    # Every group's total adds its members one by one in the order given,
    # as a per-group sum does, but a step adds the k-th member of every
    # group at once: as many steps as the largest group has members.
    arr = e2e.array
    firsts = np.cumsum(sizes) - sizes
    totals = arr[members[firsts]]
    for k in range(1, int(sizes.max())):
        longer = sizes > k
        totals[longer] += arr[members[firsts[longer] + k]]
    members.setflags(write=False)
    sizes.setflags(write=False)
    return AttributionReport(members, sizes, DenseTensor(totals, copy=False, context="attribution totals"))


def _is_partition(members: np.ndarray, sizes: np.ndarray, n: int) -> bool:
    """Whether groups of ``sizes`` members, in ``members``, partition
    range(n): no group empty, n members, each in range and none missing,
    so none repeated."""
    if members.size != n or sizes.min() < 1 or members.min() < 0 or members.max() >= n:
        return False
    covered = np.zeros(n, bool)
    covered[members] = True
    return bool(covered.all())


def _split(members: np.ndarray, sizes: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The groups of ``sizes`` members, in ``members``, as tuples of ints."""
    scan = iter(members.tolist())
    return tuple(tuple(islice(scan, size)) for size in sizes.tolist())


def _partition_fault(groups: Iterable[Sequence[object]], n: int) -> str:
    """The first fault of a partition of range(n), in scan order: group by
    group, an empty group before its members, a member that is not an
    integer or is outside the range before a repeat, and a missing input
    once every group is read."""
    seen: set[int] = set()
    for g, members in enumerate(groups):
        members = tuple(members)  # a numpy array's truth value is ambiguous
        if not members:
            return f"group {g} is empty; not a partition"
        for i in members:
            try:
                i = operator.index(i)
            except TypeError:
                return f"group {g} names input {i!r}, not an integer"
            if not 0 <= i < n:
                return f"group {g} names input {i}, outside [0, {n})"
            if i in seen:
                return f"input {i} appears in more than one group"
            seen.add(i)
    return f"groups do not cover inputs {sorted(set(range(n)) - seen)}; not a partition"
