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
regions) and can serialize the result as CSV for plotting.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .reference import RoutingTrace
from .tensor import DenseTensor, NumericError, ShapeError

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


class ArityError(ShapeError):
    """Composition operands whose input/output counts do not line up."""


class DegenerateCreditError(NumericError):
    """End-to-end credit with (near) zero spread; normalization undefined."""


@dataclass(frozen=True)
class CreditMatrix:
    """An additive attribution of outputs to inputs.

    ``values[i, j]`` is the coefficient with which input i's proposal
    enters output j. The arities are carried explicitly so composition
    mistakes surface as structural errors instead of silent broadcasts.
    """

    values: DenseTensor
    input_arity: int
    output_arity: int

    def __post_init__(self):
        v = self.values if isinstance(self.values, DenseTensor) else DenseTensor(self.values, context="credit")
        object.__setattr__(self, "values", v)
        if v.rank != 2:
            raise ShapeError(f"credit matrix must be rank 2, got rank {v.rank}")
        if v.shape != (self.input_arity, self.output_arity):
            raise ShapeError(
                f"credit matrix shape {v.shape} != declared arities "
                f"({self.input_arity}, {self.output_arity})"
            )

    @classmethod
    def of(cls, values) -> "CreditMatrix":
        """Wrap a rank-2 array, deriving both arities from its shape."""
        v = values if isinstance(values, DenseTensor) else DenseTensor(values, context="credit")
        if v.rank != 2:
            raise ShapeError(f"credit matrix must be rank 2, got rank {v.rank}")
        return cls(values=v, input_arity=v.shape[0], output_arity=v.shape[1])

    @classmethod
    def identity(cls, arity: int, dtype=np.float32) -> "CreditMatrix":
        return cls.of(DenseTensor(np.eye(arity, dtype=dtype), copy=False))

    @property
    def array(self) -> np.ndarray:
        return self.values.array


def credit_from_trace(trace: RoutingTrace) -> CreditMatrix:
    """The routing's attribution matrix: its final credit coefficients."""
    return CreditMatrix.of(trace.final_credit)


def compose_sequential(a: CreditMatrix, b: CreditMatrix) -> CreditMatrix:
    """Credit through routing a followed by routing b: the matrix product.

    Associative, so chains of any length reduce pairwise in any
    bracketing.
    """
    if a.output_arity != b.input_arity:
        raise ArityError(
            f"sequential composition needs a.output_arity == b.input_arity, "
            f"got {a.output_arity} and {b.input_arity}"
        )
    return CreditMatrix.of(DenseTensor(a.array @ b.array, copy=False))


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
    return CreditMatrix.of(DenseTensor(out, copy=False))


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
    return CreditMatrix.of(DenseTensor(out, copy=False))


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
    return CreditMatrix.of(DenseTensor(out, copy=False))


def end_to_end_three(c1: CreditMatrix, c2: CreditMatrix, c3: CreditMatrix) -> CreditMatrix:
    """Normalized end-to-end credit of a three-stage chain.

    The product c1.c2.c3 is divided by the population standard deviation
    of its elements, giving the result unit element-wise spread; any
    positive rescaling of a single stage cancels. A spread below
    ``SIGMA_FLOOR`` (an all-constant product) leaves the normalization
    undefined and raises instead of returning infinities.
    """
    product = compose_sequential(compose_sequential(c1, c2), c3).array
    sigma = float(np.std(np.asarray(product, dtype=np.float64)))
    if sigma < SIGMA_FLOOR:
        raise DegenerateCreditError(
            f"end-to-end credit spread {sigma:.3e} is below {SIGMA_FLOOR:.0e}; "
            "unit-variance normalization is undefined"
        )
    out = product / np.asarray(sigma, dtype=product.dtype)
    return CreditMatrix.of(DenseTensor(out, copy=False))


@dataclass(frozen=True)
class AttributionReport:
    """Per-group credit totals for each output.

    ``totals[g, j]`` sums the credit of every input in group g toward
    output j. Groups keep the order they were given in.
    """

    groups: tuple[tuple[int, ...], ...]
    totals: DenseTensor  # (n_groups, output_arity)

    def write_csv(self, path) -> None:
        """Emit rows (output_index, group_id, credit) for external plotting."""
        arr = self.totals.array
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["output_index", "group_id", "credit"])
            for j in range(arr.shape[1]):
                for g in range(arr.shape[0]):
                    writer.writerow([j, g, repr(float(arr[g, j]))])


def attribution_report(e2e: CreditMatrix, groups: Sequence[Sequence[int]]) -> AttributionReport:
    """Aggregate credit over a partition of the inputs.

    ``groups`` must cover every input index exactly once (token, patch,
    or region aggregation). Singleton groups reproduce the matrix;
    a single all-covering group gives column sums.
    """
    normalized: list[tuple[int, ...]] = []
    seen: set[int] = set()
    count = 0
    for g, group in enumerate(groups):
        members = tuple(int(i) for i in group)
        if not members:
            raise ValueError(f"group {g} is empty; not a partition")
        for i in members:
            if not 0 <= i < e2e.input_arity:
                raise ValueError(
                    f"group {g} names input {i}, outside [0, {e2e.input_arity})"
                )
            if i in seen:
                raise ValueError(f"input {i} appears in more than one group")
            seen.add(i)
        count += len(members)
        normalized.append(members)
    if count != e2e.input_arity:
        missing = sorted(set(range(e2e.input_arity)) - seen)
        raise ValueError(f"groups do not cover inputs {missing}; not a partition")

    # Every group's total adds its members one by one in the order given,
    # as a per-group sum does, but a step adds the k-th member of every
    # group at once: as many steps as the largest group has members.
    arr = e2e.array
    sizes = np.fromiter(map(len, normalized), np.intp, len(normalized))
    members = np.fromiter((i for group in normalized for i in group), np.intp, count)
    firsts = np.cumsum(sizes) - sizes
    totals = arr[members[firsts]]
    for k in range(1, int(sizes.max())):
        longer = sizes > k
        totals[longer] += arr[members[firsts[longer] + k]]
    return AttributionReport(
        groups=tuple(normalized),
        totals=DenseTensor(totals, copy=False, context="attribution totals"),
    )
