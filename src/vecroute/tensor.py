"""Dense tensor substrate and numerically stable scalar kernels.

Everything downstream (both routers, the credit algebra, the benchmark
harness) stores its numeric state in :class:`DenseTensor`: an immutable,
shape-checked, row-major array of rank 1 to 3. Default element type is
float32; float64 is supported for high-precision oracle checks and is
never serialized. A tensor, :func:`as_array` and the routers take
integer data as float32 and raise TypeError on any other element type.

A NaN or Inf is an error state. Building a DenseTensor checks that its
values are finite, so :func:`tensor`, :func:`softmax_rows` and
:func:`normalize_vectors` validate their results, and :func:`as_array`
validates an input that is not already a DenseTensor. The scalar kernels
:func:`logistic` and :func:`log_logistic` do not: they map NaN to NaN,
and their callers check the values they feed them or produce.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ALWAYS_ON",
    "AlwaysOn",
    "DenseTensor",
    "NumericError",
    "ShapeError",
    "VARIANCE_EPS",
    "as_array",
    "log_logistic",
    "logistic",
    "normalize_vectors",
    "softmax_rows",
    "tensor",
]

VARIANCE_EPS = 1e-5  # per-vector normalization epsilon, keeps constant rows finite

_ALLOWED_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when tensor extents do not line up for an operation."""


class NumericError(ArithmeticError):
    """Raised when an operation produces a non-finite value."""


class AlwaysOn:
    """Symbolic activation-score marker mapping to a gate of exactly 1.

    Standing in for an unboundedly large score, it avoids Inf arithmetic:
    ``logistic(ALWAYS_ON)`` is exactly ``1.0`` and routers treat it as a
    whole-sequence marker (all inputs fully activated, never gated).
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALWAYS_ON"


ALWAYS_ON = AlwaysOn()


def _all_finite(arr: np.ndarray) -> bool:
    """Whether no value of ``arr`` is NaN or infinite: min and max propagate
    NaN, so two reductions tell without a mask the size of the array."""
    return bool(arr.min() > -np.inf and arr.max() < np.inf)


def _allowed_dtype(arr: np.ndarray) -> np.ndarray:
    """``arr`` in an allowed element type: float32 and float64 stay, and
    integers, a convenience for literals, become float32. Any other type
    (bool, float16, complex, ...) is a bug and raises TypeError."""
    if arr.dtype in _ALLOWED_DTYPES:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"unsupported element type {arr.dtype}")
    return arr.astype(np.float32)


def _check_finite(arr: np.ndarray, context: str, iteration: int | None = None) -> None:
    if arr.size and not _all_finite(arr):
        where = f" at iteration {iteration}" if iteration is not None else ""
        raise NumericError(f"non-finite values in {context}{where}")


class DenseTensor:
    """Immutable row-major real tensor of rank 1 to 3.

    Wraps a read-only, C-contiguous numpy array. ``copy=False`` adopts a
    freshly computed C-order array without copying (copying any other);
    the adopted array is frozen.
    """

    __slots__ = ("_a",)

    def __init__(self, data, dtype=None, *, copy: bool = True, context: str = "tensor"):
        convert = np.array if copy else np.asarray  # asarray copies only when it must
        arr = _allowed_dtype(convert(data, dtype=dtype, order="C"))
        if not 1 <= arr.ndim <= 3:
            raise ShapeError(f"rank {arr.ndim} outside supported range 1..3")
        if min(arr.shape) < 1:
            raise ShapeError(f"extents must be positive, got {arr.shape}")
        _check_finite(arr, context)
        arr.setflags(write=False)
        self._a = arr

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "DenseTensor":
        """Freeze and wrap ``arr`` without the constructor's checks or scan.

        For a C-order array of an allowed dtype and rank that its producer
        has already proven finite; each caller names the check that does.
        """
        arr.setflags(write=False)
        wrapped = cls.__new__(cls)
        wrapped._a = arr
        return wrapped

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view of the stored data."""
        return self._a

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def rank(self) -> int:
        return self._a.ndim

    @property
    def dtype(self) -> np.dtype:
        return self._a.dtype

    @property
    def size(self) -> int:
        return self._a.size

    def astype(self, dtype) -> "DenseTensor":
        if self._a.dtype == np.dtype(dtype):
            return self
        return DenseTensor(self._a.astype(dtype), copy=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return (
            self._a.shape == other._a.shape
            and self._a.dtype == other._a.dtype
            and bool(np.array_equal(self._a, other._a))
        )

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self._a.shape}, dtype={self._a.dtype.name})"


def tensor(data, dtype=np.float32) -> DenseTensor:
    """Build a DenseTensor from nested lists or an array, copying the data."""
    return DenseTensor(data, dtype=dtype, copy=True)


def _float_array(x) -> np.ndarray:
    """A DenseTensor's array, or an array-like as an array of an allowed
    dtype (:func:`_allowed_dtype`), not scanned."""
    return x.array if isinstance(x, DenseTensor) else _allowed_dtype(np.asarray(x))


def as_array(x, name: str = "input") -> np.ndarray:
    """Coerce a DenseTensor or array-like to a validated numpy array."""
    arr = _float_array(x)
    if not isinstance(x, DenseTensor):  # a tensor was checked when it was built
        _check_finite(arr, name)
    return arr


def logistic(z):
    """Logistic gate 1 / (1 + e^(-z)) for any finite input.

    Accepts scalars, arrays, or the ALWAYS_ON marker (which maps to
    exactly 1.0). An overflowing e^(-z) saturates the gate to 0, and a
    vanishing one to 1. The result keeps a float input's dtype; other
    input computes in float64.
    """
    if isinstance(z, AlwaysOn):
        return 1.0
    arr = np.asarray(z)
    out = np.empty(arr.shape, np.result_type(arr, 0.0))
    np.negative(arr, out=out)
    _logistic_of_negated_into(out)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def _logistic_of_negated_into(neg_z: np.ndarray, log: np.ndarray | None = None) -> None:
    """sigma(z) = 1 / (1 + e^(-z)) from ``neg_z`` = -z, written over it.

    With ``log``, e^(-z) goes into ``log`` first, sigma is taken from
    there, and ``log`` then becomes log sigma(z) = -log1p(e^(-z)) in place.
    Where e^(-z) overflows it holds z instead, kept before sigma overwrites
    -z: there e^z is below the smallest normal, so z - log1p(e^z) rounds
    to z.
    """
    exp = neg_z if log is None else log
    with np.errstate(over="ignore"):  # e^(-z) = inf gives sigma = 0
        np.exp(neg_z, out=exp)
    overflow = None
    if log is not None and not log.max() < np.inf:
        overflow = np.isinf(log)
        z = np.negative(neg_z[overflow])
    np.add(exp, 1.0, out=neg_z)
    np.reciprocal(neg_z, out=neg_z)
    if log is not None:
        np.log1p(log, out=log)
        np.negative(log, out=log)
        if overflow is not None:
            log[overflow] = z


def _softmax_rows_in_place(scores: np.ndarray) -> None:
    """:func:`softmax_rows` of a rank-2 array, written back into it."""
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)


def log_logistic(z):
    """log of the logistic gate, computed as min(z, 0) - log1p(e^(-|z|)).

    Always <= 0; never overflows and keeps full precision in both tails
    (approaches z for large negative z, -e^(-z) for large positive z).
    Non-float input computes in float64.
    """
    arr = np.asarray(z)
    out = arr.astype(np.result_type(arr, 0.0))  # a copy, in the dtype of the arithmetic
    tail = np.abs(out, out=np.empty_like(out))  # out=: a 0-d result stays an array
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.minimum(out, 0.0, out=out)
    out -= tail
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def softmax_rows(scores: DenseTensor | np.ndarray) -> DenseTensor:
    """Row-wise softmax of a rank-2 tensor, stabilized by row-max subtraction."""
    arr = as_array(scores, "softmax_rows input")
    if arr.ndim != 2:
        raise ShapeError(f"softmax_rows expects rank 2, got rank {arr.ndim}")
    out = np.array(arr, order="C")  # rows reduce in C order whatever the input's layout
    _softmax_rows_in_place(out)
    return DenseTensor(out, copy=False, context="softmax_rows")


def normalize_vectors(x: DenseTensor | np.ndarray) -> DenseTensor:
    """Shift and scale each row to zero mean and unit variance.

    Variance is regularized by VARIANCE_EPS inside the square root, so a
    constant row maps to zeros instead of dividing by zero.
    """
    arr = as_array(x, "normalize_vectors input")
    if arr.ndim != 2:
        raise ShapeError(f"normalize_vectors expects rank 2, got rank {arr.ndim}")
    return DenseTensor(_normalized_rows(arr), copy=False, context="normalize_vectors")


def _normalized_rows(arr: np.ndarray) -> np.ndarray:
    """:func:`normalize_vectors` of a rank-2 array, as a fresh C-order
    array, not scanned."""
    arr = np.ascontiguousarray(arr)  # rows reduce in C order whatever the input's layout
    centered = arr - arr.mean(axis=1, keepdims=True)
    var = np.mean(centered * centered, axis=1, keepdims=True)
    centered /= np.sqrt(var + np.asarray(VARIANCE_EPS, dtype=arr.dtype))
    return centered
