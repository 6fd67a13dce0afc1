"""Tensor substrate and scalar kernels."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vecroute import (
    ALWAYS_ON,
    DenseTensor,
    NumericError,
    ShapeError,
    as_array,
    log_logistic,
    logistic,
    normalize_vectors,
    softmax_rows,
    tensor,
)
from vecroute.memtrack import measure_peak

from oracles import log_logistic_scalar, logistic_scalar, normalize_rows_loops


class TestDenseTensor:
    def test_accepts_ranks_one_to_three(self):
        for shape in [(3,), (2, 4), (2, 3, 4)]:
            t = DenseTensor(np.ones(shape, dtype=np.float32))
            assert t.shape == shape
            assert t.rank == len(shape)

    def test_rejects_rank_zero_and_four(self):
        with pytest.raises(ShapeError):
            DenseTensor(np.float32(1.0))
        with pytest.raises(ShapeError):
            DenseTensor(np.ones((2, 2, 2, 2), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 0, 4)])
    def test_rejects_empty_extents(self, shape):
        with pytest.raises(ShapeError, match=f"^{re.escape(f'extents must be positive, got {shape}')}$"):
            DenseTensor(np.ones(shape, dtype=np.float32))

    def test_integer_literals_coerce_but_other_dtypes_fail(self):
        t = DenseTensor(np.ones((2, 2), dtype=np.int32))
        assert t.dtype == np.float32
        assert as_array(np.ones((2, 2), dtype=np.int64)).dtype == np.float32
        assert as_array([[1, 2]]).dtype == np.float32
        assert as_array(np.ones(3)).dtype == np.float64
        # as_array shares the tensor's rule: no silent cast to float32.
        for dtype in (np.complex128, np.complex64, np.bool_, np.float16):
            for intake in (DenseTensor, as_array):
                with pytest.raises(TypeError, match=f"^unsupported element type {np.dtype(dtype)}$"):
                    intake(np.ones((2, 2), dtype=dtype))

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(NumericError):
            DenseTensor(bad)
        with pytest.raises(NumericError):
            DenseTensor(np.array([np.inf], dtype=np.float64))
        # Strided views of large arrays count too.
        big = np.zeros((1001, 97), dtype=np.float32)
        big[-1, -1] = np.inf
        with pytest.raises(NumericError):
            DenseTensor(big)
        with pytest.raises(NumericError):
            as_array(big[:, ::-2])

    @pytest.mark.parametrize("index", [0, -1])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_finite_check_finds_a_non_finite_value_at_either_end(self, value, index):
        big = np.zeros(65537, dtype=np.float32)
        big[index] = value
        with pytest.raises(NumericError, match="^non-finite values in input$"):
            as_array(big)

    def test_finite_check_passes_an_empty_array(self):
        assert as_array(np.zeros((0, 4), dtype=np.float32)).shape == (0, 4)

    def test_storage_is_immutable(self):
        t = tensor([[1.0, 2.0]])
        with pytest.raises(ValueError):
            t.array[0, 0] = 9.0

    def test_size_matches_shape_product(self):
        t = DenseTensor(np.zeros((2, 3, 4), dtype=np.float32))
        assert t.size == 24

    def test_adopts_c_order_arrays_and_copies_others(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert np.shares_memory(DenseTensor(a, copy=False).array, a)
        b = np.arange(12, dtype=np.float32).reshape(3, 4)
        t = DenseTensor(b.T, copy=False)
        assert t.array.flags.c_contiguous and np.array_equal(t.array, b.T)
        assert b.flags.writeable


    def test_equality_needs_shape_dtype_and_values(self):
        a = tensor([[1.0, 2.0]])
        assert a == tensor([[1.0, 2.0]])
        assert a != tensor([1.0, 2.0])  # shape
        assert a != tensor([[1.0, 2.0]], np.float64)  # dtype
        assert a != tensor([[1.0, 3.0]])  # values
        assert a.__eq__(a.array) is NotImplemented
        assert a != "tensor"


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize(
    "kernel, name", [(softmax_rows, "softmax_rows"), (normalize_vectors, "normalize_vectors")]
)
def test_row_kernels_reject_rank_other_than_two(kernel, name, rank):
    with pytest.raises(ShapeError, match=f"^{name} expects rank 2, got rank {rank}$"):
        kernel(np.ones((3,) * rank, dtype=np.float32))


def test_transposed_input_matches_its_c_order_copy():
    # Rows of 37 elements, long enough for numpy's pairwise row sums,
    # which a strided row would otherwise skip.
    a = np.random.default_rng(11).standard_normal((37, 300)).astype(np.float32)
    c = np.ascontiguousarray(a.T)
    assert np.array_equal(DenseTensor(a.T, copy=False).array, c)
    assert np.array_equal(normalize_vectors(a.T).array, normalize_vectors(c).array)
    assert np.array_equal(softmax_rows(a.T).array, softmax_rows(c).array)


class TestLogistic:
    def test_symmetry_point(self):
        assert logistic(0.0) == 0.5

    def test_always_on_marker_is_exactly_one(self):
        assert logistic(ALWAYS_ON) == 1.0

    def test_saturates_without_overflow(self):
        assert logistic(-1.0e9) == pytest.approx(0.0, abs=1e-12)
        assert logistic(1.0e9) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_definition(self):
        zs = np.linspace(-30, 30, 61)
        got = logistic(zs)
        want = [logistic_scalar(z) for z in zs]
        assert_allclose(got, want, rtol=1e-12)

    def test_keeps_the_input_dtype(self):
        for dtype in (np.float32, np.float64):
            assert logistic(np.linspace(-100, 100, 9, dtype=dtype)).dtype == dtype

    def test_million_gates_take_one_input_sized_array(self):
        # The result is the only input-sized allocation: no branch
        # arrays, no dtype copy.
        z = np.random.default_rng(14).standard_normal(1_000_000, dtype=np.float32) * 30
        _, peak = measure_peak(lambda: logistic(z))
        assert peak < 1.5 * z.nbytes


class TestLogLogistic:
    def test_zero_gives_minus_log_two(self):
        assert log_logistic(0.0) == pytest.approx(-math.log(2.0), rel=1e-12)

    def test_large_positive_is_tiny_not_zero(self):
        v = float(log_logistic(50.0))
        assert v == pytest.approx(-math.exp(-50.0), rel=1e-6)
        assert v < 0.0

    def test_large_negative_tracks_asymptote(self):
        assert log_logistic(-50.0) == pytest.approx(-50.0, abs=1e-9)

    def test_agrees_with_log_of_logistic(self):
        zs = np.linspace(-30.0, 30.0, 121)
        assert_allclose(log_logistic(zs), np.log(logistic(zs)), atol=1e-6)

    def test_never_positive(self):
        zs = np.linspace(-100, 100, 201)
        assert np.all(np.asarray(log_logistic(zs)) <= 0.0)

    @pytest.mark.parametrize("dtype, int_view", [(np.float32, np.int32), (np.float64, np.int64)])
    def test_is_z_wherever_sigma_is_below_the_routing_floor(self, dtype, int_view):
        # The routing loop rescues a row whose sum of sigma(z) falls below
        # tiny / eps with the softmax of z itself, exact because there the
        # log-logistic rounds to z. Checked on every value within 2**18
        # ulps of the floor's edge, on random values below it, and on
        # magnitudes up to the largest finite.
        info = np.finfo(dtype)
        floor = info.tiny / info.eps
        edge = np.array(np.log(floor), dtype)
        near = (edge.view(int_view) + np.arange(-(2**18), 2**18, dtype=int_view)).view(dtype)
        rng = np.random.default_rng(12)
        below = rng.uniform(2.0 * edge, edge, 2**18).astype(dtype)
        far = -np.ldexp(rng.uniform(0.5, 1.0, 4096), rng.integers(8, info.maxexp, 4096))
        z = np.concatenate([near, below, far.astype(dtype), [-info.max]])
        rescued = logistic(z) < floor  # sigma as the routing loop computes it
        assert rescued.sum() > 2**18 and not rescued.all()
        assert np.array_equal(log_logistic(z[rescued]), z[rescued])


class TestSoftmaxRows:
    def test_uniform_case(self):
        out = softmax_rows(tensor(np.zeros((2, 4))))
        assert_allclose(out.array, 0.25)

    def test_closed_form(self):
        out = softmax_rows(tensor([[0.0, math.log(3.0)]]))
        assert_allclose(out.array, [[0.25, 0.75]], rtol=1e-6)

    def test_outlier_saturates_without_nan(self):
        out = softmax_rows(tensor([[0.0, 1000.0, 0.0]])).array
        assert not np.any(np.isnan(out))
        assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one_at_extreme_magnitudes(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((6, 5)).astype(np.float32) * np.float32(200.0)
        out = softmax_rows(tensor(scores)).array
        assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out >= 0.0)


class TestNormalizeVectors:
    def test_constant_row_maps_to_zeros(self):
        out = normalize_vectors(tensor([[1.0, 1.0, 1.0, 1.0]]))
        assert_allclose(out.array, 0.0)

    def test_already_normalized_row(self):
        out = normalize_vectors(tensor([[-1.0, 1.0]]))
        assert_allclose(out.array, [[-1.0, 1.0]], atol=1e-2)

    def test_hand_evaluated_row(self):
        out = normalize_vectors(tensor([[0.0, 2.0]]))
        assert_allclose(out.array, [[-1.0, 1.0]], atol=1e-2)

    def test_moments_and_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((7, 12))
        out = normalize_vectors(tensor(x, np.float64)).array
        assert np.max(np.abs(out.mean(axis=1))) <= 1e-6
        variances = out.var(axis=1)
        assert np.all(variances <= 1.0) and np.all(variances >= 1.0 - 1e-3)
        assert_allclose(out, normalize_rows_loops(x), rtol=1e-10, atol=1e-12)
