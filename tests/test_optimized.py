"""Concrete memory-lean router: per-op oracles, equivalence, budgets."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vecroute import (
    BLOCK_ELEMENTS,
    DenseTensor,
    NumericError,
    RoutingDims,
    RoutingParams,
    ShapeError,
    VoteParamBudget,
    activation_scores,
    as_plugins,
    beta_pair_for,
    init_params,
    log_logistic,
    logistic,
    m_step_factored,
    materialized_votes,
    predict_inputs,
    route_optimized,
    route_reference,
    score_predictions,
    softmax_rows,
    total_param_count,
    transient_element_bound,
    vote_param_budget,
    vote_param_count,
)
from vecroute import optimized
from vecroute.memtrack import measure_peak

tensor_module = importlib.import_module("vecroute.tensor")  # the package's `tensor` is a function

from oracles import (
    activation_loops,
    assert_share_laws,
    betas_loops,
    credit_vote_sum_streamed,
    m_step_loops,
    predict_loops,
    rand_instance,
    rand_params,
    relative_linf,
    score_loops,
    votes_for_input,
    votes_loops,
)


class TestActivationScores:
    def test_matches_loop_oracle_both_modes(self):
        rng = np.random.default_rng(0)
        for mode in ("fixed", "variable"):
            for _ in range(5):
                dims, params, x = rand_instance(rng, mode)
                got = activation_scores(x, params)
                want = activation_loops(x, params.act_weight.array, params.act_bias.array)
                assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_zero_weight_gives_bias(self):
        rng = np.random.default_rng(1)
        dims, params, x = rand_instance(rng, "fixed")
        params = RoutingParams(
            dims,
            **{
                name: (t if name != "act_weight" else np.zeros(t.shape, np.float32))
                for name, t in params.field_items()
            },
        )
        assert np.array_equal(activation_scores(x, params), params.act_bias.array)

    def test_zero_input_gives_bias(self):
        rng = np.random.default_rng(2)
        dims, params, x = rand_instance(rng, "variable")
        z = np.zeros_like(x)
        got = activation_scores(z, params)
        assert_allclose(got, np.full(x.shape[0], params.act_bias.array[0]), atol=0)

    def test_explicit_two_by_three_case(self):
        dims = RoutingDims(2, 1, 3, 2, 2)
        params = init_params(
            dims,
            seed=0,
            overrides={
                "act_weight": np.asarray([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]], np.float32),
                "act_bias": np.asarray([0.25, -0.5], np.float32),
            },
        )
        x = np.asarray([[1.0, 1.0, 1.0], [2.0, 0.0, 2.0]], np.float32)
        want = np.asarray(
            [(1 + 2 + 3) / np.sqrt(2.0) + 0.25, (1 - 2) / np.sqrt(2.0) - 0.5],
            np.float32,
        )
        assert_allclose(activation_scores(x, params), want, rtol=1e-6)


class TestBetaPairFor:
    def test_fixed_mode_is_stored_tables(self):
        rng = np.random.default_rng(3)
        _, params, x = rand_instance(rng, "fixed")
        pair = beta_pair_for(x, params)
        assert pair.beta_use is params.beta_use
        assert pair.beta_ign is params.beta_ign

    def test_variable_mode_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            _, params, x = rand_instance(rng, "variable")
            pair = beta_pair_for(x, params)
            want_use = betas_loops(x, params.beta_use_weight.array, params.beta_use_bias.array)
            want_ign = betas_loops(x, params.beta_ign_weight.array, params.beta_ign_bias.array)
            assert_allclose(pair.beta_use.array, want_use, rtol=1e-5, atol=1e-6)
            assert_allclose(pair.beta_ign.array, want_ign, rtol=1e-5, atol=1e-6)

    def test_variable_mode_is_input_dependent(self):
        rng = np.random.default_rng(5)
        _, params, x = rand_instance(rng, "variable", n_inp_max=6)
        other = x + 1.0
        a = beta_pair_for(x, params).beta_use.array
        b = beta_pair_for(other, params).beta_use.array
        assert not np.array_equal(a, b)


class TestPredictInputs:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            dims, params, x = rand_instance(rng, "fixed")
            x_out = rng.standard_normal((dims.n_out, dims.d_out)).astype(np.float32)
            got = predict_inputs(x_out, params)
            want = predict_loops(
                x_out,
                params.pred_gate.array,
                params.pred_proj.array,
                params.pred_bias.array,
            )
            assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_constant_rows_give_bias(self):
        # A constant output row normalizes to zeros, leaving only the bias.
        rng = np.random.default_rng(7)
        dims, params, _ = rand_instance(rng, "fixed")
        x_out = np.full((dims.n_out, dims.d_out), 3.5, np.float32)
        assert_allclose(predict_inputs(x_out, params), params.pred_bias.array, atol=1e-6)

    def test_zero_gate_gives_bias(self):
        rng = np.random.default_rng(8)
        dims, params, _ = rand_instance(rng, "fixed")
        params = RoutingParams(
            dims,
            **{
                name: (t if name != "pred_gate" else np.zeros(t.shape, np.float32))
                for name, t in params.field_items()
            },
        )
        x_out = rng.standard_normal((dims.n_out, dims.d_out)).astype(np.float32)
        assert np.array_equal(predict_inputs(x_out, params), params.pred_bias.array)

    def test_scale_invariance_of_normalization(self):
        # Invariance is approximate: the variance floor is fixed, so it
        # weighs differently against scaled rows.
        rng = np.random.default_rng(9)
        dims, params, _ = rand_instance(rng, "fixed", d_max=16)
        x_out = rng.standard_normal((dims.n_out, dims.d_out)).astype(np.float32)
        scaled = (x_out * 40.0) + 0.0
        assert_allclose(
            predict_inputs(scaled, params), predict_inputs(x_out, params), atol=1e-4
        )


class TestScorePredictions:
    def test_matches_loop_oracle_both_modes(self):
        rng = np.random.default_rng(10)
        for mode in ("fixed", "variable"):
            for _ in range(5):
                dims, params, x = rand_instance(rng, mode)
                predicted = rng.standard_normal((dims.n_out, dims.d_inp)).astype(np.float32)
                got = score_predictions(x, predicted, params)
                want = score_loops(
                    x, predicted, params.score_gain.array, params.score_bias.array
                )
                assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_orthogonal_prediction_scores_log_half(self):
        dims = RoutingDims(2, 2, 2, 2, 2)
        params = init_params(dims, seed=0)  # score_bias starts at zero
        x = np.asarray([[1.0, 0.0], [0.0, 1.0]], np.float32)
        predicted = np.asarray([[0.0, 1.0], [1.0, 0.0]], np.float32)
        got = score_predictions(x, predicted, params)
        assert_allclose(np.diag(got), np.log(0.5), rtol=1e-6)

    def test_scores_never_positive(self):
        rng = np.random.default_rng(11)
        for mode in ("fixed", "variable"):
            dims, params, x = rand_instance(rng, mode)
            predicted = (rng.standard_normal((dims.n_out, dims.d_inp)) * 50).astype(np.float32)
            assert np.all(score_predictions(x, predicted, params) <= 0.0)


class TestMStepFactored:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        for mode in ("fixed", "variable"):
            for _ in range(5):
                dims, params, x = rand_instance(rng, mode)
                n_inp = x.shape[0]
                phi = (rng.standard_normal((n_inp, dims.n_out)) * 0.7).astype(np.float32)
                got = m_step_factored(x, phi, params)
                want = m_step_loops(
                    x,
                    phi,
                    params.vote_mix.array,
                    params.vote_proj.array,
                    params.vote_bias.array,
                )
                assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_matches_materialized_contraction(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            dims, params, x = rand_instance(rng, "fixed")
            phi = (rng.standard_normal((x.shape[0], dims.n_out)) * 0.7).astype(np.float32)
            votes = materialized_votes(x, params).array
            want = np.einsum("ij,ijh->jh", phi, votes)
            got = m_step_factored(x, phi, params)
            assert relative_linf(got, want) <= 1e-5

    def test_zero_credit_zero_output(self):
        rng = np.random.default_rng(14)
        dims, params, x = rand_instance(rng, "fixed")
        phi = np.zeros((x.shape[0], dims.n_out), np.float32)
        assert np.all(m_step_factored(x, phi, params) == 0.0)

    def test_single_input_is_weighted_vote(self):
        rng = np.random.default_rng(15)
        dims, params, x = rand_instance(rng, "fixed", n_inp_max=1)
        assert x.shape[0] == 1
        phi = np.asarray([[0.5] * dims.n_out], np.float32)
        want = 0.5 * votes_for_input(x, 0, params)
        assert_allclose(m_step_factored(x, phi, params), want, rtol=1e-5, atol=1e-6)

    def test_mixed_dtypes_keep_the_wider_dtype_bitwise(self):
        # Each product is taken in its operands' result dtype, as the
        # out-of-place formula below does; nothing is rounded to float32.
        rng = np.random.default_rng(35)
        for mode in ("fixed", "variable"):
            dims, params, x = rand_instance(rng, mode)
            phi = (rng.standard_normal((x.shape[0], dims.n_out)) * 0.7).astype(np.float32)
            for px, xx, pp in (
                (phi, x, params.astype(np.float64)),
                (phi.astype(np.float64), x, params),
                (phi, x.astype(np.float64), params),
            ):
                pooled, total = px.T @ xx, px.sum(axis=0)
                scale = pooled.dtype.type(1.0) / np.sqrt(np.asarray(xx.shape[0], dtype=pooled.dtype))
                want = ((pp.vote_mix.array * pooled) @ pp.vote_proj.array) * scale
                want += total[:, None] * pp.vote_bias.array
                got = m_step_factored(xx, px, pp)
                assert got.dtype == np.float64 == want.dtype, mode
                assert np.array_equal(got, want), (mode, px.dtype, xx.dtype, pp.dtype)


class TestVoteViews:
    def test_materialized_matches_loop_oracle(self):
        rng = np.random.default_rng(16)
        dims, params, x = rand_instance(rng, "fixed")
        got = materialized_votes(x, params).array
        want = votes_loops(
            x, params.vote_mix.array, params.vote_proj.array, params.vote_bias.array
        )
        assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_row_view_matches_materialized(self):
        rng = np.random.default_rng(17)
        dims, params, x = rand_instance(rng, "variable")
        votes = materialized_votes(x, params).array
        for i in range(x.shape[0]):
            assert_allclose(votes_for_input(x, i, params), votes[i], rtol=1e-5, atol=1e-6)


class TestRouteOptimized:
    def test_first_iteration_uses_flat_prior(self):
        rng = np.random.default_rng(18)
        dims, params, x = rand_instance(rng, "fixed")
        _, trace = route_optimized(x, params, capture_trace=True)
        assert np.all(trace.iterations[0].routing.array == np.float32(1.0 / dims.n_out))

    def test_equivalent_to_reference_router(self):
        rng = np.random.default_rng(19)
        dims, params, x = rand_instance(
            rng, "fixed", n_inp_max=8, n_out_max=4, d_max=16, n_iters_choices=(3,)
        )
        out_fast, trace_fast = route_optimized(x, params, capture_trace=True)
        nets, betas = as_plugins(x, params)
        out_ref, trace_ref = route_reference(x, nets, betas, dims)
        assert relative_linf(out_fast.array, out_ref.array) <= 1e-4
        for rec_fast, rec_ref in zip(trace_fast.iterations, trace_ref.iterations):
            assert relative_linf(rec_fast.routing.array, rec_ref.routing.array) <= 1e-4
            assert relative_linf(rec_fast.credit.array, rec_ref.credit.array) <= 1e-4

    @pytest.mark.parametrize("dtype, scale", [(np.float32, 1e6), (np.float64, 1e12)], ids=["float32", "float64"])
    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    def test_one_output_routes_as_exactly_as_the_reference(self, mode, dtype, scale):
        # With one output every input routes wholly to it: used = g and
        # ignored = 0 exactly, as in the reference, in every iteration, so
        # ignore coefficients scaled far past the use ones add nothing. A
        # used share of sigma * g / S would leave an ulp of g ignored, times
        # the scaled coefficient in the credit.
        rng = np.random.default_rng(70)
        names = ("beta_ign",) if mode == "fixed" else ("beta_ign_weight", "beta_ign_bias")
        tol = 1e-4 if dtype == np.float32 else 1e-10
        for _ in range(20):
            dims, params, x = rand_instance(rng, mode, n_out_max=1)
            p = params.astype(dtype)
            p = replaced(p, dims, **{name: getattr(p, name).array * dtype(scale) for name in names})
            x = x.astype(dtype)
            out, trace = route_optimized(x, p, capture_trace=True)
            nets, betas = as_plugins(x, p)
            out_ref, _ = route_reference(x, nets, betas, dims)
            assert relative_linf(out.array, out_ref.array) <= tol
            assert all(not record.share_ignored.array.any() for record in trace.iterations)

    def test_one_output_keeps_the_use_term_beside_a_huge_ignore_term(self):
        # Float64, 6 x 1, with act_weight, vote_mix, pred_bias and beta_ign
        # scaled by 1e60: the gates saturate to exactly 0 or 1, and in the
        # a-form a = bu + bi rounds to bi, so w - g * bi cancelled bu away
        # and every pooled sum was exactly 0, where the reference reads
        # about 1e60. One output pools whole credits, whose ignore half is 0.
        rng = np.random.default_rng(71)
        dims = RoutingDims(6, 1, 28, 13, 4)
        for _ in range(5):
            params = rand_params(rng, dims, 6).astype(np.float64)
            scaled = ("act_weight", "vote_mix", "pred_bias", "beta_ign")
            p = replaced(params, dims, **{name: getattr(params, name).array * 1e60 for name in scaled})
            x = rng.standard_normal((6, 28))
            out, _ = route_optimized(x, p)
            nets, betas = as_plugins(x, p)
            out_ref, _ = route_reference(x, nets, betas, dims)
            assert relative_linf(out.array, out_ref.array) <= 1e-10

    def test_always_on_configuration_is_softmax_mixture(self):
        rng = np.random.default_rng(20)
        dims, params, x = rand_instance(rng, "fixed", n_iters_choices=(3,))
        overrides = {}
        for name, t in params.field_items():
            arr = t.array
            if name == "act_weight":
                arr = np.zeros(t.shape, np.float32)
            elif name == "act_bias":
                arr = np.full(t.shape, 30.0, np.float32)  # logistic(30) == 1 in f32
            elif name == "beta_use":
                arr = np.ones(t.shape, np.float32)
            elif name == "beta_ign":
                arr = np.zeros(t.shape, np.float32)
            overrides[name] = arr
        params = RoutingParams(dims, **overrides)
        _, trace = route_optimized(x, params, capture_trace=True)
        assert np.all(trace.activation_gates.array == 1.0)
        votes = materialized_votes(x, params).array
        for record in trace.iterations:
            mixture = np.einsum("ij,ijh->jh", record.routing.array, votes)
            assert relative_linf(record.output.array, mixture) <= 1e-5

    def test_trace_off_keeps_final_credit(self):
        rng = np.random.default_rng(21)
        dims, params, x = rand_instance(rng, "variable")
        out_off, trace_off = route_optimized(x, params)
        out_on, trace_on = route_optimized(x, params, capture_trace=True)
        assert trace_off.iterations == ()
        assert trace_off.activation_scores is None
        assert np.array_equal(out_off.array, out_on.array)
        assert np.array_equal(
            trace_off.final_credit.array, trace_on.final_credit.array
        )

    def test_rejects_mismatched_rows_and_dtype(self):
        rng = np.random.default_rng(23)
        dims, params, x = rand_instance(rng, "fixed", n_inp_max=4)
        with pytest.raises(ShapeError, match="rows"):
            route_optimized(np.vstack([x, x]), params)
        with pytest.raises(TypeError, match="dtype"):
            route_optimized(x.astype(np.float64), params)
        with pytest.raises(ShapeError, match="^x_inp must be rank 2, got rank 1$"):
            route_optimized(x[0], params)
        with pytest.raises(
            ShapeError, match=f"^x_inp has {dims.d_inp + 1} columns, params fix d_inp={dims.d_inp}$"
        ):
            route_optimized(np.hstack([x, x[:, :1]]), params)

    def test_structure_is_checked_before_values(self):
        # The values of x_inp are scanned only once the activations fail,
        # so a misshapen or mistyped non-finite input names its structure.
        rng = np.random.default_rng(53)
        dims, params, x = rand_instance(rng, "fixed")
        x[0, 0] = np.nan
        with pytest.raises(ShapeError, match="^x_inp must be rank 2"):
            route_optimized(x[None], params)
        with pytest.raises(ShapeError, match="rows, params fix"):
            route_optimized(np.vstack([x, x]), params)
        with pytest.raises(ShapeError, match="columns, params fix"):
            route_optimized(x[:, 1:], params)
        with pytest.raises(TypeError, match="^x_inp dtype float64"):
            route_optimized(x.astype(np.float64), params)
        with pytest.raises(NumericError, match="^non-finite values in x_inp$"):
            route_optimized(x, params)

    def test_variable_mode_accepts_any_length(self):
        rng = np.random.default_rng(24)
        dims, params, x = rand_instance(rng, "variable")
        for rows in (1, 3, 17):
            xs = rng.standard_normal((rows, dims.d_inp)).astype(np.float32)
            out, _ = route_optimized(xs, params)
            assert out.shape == (dims.n_out, dims.d_out)

    def test_empty_sequence_is_a_shape_error_in_both_routers(self):
        rng = np.random.default_rng(25)
        dims, params, x = rand_instance(rng, "variable")
        empty = np.zeros((0, dims.d_inp), np.float32)
        with pytest.raises(ShapeError, match="x_inp has 0 rows"):
            route_optimized(empty, params)
        nets, betas = as_plugins(x, params)
        with pytest.raises(ShapeError):
            route_reference(empty, nets, betas, dims)

    @pytest.mark.parametrize("dtype", [np.complex64, np.bool_, np.float16])
    def test_both_routers_reject_unsupported_element_types(self, dtype):
        # Neither router casts them: a complex input would lose its
        # imaginary part, and bool or float16 would route as float32.
        rng = np.random.default_rng(26)
        dims, params, x = rand_instance(rng, "variable")
        bad = x.astype(dtype)
        message = f"^unsupported element type {np.dtype(dtype)}$"
        with pytest.raises(TypeError, match=message):
            route_optimized(bad, params)
        nets, betas = as_plugins(x, params)
        with pytest.raises(TypeError, match=message):
            route_reference(bad, nets, betas, dims)


class TestRoutingParamsValidation:
    def tensors(self, mode):
        rng = np.random.default_rng(26)
        dims, params, _ = rand_instance(rng, mode)
        return dims, {name: t.array for name, t in params.field_items()}

    def test_missing_name(self):
        dims, tensors = self.tensors("fixed")
        del tensors["pred_gate"]
        with pytest.raises(
            ValueError, match=r"parameter names mismatch: missing \['pred_gate'\], extra \[\]"
        ):
            RoutingParams(dims, **tensors)

    def test_name_from_the_other_layout(self):
        dims, tensors = self.tensors("variable")
        tensors["beta_use"] = tensors["beta_use_bias"]
        with pytest.raises(
            ValueError, match=r"parameter names mismatch: missing \[\], extra \['beta_use'\]"
        ):
            RoutingParams(dims, **tensors)

    def test_wrong_shape_names_the_field(self):
        dims, tensors = self.tensors("variable")
        tensors["score_gain"] = np.zeros((dims.n_out + 1,), np.float32)
        with pytest.raises(ShapeError, match="score_gain shape"):
            RoutingParams(dims, **tensors)

    def test_mixed_dtypes(self):
        dims, tensors = self.tensors("fixed")
        tensors["vote_bias"] = tensors["vote_bias"].astype(np.float64)
        with pytest.raises(ValueError, match="parameters mix dtypes"):
            RoutingParams(dims, **tensors)

    def test_nan_in_raw_array_names_the_field(self):
        dims, tensors = self.tensors("variable")
        bad = tensors["beta_ign_weight"].copy()
        bad[0, 0] = np.nan
        tensors["beta_ign_weight"] = bad
        with pytest.raises(NumericError, match="beta_ign_weight"):
            RoutingParams(dims, **tensors)

    def test_valid_set_reads_by_attribute_in_canonical_order(self):
        dims, tensors = self.tensors("fixed")
        params = RoutingParams(dims, **dict(reversed(tensors.items())))
        assert [name for name, _ in params.field_items()] == list(tensors)
        assert np.array_equal(params.vote_mix.array, tensors["vote_mix"])
        with pytest.raises(AttributeError):
            params.beta_use_weight


# The block size the multi-block instances below are sized from. Their
# float32 gates were set at it: at the default the variable instance grows
# to 4181 inputs, and its 1e10-scale scores then put the infinite-score
# routing 1.03e-4 from the reference's, by float32 execution order alone.
PINNED_BLOCK_ELEMENTS = 65536


@pytest.fixture
def pinned_block_size(monkeypatch):
    monkeypatch.setattr(optimized, "BLOCK_ELEMENTS", PINNED_BLOCK_ELEMENTS)


def multi_block_instance(rng, mode, n_out=64, d=12, n_iters=3, gram_overflow=False):
    """(dims, params, x, rows): inputs span three blocks, the last ragged.

    Sized from the block size in force, so use it with ``pinned_block_size``.
    With ``gram_overflow`` the inputs are scaled by 1e19, which overflows
    the variable layout's closed-form Gram matrix (x_a * x_b > 3.4e38), and
    the coefficients (their weights, or the fixed layout's tables) by 1e-20,
    which keeps the direct sums and every later stage finite.
    """
    rows = optimized.BLOCK_ELEMENTS // n_out
    n_inp = 2 * rows + rows // 3
    dims = RoutingDims(n_inp if mode == "fixed" else None, n_out, d, d, n_iters)
    params = rand_params(rng, dims, n_inp)
    x = rng.standard_normal((n_inp, d), dtype=np.float32)
    if gram_overflow:
        x *= np.float32(1e19)
        names = ("beta_use", "beta_ign") if mode == "fixed" else ("beta_use_weight", "beta_ign_weight")
        params = replaced(params, dims, **{name: getattr(params, name).array * np.float32(1e-20) for name in names})
    return dims, params, x, rows


def replaced(params, dims, **arrays):
    return RoutingParams(
        dims, **{name: arrays.get(name, t) for name, t in params.field_items()}
    )


def pinned_predictions(params, dims, values, gain=1.0):
    """Params whose predictions hold ``values[k]`` in feature k for every output.

    Input i's score against output j is then gain * (sum_k x[i, k] *
    values[k] + r_ij) + bias, with r_ij over the remaining features, so
    the leading features of a block's inputs steer its scores.
    """
    k = len(values)
    pred_gate = params.pred_gate.array.copy()
    pred_bias = params.pred_bias.array.copy()
    pred_gate[:, :k] = 0.0
    pred_bias[:, :k] = values
    score_gain = np.full(params.score_gain.shape, gain, np.float32)
    return replaced(params, dims, pred_gate=pred_gate, pred_bias=pred_bias, score_gain=score_gain)


@pytest.mark.usefixtures("pinned_block_size")
class TestBlockedLoop:
    def test_matches_reference_across_blocks(self):
        rng = np.random.default_rng(27)
        for mode in ("fixed", "variable"):
            dims, params, x, _ = multi_block_instance(rng, mode)
            for dtype, tol in ((np.float32, 1e-4), (np.float64, 1e-10)):
                p, xx = params.astype(dtype), x.astype(dtype)
                out_fast, _ = route_optimized(xx, p)
                nets, betas = as_plugins(xx, p)
                out_ref, _ = route_reference(xx, nets, betas, dims, capture_trace=False)
                assert relative_linf(out_fast.array, out_ref.array) <= tol, (mode, dtype)

    def test_trace_on_and_off_agree_bitwise_across_blocks(self):
        rng = np.random.default_rng(28)
        for mode in ("fixed", "variable"):
            _, params, x, _ = multi_block_instance(rng, mode)
            out_off, trace_off = route_optimized(x, params)
            out_on, trace_on = route_optimized(x, params, capture_trace=True)
            assert np.array_equal(out_off.array, out_on.array)
            assert np.array_equal(trace_off.final_credit.array, trace_on.final_credit.array)
            assert trace_on.final_credit is trace_on.iterations[-1].credit
            assert_share_laws(trace_on)

    def test_score_error_in_last_ragged_block_names_iteration(self):
        # Only the last block's score tables overflow: gain * inner + bias
        # reaches -inf wherever the inner product is below about -0.13.
        rng = np.random.default_rng(29)
        dims, params, x, rows = multi_block_instance(rng, "fixed")
        last = slice(2 * rows, None)
        gain = params.score_gain.array.copy()
        bias = params.score_bias.array.copy()
        gain[last] = 3e38
        bias[last] = -3e38
        bad = replaced(params, dims, score_gain=gain, score_bias=bias)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="score at iteration 2"):
            route_optimized(x, bad)

    @pytest.mark.parametrize("which", ["beta_use", "beta_ign"])
    def test_beta_overflow_in_later_block_names_the_coefficients(self, which):
        rng = np.random.default_rng(30)
        dims, params, x, rows = multi_block_instance(rng, "variable")
        x[: 2 * rows] *= np.float32(1e-3)  # the first two blocks stay finite
        weight = np.full((dims.d_inp, dims.n_out), 3e38, np.float32)
        bad = replaced(params, dims, **{f"{which}_weight": weight})
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=f"{which} coefficients"):
                route_optimized(x, bad)
            with pytest.raises(NumericError, match=f"{which} coefficients"):
                beta_pair_for(x, bad)

    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    @pytest.mark.parametrize("d, n_out", [(16, 64), (64, 16)], ids=["closed_form_shape", "block_path_shape"])
    def test_block_size_changes_only_rounding(self, mode, d, n_out, monkeypatch):
        # One-row blocks, ragged blocks of 7 rows and the default split (one
        # block here) route alike up to float64 rounding, and at each block
        # size trace on and off agree bitwise. The variable layout takes
        # iteration 1 in closed form at the first shape only.
        rng = np.random.default_rng(36)
        n_inp = 600
        dims = RoutingDims(n_inp if mode == "fixed" else None, n_out, d, d, 3)
        params = rand_params(rng, dims, n_inp).astype(np.float64)
        x = rng.standard_normal((n_inp, d))
        results = []
        for block_elements in (n_out, 7 * n_out, BLOCK_ELEMENTS):
            monkeypatch.setattr(optimized, "BLOCK_ELEMENTS", block_elements)
            out_off, trace_off = route_optimized(x, params)
            out, trace = route_optimized(x, params, capture_trace=True)
            assert np.array_equal(out_off.array, out.array)
            assert np.array_equal(trace_off.final_credit.array, trace.final_credit.array)
            arrays = {"output": out.array, "final_credit": trace.final_credit.array}
            for it, record in enumerate(trace.iterations, start=1):
                for field in dataclasses.fields(record):
                    value = getattr(record, field.name)
                    if value is not None:
                        arrays[f"{field.name} at iteration {it}"] = value.array
            results.append(arrays)
        default = results[-1]
        for arrays in results[:-1]:
            assert arrays.keys() == default.keys()
            for name, value in default.items():
                assert relative_linf(arrays[name], value) <= 1e-12, name

    @pytest.mark.parametrize("mode, n_out", [("fixed", 1), ("variable", 4)])
    def test_product_that_does_not_fit_the_dead_workspace_is_pooled_fresh(self, mode, n_out, monkeypatch):
        # A block of whole credits pools its n_out x d_inp product into the
        # workspace that its credit leaves dead: the variable layout's slots
        # 1-2, the fixed layout's one slot (one output pools whole credits,
        # in the final credit's rows). At 5-row blocks, the last ragged,
        # d_inp = 24 exceeds those free rows (2 * 5 and 5), so every product
        # is a fresh array; at the default size, one block of 29 rows, it
        # fits. Both route within criterion 1's tolerances of the
        # reference, and trace on and off agree bitwise.
        rng = np.random.default_rng(72)
        n_inp, d = 29, 24
        dims = RoutingDims(n_inp if mode == "fixed" else None, n_out, d, d, 3)
        params = rand_params(rng, dims, n_inp)
        x = rng.standard_normal((n_inp, d), dtype=np.float32)
        for block_elements in (5 * n_out, BLOCK_ELEMENTS):
            monkeypatch.setattr(optimized, "BLOCK_ELEMENTS", block_elements)
            for dtype, tol in ((np.float32, 1e-4), (np.float64, 1e-10)):
                p, xx = params.astype(dtype), x.astype(dtype)
                out, _ = route_optimized(xx, p)
                out_on, _ = route_optimized(xx, p, capture_trace=True)
                assert np.array_equal(out.array, out_on.array)
                nets, betas = as_plugins(xx, p)
                out_ref, _ = route_reference(xx, nets, betas, dims, capture_trace=False)
                assert relative_linf(out.array, out_ref.array) <= tol, (block_elements, dtype)

    @pytest.mark.parametrize(
        "mode, d",
        [("fixed", 8), ("variable", 2), ("variable", 8)],
        ids=["fixed", "variable_closed_form", "variable_linear"],
    )
    def test_single_output_gates_fill_the_whole_final_credit(self, mode, d, monkeypatch):
        # With the trace off the gates live in the final credit's last
        # n_inp elements, which at n_out = 1 are all of it: each block
        # overwrites its own gates with its credit, so it must read them
        # first. Blocks of 7 rows over 40 inputs, the last ragged; the
        # variable layout takes iteration 1 in closed form at d = 2 only.
        monkeypatch.setattr(optimized, "BLOCK_ELEMENTS", 7)
        rng = np.random.default_rng(53)
        n_inp = 40
        dims = RoutingDims(n_inp if mode == "fixed" else None, 1, d, d, 3)
        params = rand_params(rng, dims, n_inp)
        x = rng.standard_normal((n_inp, d), dtype=np.float32)
        out_off, trace_off = route_optimized(x, params)
        out_on, trace_on = route_optimized(x, params, capture_trace=True)
        assert np.array_equal(out_off.array, out_on.array)
        assert np.array_equal(trace_off.final_credit.array, trace_on.final_credit.array)
        assert_share_laws(trace_on)

    # The variable layout computes iteration 1 in closed form from a
    # gated Gram matrix when d_inp < 3 * n_out, as in the instances above;
    # these instances (d_inp >= 3 * n_out) keep iteration 1 on the blocks.
    DIRECT_FIRST_ITERATION = dict(n_out=4, d=16)
    # The closed form falls back to the blocks; normalizing the outputs overflows.
    GRAM_OVERFLOW = pytest.param(
        dict(gram_overflow=True), marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    )

    def test_direct_first_iteration_matches_reference(self):
        rng = np.random.default_rng(31)
        dims, params, x, _ = multi_block_instance(rng, "variable", **self.DIRECT_FIRST_ITERATION)
        for dtype, tol in ((np.float32, 1e-4), (np.float64, 1e-10)):
            p, xx = params.astype(dtype), x.astype(dtype)
            out_fast, _ = route_optimized(xx, p)
            nets, betas = as_plugins(xx, p)
            out_ref, _ = route_reference(xx, nets, betas, dims, capture_trace=False)
            assert relative_linf(out_fast.array, out_ref.array) <= tol, dtype

    def test_direct_first_iteration_trace_on_and_off_agree_bitwise(self):
        rng = np.random.default_rng(32)
        _, params, x, _ = multi_block_instance(rng, "variable", **self.DIRECT_FIRST_ITERATION)
        out_off, trace_off = route_optimized(x, params)
        out_on, trace_on = route_optimized(x, params, capture_trace=True)
        assert np.array_equal(out_off.array, out_on.array)
        assert np.array_equal(trace_off.final_credit.array, trace_on.final_credit.array)
        assert_share_laws(trace_on)

    @pytest.mark.parametrize("which", ["beta_use", "beta_ign"])
    def test_direct_first_iteration_beta_overflow_names_the_coefficients(self, which):
        rng = np.random.default_rng(33)
        dims, params, x, rows = multi_block_instance(rng, "variable", **self.DIRECT_FIRST_ITERATION)
        x[: 2 * rows] *= np.float32(1e-3)  # the first two blocks stay finite
        weight = np.full((dims.d_inp, dims.n_out), 3e38, np.float32)
        bad = replaced(params, dims, **{f"{which}_weight": weight})
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=f"{which} coefficients"):
            route_optimized(x, bad)

    def test_direct_iterations_match_the_float64_reference(self):
        # Random beta weights and biases, so iteration 1's linear credit
        # g * (x . w1 + c1) has both terms; three blocks, the last ragged.
        rng = np.random.default_rng(42)
        dims, params, x, _ = multi_block_instance(rng, "variable", **self.DIRECT_FIRST_ITERATION)
        p64, x64 = params.astype(np.float64), x.astype(np.float64)
        nets, betas = as_plugins(x64, p64)
        _, trace_ref = route_reference(x64, nets, betas, dims)
        for dtype, first_tol, later_tol in ((np.float32, 1e-6, 1e-4), (np.float64, 1e-12, 1e-10)):
            _, trace = route_optimized(x.astype(dtype), params.astype(dtype), capture_trace=True)
            got = [record.output.array for record in trace.iterations]
            want = [record.output.array for record in trace_ref.iterations]
            assert relative_linf(got[0], want[0]) <= first_tol, dtype
            for it, (g, w) in enumerate(zip(got[1:], want[1:]), start=2):
                assert relative_linf(g, w) <= later_tol, (dtype, it)

    def test_fixed_first_iteration_matches_the_float64_reference(self):
        # The fixed layout's iteration-1 credit of the a-form, (beta_use +
        # beta_ign) * (g * p) - g * beta_ign, comes from random stored
        # tables; three blocks, the last ragged.
        rng = np.random.default_rng(44)
        dims, params, x, _ = multi_block_instance(rng, "fixed")
        p64, x64 = params.astype(np.float64), x.astype(np.float64)
        nets, betas = as_plugins(x64, p64)
        _, trace_ref = route_reference(x64, nets, betas, dims)
        want = trace_ref.iterations[0]
        for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
            _, trace = route_optimized(x.astype(dtype), params.astype(dtype), capture_trace=True)
            got = trace.iterations[0]
            assert relative_linf(got.credit.array, want.credit.array) <= tol, dtype
            assert relative_linf(got.output.array, want.output.array) <= tol, dtype

    def test_fixed_first_iteration_is_finite_wherever_the_coefficients_are(self):
        # With beta_use = beta_ign = 3e38, a = beta_use + beta_ign
        # overflows, so iteration 1 gives up the a-form, but its whole
        # credit beta_use * (g * p) - beta_ign * (g - g * p) does not. Gates
        # near e^-60 keep every credit and sum finite.
        rng = np.random.default_rng(45)
        dims, params, x, _ = multi_block_instance(rng, "fixed")
        big = np.full((dims.n_inp, dims.n_out), 3e38, np.float32)
        act_bias = np.full(dims.n_inp, -60.0, np.float32)
        p = replaced(params, dims, beta_use=big, beta_ign=big, act_bias=act_bias)
        out, _ = route_optimized(x, p)
        nets, betas = as_plugins(x, p)
        out_ref, _ = route_reference(x, nets, betas, dims, capture_trace=False)
        assert relative_linf(out.array, out_ref.array) <= 1e-4

    @pytest.mark.parametrize("which", ["beta_use", "beta_ign"])
    def test_beta_overflow_first_met_in_a_later_iteration_names_the_coefficients(self, which):
        # Feature 0 is 4 on ten rows of the last block and 0 elsewhere, and
        # its weight of 1e38 overflows those rows' coefficients. Feature 1
        # drives their activation to -5000, a gate of exactly 0, so their
        # iteration-1 credit g * (x . w1 + c1) is 0 and iteration 1 stays
        # finite: iteration 2's matmul meets the overflow first.
        rng = np.random.default_rng(43)
        dims, params, x, rows = multi_block_instance(rng, "variable", **self.DIRECT_FIRST_ITERATION)
        hit = slice(2 * rows, 2 * rows + 10)
        x[:, :2] = 0.0
        x[hit, 0] = 4.0
        x[hit, 1] = -1.0
        act = params.act_weight.array.copy()
        act[1] = 5000.0 * np.sqrt(np.float32(x.shape[0]))
        weight = getattr(params, f"{which}_weight").array.copy()
        weight[0] = 1e38
        bad = replaced(params, dims, act_weight=act, **{f"{which}_weight": weight})
        for capture_trace in (False, True):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericError, match=f"{which} coefficients"):
                    route_optimized(x, bad, capture_trace=capture_trace)
        assert np.all(logistic(activation_scores(x, bad))[hit] == 0.0)

    def test_closed_form_first_iteration_matches_direct_sums(self):
        # Iteration 1's recorded credit is computed block by block; the
        # direct M-step over it, taken in float64, must give the closed
        # form's output. The float32 direct sums are the less accurate
        # side (about 1e-6 from float64 here, the closed form about 1e-7),
        # so each dtype's closed form is held to the float64 sums.
        # With n_out=4, d=11 the Gram matrix sums two blocks of inputs.
        rng = np.random.default_rng(34)
        for sizes in (dict(), dict(n_out=4, d=11)):
            _, params, x, _ = multi_block_instance(rng, "variable", **sizes)
            p64, x64 = params.astype(np.float64), x.astype(np.float64)
            _, trace64 = route_optimized(x64, p64, capture_trace=True)
            direct = m_step_factored(x64, trace64.iterations[0].credit.array, p64)
            for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
                p, xx = params.astype(dtype), x.astype(dtype)
                _, trace = route_optimized(xx, p, capture_trace=True)
                got = trace.iterations[0].output.array
                assert relative_linf(got, direct) <= tol, (sizes, dtype)

    def test_score_error_before_later_beta_overflow_names_the_coefficients(self):
        # Feature 0 is zero in the first two blocks. Its beta_use weights
        # overflow the third block's coefficients, but cancel exactly in
        # the flat-prior credit (p * W_use == (1 - p) * W_ign with
        # p = 1/64), so iteration 1 stays finite. Every score overflows
        # where gain * inner + bias passes -3.4e38, so iteration 2 fails
        # in the first block, before the third block's betas are seen.
        rng = np.random.default_rng(35)
        dims, params, x, rows = multi_block_instance(rng, "variable")
        x[: 2 * rows, 0] = 0.0
        x[2 * rows, 0] = 4.0
        use = params.beta_use_weight.array.copy()
        ign = params.beta_ign_weight.array.copy()
        use[0], ign[0] = 63 * 2.0**121, 2.0**121
        gain = np.full(dims.n_out, 3e38, np.float32)
        bias = np.full(dims.n_out, -3e38, np.float32)
        scores_only = replaced(params, dims, score_gain=gain, score_bias=bias)
        both = replaced(
            params, dims, score_gain=gain, score_bias=bias, beta_use_weight=use, beta_ign_weight=ign
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="score at iteration 2"):
                route_optimized(x, scores_only)
            with pytest.raises(NumericError, match="beta_use coefficients"):
                route_optimized(x, both)
            with pytest.raises(NumericError, match="beta_use coefficients"):
                route_optimized(x, both, capture_trace=True)

    def test_gram_overflow_falls_back_to_the_direct_sums(self):
        rng = np.random.default_rng(36)
        dims, p, x, _ = multi_block_instance(rng, "variable", n_iters=2, gram_overflow=True)
        with np.errstate(over="ignore", invalid="ignore"):
            out, _ = route_optimized(x, p)
            nets, betas = as_plugins(x, p)
            out_ref, _ = route_reference(x, nets, betas, dims, capture_trace=False)
        assert relative_linf(out.array, out_ref.array) <= 1e-4

    # Iterations >= 2 route by sigma(z) / sum_j sigma(z_j); a row whose
    # sum falls below tiny / eps of the dtype is rescued by the
    # max-shifted softmax of z instead.

    def test_routing_record_is_softmax_of_scores_record(self):
        rng = np.random.default_rng(37)
        for mode in ("fixed", "variable"):
            _, params, x, _ = multi_block_instance(rng, mode)
            for dtype, tol in ((np.float32, 1e-6), (np.float64, 1e-12)):
                _, trace = route_optimized(x.astype(dtype), params.astype(dtype), capture_trace=True)
                for record in trace.iterations[1:]:
                    expected = softmax_rows(record.scores.array).array
                    assert np.max(np.abs(record.routing.array - expected)) <= tol, (mode, dtype)

    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    def test_underflowing_last_block_takes_the_softmax(self, mode, monkeypatch):
        # Feature 0 shifts z by -95 (float32) or -800 (float64) in the last
        # block only, so every sigma there underflows below the floor and
        # that block alone takes the softmax, once per later iteration.
        softmax_blocks = []
        softmax = optimized._softmax_rows_in_place

        def counted_softmax(scores):
            softmax_blocks.append(scores.shape)
            softmax(scores)

        monkeypatch.setattr(optimized, "_softmax_rows_in_place", counted_softmax)
        rng = np.random.default_rng(38)
        dims, params, x, rows = multi_block_instance(rng, mode)
        params = pinned_predictions(params, dims, [1.0])
        x[:, 0] = 0.0
        for dtype, shift, tol in ((np.float32, -95.0, 1e-4), (np.float64, -800.0, 1e-10)):
            p, xx = params.astype(dtype), x.astype(dtype)
            xx[2 * rows :, 0] = shift
            softmax_blocks.clear()
            out_off, trace_off = route_optimized(xx, p)
            assert len(softmax_blocks) == dims.n_iters - 1, dtype
            out_on, trace_on = route_optimized(xx, p, capture_trace=True)
            assert np.array_equal(out_off.array, out_on.array)
            assert np.array_equal(trace_off.final_credit.array, trace_on.final_credit.array)
            assert_share_laws(trace_on)
            nets, betas = as_plugins(xx, p)
            out_ref, _ = route_reference(xx, nets, betas, dims, capture_trace=False)
            assert relative_linf(out_off.array, out_ref.array) <= tol, dtype

    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    def test_rescue_takes_exactly_the_underflowing_rows(self, mode, monkeypatch):
        # Feature 0 shifts z by -95 (float32) or -800 (float64) on every
        # other row of the middle block, so those rows alone fall below
        # the floor; the rescue gets z of exactly those rows, once per
        # later iteration of the untraced call, of the traced call and of
        # the records' replay, and the recorded scores there are z bit for
        # bit.
        rescued = []
        softmax = optimized._softmax_rows_in_place

        def counted_softmax(scores):
            rescued.append(scores.copy())
            softmax(scores)

        monkeypatch.setattr(optimized, "_softmax_rows_in_place", counted_softmax)
        rng = np.random.default_rng(41)
        dims, params, x, rows = multi_block_instance(rng, mode)
        params = pinned_predictions(params, dims, [1.0])
        x[:, 0] = 0.0
        shifted = np.arange(rows, 2 * rows, 2)
        for dtype, shift, tol in ((np.float32, -95.0, 1e-4), (np.float64, -800.0, 1e-10)):
            p, xx = params.astype(dtype), x.astype(dtype)
            xx[shifted, 0] = shift
            rescued.clear()
            out_off, trace_off = route_optimized(xx, p)
            out_on, trace_on = route_optimized(xx, p, capture_trace=True)
            later = trace_on.iterations[1:]
            assert len(rescued) == 3 * len(later), dtype
            calls = [rescued[k :: len(later)] for k in range(len(later))]
            for (got_off, got_on, got_replay), record in zip(calls, later):
                assert np.array_equal(got_off, record.scores.array[shifted])
                assert np.array_equal(got_on, got_off) and np.array_equal(got_replay, got_off)
            assert np.array_equal(out_off.array, out_on.array)
            assert np.array_equal(trace_off.final_credit.array, trace_on.final_credit.array)
            assert_share_laws(trace_on)
            nets, betas = as_plugins(xx, p)
            out_ref, _ = route_reference(xx, nets, betas, dims, capture_trace=False)
            assert relative_linf(out_off.array, out_ref.array) <= tol, dtype

    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    def test_rows_around_the_rescue_threshold(self, mode, monkeypatch):
        # Only the rows whose every -z exceeds T = log(eps / tiny) - 1 are
        # copied for the rescue, before sigma overwrites -z, the same with
        # the trace on or off; the rescue must get exactly the rescued rows'
        # z, which a copy taken after sigma would not. Feature 0 plants
        # three kinds of rows: -z straddling T (spread by the other
        # features), every -z at T + 0.5 (a candidate, but sigma > floor,
        # so not rescued) and every -z at T + 10 (rescued). The middle block
        # has the first two only, so its max -z exceeds T and no row is
        # rescued; the ragged last block has all three, its last row rescued.
        rescued, neg_zs = [], []
        softmax, kernel = optimized._softmax_rows_in_place, optimized._logistic_of_negated_into

        def counted_softmax(scores):
            rescued.append(-scores)
            softmax(scores)

        def recording(neg_z, log=None):
            if neg_z.ndim == 2:  # a block's, not the gates'
                neg_zs.append(np.array(neg_z))
            kernel(neg_z, log)

        monkeypatch.setattr(optimized, "_softmax_rows_in_place", counted_softmax)
        monkeypatch.setattr(optimized, "_logistic_of_negated_into", recording)
        rng = np.random.default_rng(54)
        dims, params, x, rows = multi_block_instance(rng, mode)
        params = pinned_predictions(params, dims, [1.0])
        params = replaced(params, dims, score_bias=np.zeros(params.score_bias.shape, np.float32))
        x[:, 0] = 0.0
        n_inp = x.shape[0]
        straddle = np.r_[rows : rows + 20 : 2, 2 * rows : 2 * rows + 30 : 3]
        candidate = np.r_[rows + 1 : rows + 20 : 2, 2 * rows + 1 : 2 * rows + 30 : 3]
        low = np.r_[2 * rows + 2 : 2 * rows + 30 : 3, n_inp - 1]
        for dtype, tol in ((np.float32, 1e-4), (np.float64, 1e-10)):
            finfo = np.finfo(dtype)
            threshold = dtype(np.log(finfo.eps / finfo.tiny) - 1.0)
            p, xx = params.astype(dtype), x.astype(dtype)
            xx[straddle, 0] = -threshold
            for planted, offset in ((candidate, 0.5), (low, 10.0)):
                xx[planted, 0] = -(threshold + dtype(offset))
                xx[planted, 1:] = 0.0
            results = []
            for capture_trace in (False, True):
                rescued.clear()
                neg_zs.clear()
                results.append(route_optimized(xx, p, capture_trace=capture_trace))
                later = dims.n_iters - 1
                assert len(rescued) == later and len(neg_zs) == 3 * later, (dtype, capture_trace)
                for k, got in enumerate(rescued):
                    neg_z = np.concatenate(neg_zs[3 * k : 3 * k + 3])
                    assert neg_z[rows : 2 * rows].max() > threshold
                    assert np.all(neg_z[straddle].min(axis=1) <= threshold)
                    assert np.all(neg_z[straddle].max(axis=1) > threshold)
                    assert np.all(neg_z[np.r_[candidate, low]].min(axis=1) > threshold)
                    assert np.array_equal(got, neg_z[low]), (dtype, capture_trace)
            (out_off, trace_off), (out_on, trace_on) = results
            assert np.array_equal(out_off.array, out_on.array), dtype
            assert np.array_equal(trace_off.final_credit.array, trace_on.final_credit.array), dtype
            assert_share_laws(trace_on)
            nets, betas = as_plugins(xx, p)
            out_ref, _ = route_reference(xx, nets, betas, dims, capture_trace=False)
            assert relative_linf(out_off.array, out_ref.array) <= tol, dtype

    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    def test_infinite_score_block_routes_like_the_reference(self, mode, monkeypatch):
        # Feature 0 (1e10 in the middle block, 0 elsewhere) meets a
        # prediction of 1e30, so the middle block's scores overflow to +inf:
        # sigma = 1 there, so no row needs the underflow rescue.
        rescued = []
        monkeypatch.setattr(optimized, "_softmax_rows_in_place", rescued.append)
        rng = np.random.default_rng(39)
        dims, params, x, rows = multi_block_instance(rng, mode)
        params = pinned_predictions(params, dims, [1e30])
        x[:, 0] = 0.0
        middle = slice(rows, 2 * rows)
        x[middle, 0] = 1e10
        with np.errstate(over="ignore"):
            out, trace = route_optimized(x, params, capture_trace=True)
            nets, betas = as_plugins(x, params)
            out_ref, trace_ref = route_reference(x, nets, betas, dims)
        assert rescued == []
        assert relative_linf(out.array, out_ref.array) <= 1e-4
        for record, record_ref in zip(trace.iterations[1:], trace_ref.iterations[1:]):
            assert np.all(record.scores.array[middle] == 0.0)
            assert relative_linf(record.routing.array, record_ref.routing.array) <= 1e-4

    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    def test_nan_score_block_names_iteration(self, mode):
        # As above, with output 0's gain zeroed: 0 * inf in the middle block.
        rng = np.random.default_rng(40)
        dims, params, x, rows = multi_block_instance(rng, mode)
        params = pinned_predictions(params, dims, [1e30])
        gain = params.score_gain.array.copy()
        gain[..., 0] = 0.0
        params = replaced(params, dims, score_gain=gain)
        x[:, 0] = 0.0
        x[rows : 2 * rows, 0] = 1e10
        for capture_trace in (False, True):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match="score at iteration 2"
            ):
                route_optimized(x, params, capture_trace=capture_trace)

    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    def test_scores_record_is_the_log_logistic_of_z(self, mode, monkeypatch):
        # The trace takes log sigma(z) from the sigma kernel's e^(-z). The
        # kernel's -z is recorded per block, so the scores record is held to
        # log_logistic of exactly that z: within 4 eps relative, z itself
        # where e^(-z) overflows (the last block, shifted below -88.7 in
        # float32 and -709.8 in float64), and 0 where z = +inf (the middle
        # block's feature 0 meets a prediction past the dtype's range).
        neg_zs = []
        kernel = optimized._logistic_of_negated_into

        def recording(neg_z, log=None):
            if log is not None:
                neg_zs.append(np.array(neg_z))
            kernel(neg_z, log)

        monkeypatch.setattr(optimized, "_logistic_of_negated_into", recording)
        rng = np.random.default_rng(46)
        dims, params, x, rows = multi_block_instance(rng, mode)
        x[:, 0] = 0.0
        x[rows : 2 * rows, 0] = 1e10
        for dtype, big, shift in ((np.float32, 1e30, -200.0), (np.float64, 1e300, -1000.0)):
            p = pinned_predictions(params, dims, [1.0]).astype(dtype)
            pred_bias = p.pred_bias.array.copy()
            pred_bias[:, 0] = big
            p = replaced(p, dims, pred_bias=pred_bias)
            xx = x.astype(dtype)
            xx[2 * rows :, 0] = shift / big
            neg_zs.clear()
            with np.errstate(over="ignore"):
                _, trace = route_optimized(xx, p, capture_trace=True)
            later = trace.iterations[1:]
            assert len(neg_zs) == 3 * len(later), dtype
            eps = np.finfo(dtype).eps
            for k, record in enumerate(later):
                z = -np.concatenate(neg_zs[3 * k : 3 * k + 3])
                got, want = record.scores.array, log_logistic(z)
                with np.errstate(over="ignore"):
                    overflow = np.isinf(np.exp(-z))
                infinite = z == np.inf
                assert overflow[2 * rows :].all() and infinite[rows : 2 * rows].all(), dtype
                assert np.array_equal(got[overflow], z[overflow]), dtype
                assert np.all(got[infinite] == 0.0), dtype
                both = np.isfinite(got) & np.isfinite(want)
                assert both.all(), dtype
                assert np.all(np.abs(got - want) <= 4 * eps * np.abs(want)), dtype
            arrays = [trace.activation_scores, trace.activation_gates]
            for record in trace.iterations:
                arrays += [record.routing, record.share_used, record.share_ignored, record.credit]
                arrays += [record.output] + [r for r in (record.scores, record.predicted) if r]
            for tensor in arrays:
                assert not tensor.array.flags.writeable and tensor.array.flags.c_contiguous
            assert trace.final_credit is trace.iterations[-1].credit

    def test_trace_records_share_allocations_but_the_final_credit(self, monkeypatch):
        # Three records to an allocation: a trace of 3 iterations has 13
        # records besides the final credit, so five allocations, the last
        # holding one record. The final credit, which a caller may keep
        # alone, has its own; the records hold what an unsplit trace holds.
        rng = np.random.default_rng(48)
        for mode in ("fixed", "variable"):
            _, params, x, _ = multi_block_instance(rng, mode)
            _, whole = route_optimized(x, params, capture_trace=True)
            # The records are allocated when first read, under the chunk size in force then.
            monkeypatch.setattr(optimized, "_TRACE_CHUNK_BYTES", 3 * x.shape[0] * params.dims.n_out * 4)
            _, trace = route_optimized(x, params, capture_trace=True)
            fields = ("scores", "routing", "share_used", "share_ignored", "credit")
            records = [getattr(r, f) for r in trace.iterations for f in fields]
            monkeypatch.undo()
            records = [r.array for r in records if r is not None][:-1]
            bases = [r.base for r in records]
            assert [len({id(b) for b in bases[i : i + 3]}) for i in range(0, 13, 3)] == [1] * 5
            assert len({id(b) for b in bases}) == 5
            assert trace.final_credit.array.base is None
            for got, want in zip(trace.iterations, whole.iterations):
                for f in fields:
                    a, b = getattr(got, f), getattr(want, f)
                    assert (a is None and b is None) or np.array_equal(a.array, b.array), (mode, f)

    @pytest.mark.parametrize(
        "sizes",
        [dict(), DIRECT_FIRST_ITERATION, GRAM_OVERFLOW],
        ids=["closed_form", "block_path", "gram_overflow"],
    )
    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    def test_records_read_late_equal_records_read_at_once(self, mode, sizes, monkeypatch):
        # The records are built on first read, from what the call kept: a
        # write into the caller's input and a new block size after the call
        # change none of them. The call routes from the caller's array and
        # copies it once its loop has returned, and the copy guards the
        # records whether the input is a plain array or a DenseTensor,
        # whose owner can make its array writable again. A column-strided
        # view is routed from a compact copy taken first: its output, final
        # credit and records are those of the compact input. Three blocks, the
        # last ragged; the variable layout's iteration 1 takes the closed
        # form at the default sizes, the linear form on the blocks at the
        # second, and the closed form and then, as its Gram matrix
        # overflows, the blocks at the third (the fixed layout takes its
        # tables at all three).
        rng = np.random.default_rng(51)
        _, params, x, _ = multi_block_instance(rng, mode, **sizes)
        fields = [f.name for f in dataclasses.fields(optimized.IterationRecord)]
        out, at_once = route_optimized(x, params, capture_trace=True)
        want = [[getattr(r, f) for f in fields] for r in at_once.iterations]
        plain, wrapped = x.copy(), DenseTensor(x)
        strided = np.zeros((x.shape[0], 2 * x.shape[1]), x.dtype)[:, ::2]
        strided[:] = x
        routed = [route_optimized(caller_x, params, capture_trace=True) for caller_x in (plain, wrapped, strided)]
        for written in (plain, wrapped.array, strided):
            written.setflags(write=True)
            written[:] = rng.standard_normal(x.shape, dtype=np.float32)
        monkeypatch.setattr(optimized, "BLOCK_ELEMENTS", optimized.BLOCK_ELEMENTS // 3)
        for caller, (late_out, late) in zip(("array", "DenseTensor", "strided"), routed):
            assert np.array_equal(late_out.array, out.array), (mode, caller)
            assert np.array_equal(late.final_credit.array, at_once.final_credit.array), (mode, caller)
            first = list(late.iterations)
            got = [[getattr(r, f) for f in fields] for r in first]
            for record, record_want in zip(got, want):
                for a, b in zip(record, record_want):
                    assert (a is None and b is None) or np.array_equal(a.array, b.array), (mode, caller)
            bases = [{id(t.array.base) for r in tensors for t in r if t is not None} for tensors in (got, want)]
            assert len(bases[0]) == len(bases[1])
            assert all(a is b for a, b in zip(late.iterations[:], first))

    @pytest.mark.parametrize(
        "sizes",
        [dict(), DIRECT_FIRST_ITERATION, GRAM_OVERFLOW],
        ids=["closed_form", "block_path", "gram_overflow"],
    )
    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    def test_records_recompute_each_iterations_output_and_prediction(self, mode, sizes):
        # A trace keeps no iteration's prediction or output: its first read
        # reruns the iteration loop. Record k's output is, bit for bit, what
        # routing the same tensors for k iterations returns, and its
        # prediction is predicted from the output of iteration k - 1, taken
        # from a (k - 1)-iteration routing for k > 2. The last record's
        # output is the call's own. Three blocks, the last ragged; the
        # variable layout's iteration 1 takes the closed form at the
        # default sizes, the linear form on the blocks at the second, and
        # the closed form and then, as its Gram matrix overflows, the blocks
        # at the third, which the read decides again.
        rng = np.random.default_rng(53)
        dims, params, x, _ = multi_block_instance(rng, mode, n_iters=4, **sizes)
        out, trace = route_optimized(x, params, capture_trace=True)
        records = list(trace.iterations)
        assert records[-1].output is out
        previous = records[0].output
        for k, record in enumerate(records[1:], start=2):
            routed_k = RoutingParams(dataclasses.replace(dims, n_iters=k), **params.tensors)
            want, _ = route_optimized(x, routed_k)
            assert np.array_equal(record.output.array, want.array), k
            assert np.array_equal(record.predicted.array, predict_inputs(previous, params)), k
            previous = want

    @pytest.mark.parametrize("later", [False, True])
    def test_credit_overflow_fails_the_output_update(self, later):
        # Credit records are kept unscanned: the output update check, which
        # total_j = sum_i credit_ij reaches on every row, must catch them.
        # beta_use = 3e38, beta_ign = -3e38 makes iteration 1's credit
        # g * 3e38, whose sums overflow. beta_use = beta_ign = 3e38 with
        # n_out = 2 makes it 3e38 * (g * p) - 3e38 * (g - g * p) = 0, so
        # iteration 2's 3e38 * (used - ignored) overflows first.
        rng = np.random.default_rng(47)
        dims, params, x, _ = multi_block_instance(rng, "fixed", n_out=2)
        big = np.full((dims.n_inp, dims.n_out), 3e38, np.float32)
        bad = replaced(params, dims, beta_use=big, beta_ign=big if later else -big)
        for capture_trace in (False, True):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=f"non-finite values in output update at iteration {1 + later}$"
            ):
                route_optimized(x, bad, capture_trace=capture_trace)

    def test_closed_form_coefficient_overflow_names_the_coefficients_traced_or_not(self):
        # One input x = 2 against W_use = 3e38 makes an infinite coefficient,
        # while a gate of e^-60 keeps the closed form's gated sums, and so
        # iteration 1's output, finite. Iteration 2's output update then
        # fails, and the coefficients, checked first, are named, with the
        # trace on as with it off: the traced call builds no records, so
        # the credit record's scan (the next test) plays no part here.
        dims = RoutingDims(None, 1, 1, 1, 2)
        params = init_params(
            dims,
            seed=0,
            overrides={
                "act_bias": np.full(1, -60.0, np.float32),
                "beta_use_weight": np.full((1, 1), 3e38, np.float32),
            },
        )
        x = np.full((1, 1), 2.0, np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="beta_use coefficients"):
                route_optimized(x, params, capture_trace=True)
            with pytest.raises(NumericError, match="beta_use coefficients"):
                route_optimized(x, params)

    def test_closed_form_first_credit_record_fails_when_read(self):
        # A traced call routes as the untraced one and fails only where it
        # does, so the closed-form credit record's scan runs when the
        # records are built. With n_out = 5, p * a + (1 - p) * a rounds one
        # ulp above a = 1.7148693e30 in float32, so w1 exceeds both W_use = a
        # and -W_ign: x * w1 overflows the block credit where x * a, an
        # iteration 2 coefficient, stays finite. A gate of e^-60 keeps the
        # closed form's gated sums and iteration 2's credit finite.
        dims = RoutingDims(None, 5, 1, 1, 2)
        a = np.float32(1.7148693e30)
        use = np.zeros((1, 5), np.float32)
        use[0, 0] = a
        params = init_params(
            dims,
            seed=0,
            overrides={
                "act_weight": np.zeros(1, np.float32),
                "act_bias": np.full(1, -60.0, np.float32),
                "beta_use_weight": use,
                "beta_ign_weight": -use,
            },
        )
        x = np.full((1, 1), 1.9843048e8, np.float32)
        w1 = optimized._first_iteration_weights(params)[0, 0]
        with np.errstate(over="ignore"):
            assert w1 > a and np.isfinite(x[0, 0] * a) and np.isinf(x[0, 0] * w1)
        out_off, _ = route_optimized(x, params)
        out_on, trace = route_optimized(x, params, capture_trace=True)
        assert np.array_equal(out_off.array, out_on.array)
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(NumericError, match="^non-finite values in credit at iteration 1$"):
                trace.iterations[0]

    @pytest.mark.parametrize("sizes", [dict(), DIRECT_FIRST_ITERATION], ids=["closed_form", "block_path"])
    def test_later_failure_keeps_its_message_after_the_coefficient_check(self, sizes, monkeypatch):
        # Every failure checks the coefficients, block by block. Past
        # iteration 2 they are finite, so the check passes and the failure
        # keeps its own stage: here the second prediction (iteration 3).
        rng = np.random.default_rng(49)
        _, params, x, _ = multi_block_instance(rng, "variable", **sizes)
        predict, betas = optimized._predict, optimized.beta_pair_for
        predictions, checked = [], []

        def second_is_infinite(normalized, p):
            predicted = predict(normalized, p)
            predictions.append(predicted)
            return predicted if len(predictions) == 1 else np.full_like(predicted, np.inf)

        def counted_betas(xx, p):
            checked.append(xx.shape[0])
            return betas(xx, p)

        monkeypatch.setattr(optimized, "_predict", second_is_infinite)
        monkeypatch.setattr(optimized, "beta_pair_for", counted_betas)
        for capture_trace in (False, True):
            predictions.clear()
            checked.clear()
            with pytest.raises(NumericError, match="^non-finite values in predict at iteration 3$"):
                route_optimized(x, params, capture_trace=capture_trace)
            assert sum(checked) == x.shape[0] and len(checked) == 3

    @pytest.mark.parametrize("sizes", [dict(), DIRECT_FIRST_ITERATION], ids=["closed_form", "block_path"])
    def test_permuting_the_inputs_permutes_the_credit(self, sizes):
        # Routing treats inputs alike: x[perm] gives the same outputs and
        # credit[perm], up to float64 rounding, across three blocks.
        rng = np.random.default_rng(50)
        _, params, x, _ = multi_block_instance(rng, "variable", **sizes)
        p64, x64 = params.astype(np.float64), x.astype(np.float64)
        perm = rng.permutation(x.shape[0])
        out, trace = route_optimized(x64, p64)
        out_perm, trace_perm = route_optimized(x64[perm], p64)
        assert relative_linf(out_perm.array, out.array) <= 1e-12
        assert relative_linf(trace_perm.final_credit.array, trace.final_credit.array[perm]) <= 1e-12


# The fixed layout's iterations pool w = used * (beta_use + beta_ign) into
# sums that start at -Q, Q = sum_i g_i beta_ign_i x_i^T, which one pass
# gathers before iteration 1's blocks; they compute a credit, w - g * beta_ign, only to keep it. rand_params draws
# beta_ign away from 0, so Q is not 0 here. The variable layout pools whole
# credits; both layouts run the same checks. Three blocks, the last ragged;
# the variable layout takes iteration 1 in closed form at the default sizes
# and on the blocks at the second.
A_FORM_CASES = pytest.mark.parametrize(
    "mode, sizes",
    [("fixed", {}), ("variable", {}), ("variable", TestBlockedLoop.DIRECT_FIRST_ITERATION)],
    ids=["fixed", "variable_closed_form", "variable_block_path"],
)


@pytest.mark.usefixtures("pinned_block_size")
class TestAFormIterations:
    @A_FORM_CASES
    def test_outputs_and_every_credit_record_match_the_reference(self, mode, sizes):
        rng = np.random.default_rng(60)
        dims, params, x, _ = multi_block_instance(rng, mode, n_iters=5, **sizes)
        for dtype, tol in ((np.float32, 1e-4), (np.float64, 1e-10)):
            p, xx = params.astype(dtype), x.astype(dtype)
            out, trace = route_optimized(xx, p, capture_trace=True)
            nets, betas = as_plugins(xx, p)
            out_ref, trace_ref = route_reference(xx, nets, betas, dims)
            assert relative_linf(out.array, out_ref.array) <= tol, dtype
            for it, (got, want) in enumerate(zip(trace.iterations, trace_ref.iterations), start=1):
                assert relative_linf(got.credit.array, want.credit.array) <= tol, (dtype, it)
                assert relative_linf(got.output.array, want.output.array) <= tol, (dtype, it)

    @A_FORM_CASES
    def test_trace_on_and_off_agree_bitwise(self, mode, sizes):
        rng = np.random.default_rng(61)
        _, params, x, _ = multi_block_instance(rng, mode, n_iters=5, **sizes)
        out_off, trace_off = route_optimized(x, params)
        out_on, trace_on = route_optimized(x, params, capture_trace=True)
        assert np.array_equal(out_off.array, out_on.array)
        assert np.array_equal(trace_off.final_credit.array, trace_on.final_credit.array)
        assert trace_on.iterations[-1].output is out_on
        assert_share_laws(trace_on)

    @pytest.mark.parametrize(
        "first, n_iters", [(True, 4), (False, 4), (False, 2)], ids=["iteration_1", "iteration_2", "last_iteration"]
    )
    def test_a_form_sums_that_overflow_are_redone_on_whole_credits(self, first, n_iters, monkeypatch):
        # Every input feature is about 1, and beta_use = beta_ign = c
        # everywhere, so w = used * 2c while the credit c * (used - ignored)
        # cancels. n_out = 2 and the scores alone route. iteration_1: every
        # gate is 1 and equal scores route each input half and half, so
        # iteration 1's credit is 0 while the sums of w and of Q, about
        # n * c, overflow. iteration_2: only the first block's gates are 1
        # (the rest near e^-60), so Q and q are about rows * c, and scores
        # that route three quarters to output 0 from iteration 2 on raise
        # that block's sums of w for output 0 to 1.5 rows * c, which
        # overflow, while its credits sum to 0.5 rows * c. The blocks add
        # to -Q, so only a block's own sum can overflow there. The iteration
        # and every later one are redone on whole credits, in the call and
        # in the records' replay. last_iteration: iteration_2's instance
        # routed for two iterations, so the redo runs after the last M-step
        # has dropped the block workspace, and takes a fresh one. Blocks of 1024 rows
        # keep n, and the rounding of sums over it, as in the tests above.
        monkeypatch.setattr(optimized, "BLOCK_ELEMENTS", 2048)
        sweeps = []  # (iteration, a-form, workspace) at each sweep of the untraced call
        sweep = optimized._Blocks.sweep

        def recorded_sweep(self, rec, it, pool=True):
            sweeps.append((it, self.plan.a_form, self.work))
            return sweep(self, rec, it, pool)

        rng = np.random.default_rng(64)
        dims, params, x, rows = multi_block_instance(rng, "fixed", n_out=2, n_iters=n_iters)
        n = dims.n_inp
        x[:] = rng.uniform(0.9, 1.1, x.shape)
        c = np.float32(5e38 / n if first else 2.9e38 / rows)
        coef = np.full((n, 2), c, np.float32)
        act_bias = np.full(n, 60.0, np.float32)
        bias = np.zeros((n, 2), np.float32)
        if not first:
            act_bias[rows:] = -60.0
            bias[:] = (30.0, -np.log(2.0))  # sigma(30) : sigma(-log 2) = 1 : 1/3
        p = replaced(
            params, dims, beta_use=coef, beta_ign=coef, act_bias=act_bias,
            score_gain=np.zeros((n, 2), np.float32), score_bias=bias,
            # Outputs near 1e8, whose normalization squares them.
            vote_mix=params.vote_mix.array * np.float32(1e-30),
            vote_bias=params.vote_bias.array * np.float32(1e-30),
        )
        out, trace = route_optimized(x, p, capture_trace=True)
        monkeypatch.setattr(optimized._Blocks, "sweep", recorded_sweep)
        out_off, trace_off = route_optimized(x, p)
        monkeypatch.setattr(optimized._Blocks, "sweep", sweep)
        redone = 1 if first else 2
        a_form = [(it, True) for it in range(1, redone + 1)] + [(it, False) for it in range(redone, n_iters + 1)]
        assert [s[:2] for s in sweeps] == a_form
        # Only a redo of the last iteration allocates a second workspace.
        assert [s[2] is not sweeps[0][2] for s in sweeps] == [False] * n_iters + [n_iters == redone]
        assert np.array_equal(out.array, out_off.array)
        assert np.array_equal(trace.final_credit.array, trace_off.final_credit.array)
        assert trace.iterations[-1].output is out
        assert all(np.isfinite(r.credit.array).all() for r in trace.iterations)
        nets, betas = as_plugins(x, p)
        out_ref, trace_ref = route_reference(x, nets, betas, dims)
        assert relative_linf(out.array, out_ref.array) <= 1e-4
        assert relative_linf(trace.final_credit.array, trace_ref.final_credit.array) <= 1e-4

    def test_first_iteration_given_up_credits_like_the_reference(self):
        # beta_use and beta_ign near the dtype's max on a few rows of the
        # second block make a = beta_use + beta_ign overflow, so iteration 1
        # gives up the a-form and is redone on whole credits: bu * (g * p)
        # - bi * (g - g * p), the reference's products in its order, bit for
        # bit. Elsewhere the tables are random and n_out = 5, so p * bu is
        # not exact and another order of products would round apart. Those
        # rows' gates are 0 (a score of -5000), which keeps every credit and
        # sum finite.
        rng = np.random.default_rng(65)
        dims, params, x, rows = multi_block_instance(rng, "fixed", n_out=5)
        hit = slice(rows + 3, rows + 10)
        for dtype in (np.float32, np.float64):
            p, xx = params.astype(dtype), x.astype(dtype)
            use, ign, act_bias = (getattr(p, name).array.copy() for name in ("beta_use", "beta_ign", "act_bias"))
            big = np.finfo(dtype).max
            use[hit] = big * rng.uniform(0.6, 0.95, use[hit].shape)
            ign[hit] = big * rng.uniform(0.6, 0.95, ign[hit].shape)
            act_bias[hit] = -5000.0
            bad = replaced(p, dims, beta_use=use, beta_ign=ign, act_bias=act_bias)
            with np.errstate(over="ignore"):
                assert not np.isfinite(use + ign).all()
            out, trace = route_optimized(xx, bad, capture_trace=True)
            nets, betas = as_plugins(xx, bad)
            out_ref, trace_ref = route_reference(xx, nets, betas, dims)
            assert np.array_equal(trace.iterations[0].credit.array, trace_ref.iterations[0].credit.array), dtype
            tol = 1e-4 if dtype == np.float32 else 1e-10
            assert relative_linf(out.array, out_ref.array) <= tol, dtype

    def test_a_credit_that_is_not_pooled_is_checked(self, monkeypatch):
        # A credit of the a-form, w - g * beta_ign, is not the array its
        # iteration pools, so no output update check covers it: the call
        # checks its final credit, and the records' replay each record it
        # writes through the a-form, through their column totals. A later
        # block's beta_ign of inf, read only where a block of the a-form
        # keeps its credit (a = beta_use + beta_ign and Q come from the
        # tables in iteration 1), leaves every pooled sum finite. In exact
        # arithmetic |w - g * beta_ign| is at most g times the larger
        # coefficient, so a finite one overflows only by rounding at the top
        # of the float range, at scores no test can pin across BLAS and exp
        # builds.
        rng = np.random.default_rng(63)
        dims, params, x, _ = multi_block_instance(rng, "fixed", n_iters=4)
        later_block = optimized._FixedBlocks.later_block

        def against_infinite_ignore(self, blk):
            coef, bi, neg_z = later_block(self, blk)
            return coef, np.full_like(bi, np.inf), neg_z

        out, trace = route_optimized(x, params, capture_trace=True)
        monkeypatch.setattr(optimized._FixedBlocks, "later_block", against_infinite_ignore)
        for capture_trace in (False, True):
            with pytest.raises(NumericError, match="^non-finite values in credit at iteration 4$"):
                route_optimized(x, params, capture_trace=capture_trace)
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(NumericError, match="^non-finite values in credit at iteration 2$"):
                trace.iterations[0]
        monkeypatch.undo()
        assert trace.iterations[-1].output is out
        assert np.isfinite(trace.iterations[1].credit.array).all()


# The call plan's rules at their boundaries, and at the first routing of
# each full-size benchmark workload: (layout, n_inp, n_out, d_inp) and the
# plan a call takes there, (kernel, rows, workspace, a_form, closed_form),
# at the default BLOCK_ELEMENTS. A change to a rule changes this table.
_V, _F, _B = optimized._VariableBlocks, optimized._FixedBlocks, BLOCK_ELEMENTS
PLAN_TABLE = {
    "closed_form_edge": (("variable", 300, 8, 23), (_V, 300, 3 * 300 * 8, False, True)),  # d_inp = 3 * n_out - 1
    "block_path_edge": (("variable", 300, 8, 24), (_V, 300, 3 * 300 * 8, False, False)),  # d_inp = 3 * n_out
    "fixed_below_the_edge": (("fixed", 300, 8, 23), (_F, 300, 300 * 8, True, False)),
    "one_output_closed_form": (("variable", 300, 1, 2), (_V, 300, 3 * 300, False, True)),
    "one_output_block_path": (("variable", 300, 1, 3), (_V, 300, 3 * 300, False, False)),
    "one_output_fixed": (("fixed", 300, 1, 2), (_F, 300, 300, False, False)),
    "outputs_past_a_block": (("variable", 3, 2 * _B, 2), (_V, 1, 3 * 2 * _B, False, True)),
    "pair_heavy": (("variable", 4096, 512, 128), (_V, _B // 512, 3 * _B, False, True)),
    "long_seq": (("variable", 1_000_000, 16, 64), (_V, _B // 16, 3 * _B, False, False)),
    "credit_chain": (("fixed", 2048, 128, 64), (_F, _B // 128, _B, True, False)),
}
# Each routed as a C-order, an F-order and a strided input: the plan does
# not depend on the input's layout.
INPUT_ORDERS = {
    "c_order": lambda x: x,
    "f_order": np.asfortranarray,
    "strided": lambda x: np.repeat(x, 2, axis=1)[:, ::2],
}


def plan_dims(mode, n_inp, n_out, d) -> RoutingDims:
    return RoutingDims(n_inp if mode == "fixed" else None, n_out, d, d, 2)


class TestCallPlan:
    @pytest.mark.parametrize("case", PLAN_TABLE)
    def test_each_rule_at_its_boundary(self, case):
        shape, plan = PLAN_TABLE[case]
        assert optimized._plan(plan_dims(*shape), shape[1]) == optimized._Plan(*plan)

    @pytest.mark.parametrize("traced", [False, True], ids=["trace_off", "trace_on"])
    @pytest.mark.parametrize("order", INPUT_ORDERS)
    @pytest.mark.parametrize("case", [case for case in PLAN_TABLE if case != "long_seq"])  # 244 MiB of input
    def test_a_call_takes_the_plan_and_its_replay_reads_it(self, case, order, traced, monkeypatch):
        # Each decision shows through its effect: the kernel that the
        # iteration loop drives, its blocks and workspace, one gathering
        # pass of the a-form and one closed-form sum per routing, or none.
        # The replay runs at a BLOCK_ELEMENTS of two rows a block, so a
        # plan it took afresh would show in its blocks.
        (mode, n_inp, n_out, d), fields = PLAN_TABLE[case]
        want = optimized._Plan(*fields)
        plans, kernels, calls = [], [], {"closed_form": 0, "a_form": 0}
        plan, iterate = optimized._plan, optimized._iterate
        closed_form_sums, gather_a_form = optimized._closed_form_sums, optimized._FixedBlocks.gather_a_form

        def recorded_plan(*args):
            plans.append(plan(*args))
            return plans[-1]

        def recorded_iterate(kernel, *args):
            kernels.append((type(kernel), kernel.plan, kernel.blocks[0].stop, len(kernel.blocks), kernel.work.size))
            return iterate(kernel, *args)

        def counted(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)

            return call

        monkeypatch.setattr(optimized, "_plan", recorded_plan)
        monkeypatch.setattr(optimized, "_iterate", recorded_iterate)
        monkeypatch.setattr(optimized, "_closed_form_sums", counted("closed_form", closed_form_sums))
        monkeypatch.setattr(optimized._FixedBlocks, "gather_a_form", counted("a_form", gather_a_form))
        dims = plan_dims(mode, n_inp, n_out, d)
        params = init_params(dims, seed=7)
        x = INPUT_ORDERS[order](np.random.default_rng(66).standard_normal((n_inp, d), dtype=np.float32))
        _, trace = route_optimized(x, params, capture_trace=traced)
        routings = 1
        if traced:
            monkeypatch.setattr(optimized, "BLOCK_ELEMENTS", 2 * n_out)
            trace.iterations[0]
            routings = 2
        assert plans == [want]
        blocks = -(-n_inp // want.rows)
        assert kernels == [(want.kernel, want, want.rows, blocks, want.workspace)] * routings
        assert calls == {"closed_form": routings * want.closed_form, "a_form": routings * want.a_form}


# Non-finite values, stage by stage. Each case runs in both layouts, at a
# shape where the variable layout takes iteration 1 in closed form
# (d_inp < 3 * n_out) and one where it takes the linear form on the blocks
# (the fixed layout takes it from its tables at both), in float32 and
# float64, with the trace off and on. Blocks of 8 rows split the 19 inputs
# into a first, a middle and a ragged last block.
NONFINITE_ROWS = {"first_block": 3, "middle_block": 12, "ragged_last_block": 17}
NONFINITE_SHAPES = {"closed_form_first": (4, 6), "linear_first": (4, 16)}


def nonfinite_instance(mode, first, dtype, monkeypatch):
    n_out, d = NONFINITE_SHAPES[first]
    monkeypatch.setattr(optimized, "BLOCK_ELEMENTS", 8 * n_out)
    rng = np.random.default_rng(51)
    dims = RoutingDims(19 if mode == "fixed" else None, n_out, d, d, 3)
    params = rand_params(rng, dims, 19).astype(dtype)
    x = rng.standard_normal((19, d)).astype(dtype)
    return dims, params, x


def raised_message(x, params):
    """route_optimized's NumericError message, the same with the trace off and on."""
    messages = []
    for capture_trace in (False, True):
        with pytest.raises(NumericError) as raised:
            route_optimized(x, params, capture_trace=capture_trace)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    return messages[0]


def full(params, name, value):
    return np.full(getattr(params, name).shape, value, params.dtype)


def overflowing_activation(params, x, big):
    # Finite inputs of 1e30 in feature 0, whose activation weight is the
    # dtype's max: the score overflows while every input is finite.
    act = params.act_weight.array.copy()
    act[..., 0] = big
    x[:, 0] = 0.0
    x[NONFINITE_ROWS["middle_block"], 0] = 1e30
    return {"act_weight": act}


def overflowing_first_total(params, x, big):
    # Coefficients of +-big/2 make iteration 1's credit g * big / 2 per pair,
    # finite, and its total over the inputs overflows.
    names = ("beta_use", "beta_ign") if params.mode == "fixed" else ("beta_use_bias", "beta_ign_bias")
    return {names[0]: full(params, names[0], big / 2), names[1]: full(params, names[1], -big / 2)}


# stage -> (message, overrides from (params, x, big)); big is the dtype's max.
# The fixed layout's coefficients are stored tables, checked when the
# parameters are built, so the coefficient rows are variable-layout only.
NONFINITE_STAGES = {
    "activations": ("activations", overflowing_activation),
    "beta_use": ("beta_use coefficients", lambda p, x, big: {"beta_use_weight": full(p, "beta_use_weight", big)}),
    "beta_ign": ("beta_ign coefficients", lambda p, x, big: {"beta_ign_weight": full(p, "beta_ign_weight", big)}),
    # A gain of big overflows every prediction past 1 in magnitude.
    "predict": ("predict at iteration 2", lambda p, x, big: {"pred_gate": full(p, "pred_gate", big)}),
    # z = big * inner - big is -inf wherever the inner product is negative.
    "score": (
        "score at iteration 2",
        lambda p, x, big: {"score_gain": full(p, "score_gain", big), "score_bias": full(p, "score_bias", -big)},
    ),
    "output_update": ("output update at iteration 1", overflowing_first_total),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("first", NONFINITE_SHAPES)
class TestNonFiniteStages:
    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    @pytest.mark.parametrize("row", NONFINITE_ROWS.values(), ids=NONFINITE_ROWS)
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_input_is_named(self, value, row, mode, first, dtype, monkeypatch):
        # Feature 0's activation weight is exactly 0, so the value reaches
        # the activation score only as inf * 0 or NaN * 0, both NaN. The
        # router raises without a floating-point warning of its own.
        dims, params, x = nonfinite_instance(mode, first, dtype, monkeypatch)
        act = params.act_weight.array.copy()
        act[..., 0] = 0.0
        x[row, 0] = value
        bad = replaced(params, dims, act_weight=act)
        assert raised_message(x, bad) == "non-finite values in x_inp"

    @pytest.mark.parametrize(
        "mode, stage",
        [
            (mode, stage)
            for mode in ("fixed", "variable")
            for stage in NONFINITE_STAGES
            if mode == "variable" or not stage.startswith("beta_")
        ],
    )
    def test_stage_is_named(self, mode, stage, first, dtype, monkeypatch):
        message, overrides = NONFINITE_STAGES[stage]
        dims, params, x = nonfinite_instance(mode, first, dtype, monkeypatch)
        big = np.finfo(dtype).max
        bad = replaced(params, dims, **overrides(params, x, big))
        with np.errstate(over="ignore", invalid="ignore"):
            assert raised_message(x, bad) == f"non-finite values in {message}"


@pytest.mark.parametrize("mode", ["fixed", "variable"])
def test_overflowing_normalization_fails_the_prediction_check(mode):
    # Gates of 1, pure use and vote_mix = 0 make each output row
    # vote_bias * total_j with total_j = n_inp * p = 1: a row of 3e38,
    # finite. Its mean overflows in the next prediction's normalization,
    # whose NaN rows no check of their own scans: each normalized value is
    # a term of every entry of its predicted row, so the prediction's check
    # names the failure.
    n = 4
    dims = RoutingDims(n if mode == "fixed" else None, n, n, n, 3)
    shapes = optimized.field_shapes(dims)
    overrides = {
        "act_weight": np.zeros(shapes["act_weight"], np.float32),
        "act_bias": np.full(shapes["act_bias"], 60.0, np.float32),
        "vote_mix": np.zeros(shapes["vote_mix"], np.float32),
        "vote_bias": np.full(shapes["vote_bias"], 3e38, np.float32),
    }
    params = init_params(dims, seed=0, overrides=overrides)
    x = np.random.default_rng(53).standard_normal((n, n), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        assert raised_message(x, params) == "non-finite values in predict at iteration 2"


@pytest.mark.parametrize("first", NONFINITE_SHAPES)
@pytest.mark.parametrize("mode", ["fixed", "variable"])
def test_each_value_is_checked_once(mode, first, monkeypatch):
    # Every array handed to a finite check, in either module, is kept: no
    # two of them may share memory, and the input is never scanned. The
    # closed form's output passes its own isfinite test instead of the
    # output update check, and the prediction reads the checked output.
    dims, params, x = nonfinite_instance(mode, first, np.float32, monkeypatch)
    checked = []
    check = tensor_module._check_finite

    def recording(arr, context, iteration=None):
        checked.append((context, iteration, arr))
        check(arr, context, iteration)

    monkeypatch.setattr(optimized, "_check_finite", recording)
    monkeypatch.setattr(tensor_module, "_check_finite", recording)
    closed = mode == "variable" and first == "closed_form_first"
    for capture_trace in (False, True):
        checked.clear()
        route_optimized(x, params, capture_trace=capture_trace)
        contexts = [context for context, _, _ in checked]
        assert "x_inp" not in contexts and "normalize_vectors input" not in contexts
        updates = [it for context, it, _ in checked if context == "output update"]
        assert updates == list(range(1 + closed, dims.n_iters + 1))
        arrays = [arr for _, _, arr in checked]
        for k, a in enumerate(arrays):
            for b in arrays[k + 1 :]:
                assert not np.shares_memory(a, b), contexts


def test_router_takes_only_shared_types_from_the_reference():
    # route_reference is the oracle route_optimized is checked against, so
    # the router may share its data types but none of its code.
    taken = {
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(optimized)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("reference")
        for alias in node.names
    }
    assert taken == {"BetaPair", "IterationRecord", "PluggableNetworks", "RoutingDims", "RoutingTrace"}


class TestParamCounts:
    def test_documented_example(self):
        dims = RoutingDims(100, 100, 8, 8, 2)
        assert vote_param_count(dims) == 100 * 8 + 8 * 8 + 100 * 8

    def test_unit_dims(self):
        assert vote_param_count(RoutingDims(1, 1, 1, 1, 2)) == 3

    def test_budget_orders(self):
        dims = RoutingDims(64, 100, 8, 8, 2)
        budget = vote_param_budget(dims)
        assert budget == VoteParamBudget(
            factored=100 * 8 + 8 * 8 + 100 * 8,
            shared_naive=100 * 8 * 8,
            full_naive=64 * 100 * 8 * 8,
        )
        assert budget.factored < budget.shared_naive < budget.full_naive

    def test_variable_budget_needs_length(self):
        dims = RoutingDims(None, 4, 8, 8, 2)
        with pytest.raises(ValueError):
            vote_param_budget(dims)
        assert vote_param_budget(dims, n_inp=7).full_naive == 7 * 4 * 8 * 8

    def test_total_matches_enumeration(self):
        rng = np.random.default_rng(25)
        for mode in ("fixed", "variable"):
            dims, params, _ = rand_instance(rng, mode)
            want = sum(int(np.prod(t.shape)) for _, t in params.field_items())
            assert total_param_count(params) == want


class TestTransientMemory:
    def test_peak_under_documented_bound(self):
        rng = np.random.default_rng(26)
        cases = [
            ("fixed", dict(n_inp=64, n_out=16, d_inp=32, d_out=24, n_iters=3)),
            ("variable", dict(n_inp=96, n_out=12, d_inp=48, d_out=16, n_iters=4)),
            # d_out > d_inp: each M-step's bias term is larger than its pooled sums.
            ("variable", dict(n_inp=72, n_out=6, d_inp=24, d_out=96, n_iters=3)),
        ]
        for mode, sizes in cases:
            n_inp = sizes.pop("n_inp")
            dims = RoutingDims(n_inp if mode == "fixed" else None, **sizes)
            params = init_params(dims, seed=3)
            x = rng.standard_normal((n_inp, dims.d_inp)).astype(np.float32)
            route_optimized(x, params)  # warm-up stabilizes allocator state
            _, peak = measure_peak(lambda: route_optimized(x, params))
            bound = 4 * transient_element_bound(
                n_inp, dims.n_out, dims.d_inp, dims.d_out
            )
            assert peak < bound, f"{mode}: peak {peak} >= bound {bound}"

    def test_long_sequence_keeps_nothing_input_sized_beside_the_credit(self):
        # With the trace off, what grows with the sequence is the returned
        # final credit, whose unwritten tail holds the activation scores
        # and then the gates, and, up to a block, the three block arrays;
        # the rest fits the bound's output-sized terms and floor. The
        # slack is below one block array, itself smaller than an
        # input-length array here, so a fourth block array would fail, and
        # so would keeping the gates or the activation scores in an array
        # of their own.
        n_inp, n_out, d = 262_144, 16, 64
        dims = RoutingDims(None, n_out, d, d, 2)
        params = init_params(dims, seed=3)
        x = np.random.default_rng(45).standard_normal((n_inp, d), dtype=np.float32)
        route_optimized(x, params)  # warm-up stabilizes allocator state
        _, peak = measure_peak(lambda: route_optimized(x, params))
        block = min(n_inp * n_out, max(BLOCK_ELEMENTS, n_out))
        elements = (
            n_inp * n_out
            + 3 * block
            + optimized.TRANSIENT_ELEMENT_BOUND_FACTOR * n_out * (d + d)
            + optimized.TRANSIENT_ELEMENT_BOUND_FLOOR
        )
        assert block < n_inp
        assert peak < 4 * elements
        assert 4 * elements - peak < 4 * block

    @pytest.mark.parametrize("mode, slots, weight_groups, a_form", [("variable", 3, 3, 0), ("fixed", 1, 1, 1)])
    def test_block_workspace_slots_with_a_ragged_last_block(self, mode, slots, weight_groups, a_form, monkeypatch):
        # Three blocks of the default size, the last ragged, on the block
        # path of iteration 2. Beside the returned final credit, a block
        # keeps three block arrays in the variable layout and one in the
        # fixed one, and the weight: [W_use | W_ign | -pred^T], or -pred^T
        # alone. Fixed blocks compute their credit in the final credit's
        # rows, so that layout keeps its gates in an n_inp array of its
        # own; the variable layout keeps them in the credit's tail. The
        # rest is output-sized or smaller: the pooled sums (n_out * d, the
        # previous output dropped once predicted) and in the fixed layout,
        # whose iterations pool the a-form, Q and q (n_out * (d + 1)) from
        # iteration 1 on. A block pools its n_out * d product into the
        # workspace that its values leave dead: the variable layout's slots
        # 1-2. A fixed-layout block pools w out of its only slot, so its
        # product is one more n_out * d array. The variable layout then
        # peaks where an n_out * d array, the prediction, meets its
        # negated write into the weight's score columns, whose strided
        # operands take two numpy iterator buffers (np.getbufsize()
        # elements each in numpy 2.4); a broadcast over an output-major
        # block, live beside the pooled sums, takes one. A ragged block's
        # views are as compact as a full block's, so numpy buffers no more
        # over it than over a full one. The slack is below one block array,
        # so one more slot would fail, and below one n_out * d array, so a
        # per-block product of the variable layout or keeping the previous
        # output would too. A traced call runs the same blocks and keeps only what
        # its records' replay cannot recompute. In the loop it adds the
        # activation scores and gates in arrays of their own (2 * n_inp
        # elements, one of which the untraced fixed call holds too). Its
        # copy of the input is taken once the loop has returned, beside
        # the final credit, those two arrays and the output, so the traced
        # peak is the larger of the loop's set and that end-of-call set.
        # The first read of its records holds them, 5 * n_iters - 2 pair
        # arrays beside the final credit, with the replay's block
        # workspace and weight and what its rerun of the iteration loop
        # recomputes: iteration 1's output and iteration 2's prediction.
        # The rerun's pooled sums and pooled part live only in iteration
        # 1, before the weight, that output and that prediction exist, so
        # they add nothing to the peak. What else either adds, Python
        # objects and, in the replay, the iterator buffers of the routing
        # record's divide (an output-major operand into a row-major
        # record), stays below half a block array.
        n_out, d = 512, 128
        rows = BLOCK_ELEMENTS // n_out
        n_inp = 2 * rows + rows // 3
        dims = RoutingDims(n_inp if mode == "fixed" else None, n_out, d, d, 2)
        own_gates = n_inp if mode == "fixed" else 0
        params = init_params(dims, seed=3)
        x = np.random.default_rng(49).standard_normal((n_inp, d), dtype=np.float32)
        out_off, trace_off = route_optimized(x, params)  # also the warm-up
        _, peak = measure_peak(lambda: route_optimized(x, params))
        elements = (
            n_inp * n_out
            + slots * rows * n_out
            + own_gates
            + d * weight_groups * n_out
            + (1 + a_form) * n_out * d
            + a_form * n_out * (d + 1)
            + (mode == "variable") * 2 * np.getbufsize()
            + optimized.TRANSIENT_ELEMENT_BOUND_FLOOR
        )
        assert peak < 4 * elements
        assert 4 * elements - peak < 4 * min(rows * n_out, n_out * d)
        out_on, trace_on = route_optimized(x, params, capture_trace=True)  # also the warm-up
        trace_on.iterations[0]  # the replay's warm-up
        (_, trace), traced_peak = measure_peak(lambda: route_optimized(x, params, capture_trace=True))
        at_end = n_inp * n_out + n_inp * d + 2 * n_inp + n_out * d
        live = max(peak + 4 * (2 * n_inp - own_gates), 4 * at_end)
        assert 0 <= traced_peak - live < 4 * rows * n_out // 2
        monkeypatch.setattr(optimized, "BLOCK_ELEMENTS", 2 * BLOCK_ELEMENTS)  # the replay keeps the call's
        _, read_peak = measure_peak(lambda: trace.iterations[0])
        records = (5 * dims.n_iters - 2) * n_inp * n_out
        recomputed = (dims.n_iters - 1) * 2 * n_out * d
        replay = records + slots * rows * n_out + d * weight_groups * n_out + recomputed + a_form * n_out * (d + 1)
        assert 0 <= read_peak - 4 * replay < 4 * rows * n_out // 2
        assert np.array_equal(out_off.array, out_on.array)
        assert np.array_equal(trace_off.final_credit.array, trace_on.final_credit.array)

    def test_traced_fixed_chain_keeps_nothing_per_iteration(self):
        # The first routing of a fixed-layout chain at 8 iterations. The
        # untraced call holds the final credit, its gates and one block
        # slot; the rest (the weight, the pooled sums, an output or two)
        # stays below half a slot, so a second slot would fail. A traced
        # call's loop adds the activation scores (the gates array the
        # untraced call has too), and no per-iteration array: one kept
        # output or prediction (n_out * d) exceeds the slack. It copies the
        # input after the loop, beside the final credit, the scores, the
        # gates and the output, so its peak is the larger of the two sets.
        n_inp, n_out, d = 2048, 128, 64
        dims = RoutingDims(n_inp, n_out, d, d, 8)
        rows = BLOCK_ELEMENTS // n_out
        params = init_params(dims, seed=3)
        x = np.random.default_rng(52).standard_normal((n_inp, d), dtype=np.float32)
        route_optimized(x, params)  # warm-up stabilizes allocator state
        (out_off, _), peak = measure_peak(lambda: route_optimized(x, params))
        assert 0 <= peak - 4 * (n_inp * n_out + n_inp + rows * n_out) < 4 * rows * n_out // 2
        route_optimized(x, params, capture_trace=True)[1].iterations[0]  # warm-up, and the replay's
        (out_on, trace), traced_peak = measure_peak(lambda: route_optimized(x, params, capture_trace=True))
        at_end = n_inp * n_out + n_inp * d + 2 * n_inp + n_out * d
        assert 0 <= traced_peak - max(peak + 4 * n_inp, 4 * at_end) < 4 * n_out * d
        assert np.array_equal(out_off.array, out_on.array)
        assert trace.iterations[-1].output is out_on

    def test_peak_repeats_from_the_second_call(self):
        # In a fresh process every call after the first meters one peak, in
        # both layouts, with the trace off and on. A block kernel with an
        # instance __dict__ made the untraced peak fall by 8 B a call over
        # about its first 14 calls.
        script = """
import json
import numpy as np
from vecroute import RoutingDims, init_params, measure_peak, route_optimized
n_inp, n_out, d = 300, 16, 64
x = np.random.default_rng(1).standard_normal((n_inp, d), dtype=np.float32)
peaks = {}
for mode in ("variable", "fixed"):
    params = init_params(RoutingDims(n_inp if mode == "fixed" else None, n_out, d, d, 2), 0)
    for trace in (False, True):
        # Each result is dropped before the next call, as a repeat of the same work.
        peaks[f"{mode}/trace{int(trace)}"] = [
            measure_peak(lambda: route_optimized(x, params, capture_trace=trace))[1] for _ in range(16)
        ]
print(json.dumps(peaks))
"""
        src = str(Path(optimized.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        for name, peaks in json.loads(done.stdout).items():
            assert len(set(peaks[1:])) == 1, (name, peaks)

    def test_bound_has_no_triple_product_term(self):
        small = transient_element_bound(256, 64, 32, 32)
        grown = transient_element_bound(256, 64, 32, 64)
        # Growing d_out touches only the n_out * d_out term.
        assert grown - small == 16 * 64 * 32


class TestAccuracyAtScale:
    # A long sequence on the block path (d_inp >= 3 * n_out), every
    # parameter random: 56 blocks, the last ragged; about 4.4 s on 2 CPUs
    # with 2 BLAS threads.
    def test_long_sequence_float32_tracks_float64_and_decomposes(self):
        n_inp, n_out, d = 400_000, 16, 64
        dims = RoutingDims(None, n_out, d, d, 2)
        rng = np.random.default_rng(44)
        params = rand_params(rng, dims)
        x = rng.standard_normal((n_inp, d), dtype=np.float32)
        out32, _ = route_optimized(x, params)
        p64, x64 = params.astype(np.float64), x.astype(np.float64)
        out64, trace64 = route_optimized(x64, p64)
        assert relative_linf(out32.array, out64.array) <= 1e-5
        rebuilt = credit_vote_sum_streamed(
            x64, trace64.final_credit.array, p64.vote_mix.array, p64.vote_proj.array, p64.vote_bias.array
        )
        assert relative_linf(out64.array, rebuilt) <= 1e-12

    # Differential test of the two block kernels (McKeeman, "Differential
    # testing for software", 1998): for one input x, the fixed-layout set
    # with the variable set's rows broadcast over the inputs and the
    # coefficients beta_pair_for gives x routes like the variable set.
    # The kernels differ in block orientation, slot count, iteration-1 form
    # and gate storage. Scores of every third row of a middle block and of
    # the ragged last one are pinned near -1000 (random gains 0.8-1.2), so
    # every later iteration rescues them. About 2 s on 2 CPUs with 2 BLAS threads, mostly the
    # 200k-row tables.
    @pytest.mark.parametrize(
        "n_inp, n_out, d", [(200_000, 16, 64), (20_000, 64, 32)], ids=["block_path", "closed_form"]
    )
    def test_the_two_kernels_route_alike(self, n_inp, n_out, d, monkeypatch):
        rescued = []
        softmax = optimized._softmax_rows_in_place

        def counted_softmax(scores):
            rescued.append(len(scores))
            softmax(scores)

        monkeypatch.setattr(optimized, "_softmax_rows_in_place", counted_softmax)
        rng = np.random.default_rng(45)
        dims = RoutingDims(None, n_out, d, d, 3)
        params = pinned_predictions(rand_params(rng, dims), dims, [110.0])
        params = replaced(params, dims, score_gain=rng.uniform(0.8, 1.2, n_out).astype(np.float32))
        params = params.astype(np.float64)
        x = rng.standard_normal((n_inp, d))
        x[:, 0] = 0.0
        rows = optimized.BLOCK_ELEMENTS // n_out
        middle, last = n_inp // rows // 2 * rows, n_inp // rows * rows
        assert 0 < middle < last < n_inp  # a middle block and a ragged last one
        planted = np.r_[middle : middle + rows : 3, last:n_inp:3]
        x[planted, 0] = -9.0
        fixed_dims = dataclasses.replace(dims, n_inp=n_inp)
        betas = beta_pair_for(x, params)
        fixed = RoutingParams(
            fixed_dims,
            beta_use=betas.beta_use,
            beta_ign=betas.beta_ign,
            **{
                name: np.broadcast_to(params.tensors[name].array, shape)
                for name, shape in optimized.field_shapes(fixed_dims).items()
                if name not in ("beta_use", "beta_ign")
            },
        )
        out_var, trace_var = route_optimized(x, params)
        rescued_var = rescued.copy()
        rescued.clear()
        out_fixed, trace_fixed = route_optimized(x, fixed)
        assert rescued == rescued_var and sum(rescued) == 2 * len(planted)
        assert relative_linf(out_fixed.array, out_var.array) <= 1e-12
        assert relative_linf(trace_fixed.final_credit.array, trace_var.final_credit.array) <= 1e-12
