"""Concrete memory-lean router: per-op oracles, equivalence, budgets."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vecroute import (
    BLOCK_ELEMENTS,
    NumericError,
    RoutingDims,
    RoutingParams,
    ShapeError,
    VoteParamBudget,
    activation_scores,
    as_plugins,
    beta_pair_for,
    init_params,
    m_step_factored,
    materialized_votes,
    predict_inputs,
    relative_linf,
    route_optimized,
    route_reference,
    score_predictions,
    total_param_count,
    transient_element_bound,
    vote_param_budget,
    vote_param_count,
    votes_for_input,
)
from vecroute.memtrack import measure_peak

from oracles import (
    activation_loops,
    assert_share_laws,
    betas_loops,
    m_step_loops,
    predict_loops,
    rand_instance,
    rand_params,
    score_loops,
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
        params = RoutingParams.from_mapping(
            dims,
            {
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
        params = RoutingParams.from_mapping(
            dims,
            {
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
        params = RoutingParams.from_mapping(dims, overrides)
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

    def test_dims_override_changes_iterations_only(self):
        rng = np.random.default_rng(22)
        dims, params, x = rand_instance(rng, "fixed", n_iters_choices=(2,))
        longer = dataclasses.replace(dims, n_iters=4)
        _, trace = route_optimized(x, params, dims=longer, capture_trace=True)
        assert len(trace.iterations) == 4
        bad = dataclasses.replace(dims, n_out=dims.n_out + 1)
        with pytest.raises(ShapeError, match="n_out"):
            route_optimized(x, params, dims=bad)

    def test_rejects_mismatched_rows_and_dtype(self):
        rng = np.random.default_rng(23)
        dims, params, x = rand_instance(rng, "fixed", n_inp_max=4)
        with pytest.raises(ShapeError, match="rows"):
            route_optimized(np.vstack([x, x]), params)
        with pytest.raises(TypeError, match="dtype"):
            route_optimized(x.astype(np.float64), params)

    def test_variable_mode_accepts_any_length(self):
        rng = np.random.default_rng(24)
        dims, params, x = rand_instance(rng, "variable")
        for rows in (1, 3, 17):
            xs = rng.standard_normal((rows, dims.d_inp)).astype(np.float32)
            out, _ = route_optimized(xs, params)
            assert out.shape == (dims.n_out, dims.d_out)


def multi_block_instance(rng, mode, n_out=64, d=12, n_iters=3):
    """(dims, params, x, rows): inputs span three blocks, the last ragged."""
    rows = BLOCK_ELEMENTS // n_out
    n_inp = 2 * rows + rows // 3
    dims = RoutingDims(n_inp if mode == "fixed" else None, n_out, d, d, n_iters)
    params = rand_params(rng, dims, n_inp)
    x = rng.standard_normal((n_inp, d), dtype=np.float32)
    return dims, params, x, rows


def replaced(params, dims, **arrays):
    return RoutingParams.from_mapping(
        dims, {name: arrays.get(name, t) for name, t in params.field_items()}
    )


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

    def test_bound_has_no_triple_product_term(self):
        small = transient_element_bound(256, 64, 32, 32)
        grown = transient_element_bound(256, 64, 32, 64)
        # Growing d_out touches only the n_out * d_out term.
        assert grown - small == 16 * 64 * 32
