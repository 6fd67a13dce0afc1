"""General pluggable router: loop semantics, plugins, trace laws."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vecroute import (
    ALWAYS_ON,
    AlwaysOn,
    BetaPair,
    NumericError,
    PluggableNetworks,
    RoutingDims,
    ShapeError,
    always_on_activation_plugin,
    hopfield_reduction_check,
    memory_votes_plugin,
    phi_of,
    relative_linf,
    route_reference,
    tensor,
)

from oracles import assert_share_laws, route_general_loops


def rand_nets(rng, n_out, d_inp, d_out, dtype=np.float32):
    """Random well-behaved plugin networks, symmetry-breaking across outputs."""
    w_a = (rng.standard_normal(d_inp) * 0.4).astype(dtype)
    vote_map = (rng.standard_normal((d_inp, n_out, d_out)) * 0.5).astype(dtype)
    vote_off = (rng.standard_normal((n_out, d_out)) * 0.3).astype(dtype)
    pred_map = (rng.standard_normal((d_out, d_inp)) * 0.5).astype(dtype)
    gain = dtype(0.6)
    return PluggableNetworks(
        activations=lambda x: x @ w_a,
        votes=lambda x: np.einsum("id,djh->ijh", x, vote_map) + vote_off,
        predict=lambda x_out: x_out @ pred_map,
        score=lambda x, predicted: (x @ predicted.T) * gain,
    )


def rand_betas(rng, n_inp, n_out, dtype=np.float32):
    bu = (rng.standard_normal((n_inp, n_out)) * 0.5 + 0.8).astype(dtype)
    bi = (rng.standard_normal((n_inp, n_out)) * 0.4 + 0.1).astype(dtype)
    return BetaPair(tensor(bu, dtype), tensor(bi, dtype))


def rand_case(rng, n_inp=5, n_out=4, d_inp=6, d_out=5, n_iters=3, dtype=np.float32):
    dims = RoutingDims(n_inp, n_out, d_inp, d_out, n_iters)
    nets = rand_nets(rng, n_out, d_inp, d_out, dtype)
    betas = rand_betas(rng, n_inp, n_out, dtype)
    x = rng.standard_normal((n_inp, d_inp)).astype(dtype)
    return dims, nets, betas, x


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n_out=0), "n_out must be positive"),
        (dict(d_inp=0), "d_inp must be positive"),
        (dict(d_out=-1), "d_out must be positive"),
        (dict(n_inp=0), r"n_inp must be positive or None \(variable length\)"),
        (dict(n_iters=1), "n_iters must be at least 2"),
    ],
    ids=["n_out", "d_inp", "d_out", "n_inp", "n_iters"],
)
def test_routing_dims_reject_invalid_extents(kwargs, message):
    extents = dict(n_inp=5, n_out=4, d_inp=6, d_out=5, n_iters=2) | kwargs
    with pytest.raises(ValueError, match=f"^{message}$"):
        RoutingDims(**extents)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: BetaPair(np.ones((2, 3)), np.ones((3, 2))),
            "beta_use shape (2, 3) != beta_ign shape (3, 2)",
        ),
        (lambda: BetaPair(np.ones((2, 3)), np.ones(3)), "beta_ign must be rank 2, got rank 1"),
        (lambda: memory_votes_plugin(np.ones((4, 3))), "memories must be rank 3, got rank 2"),
    ],
    ids=["beta_shape_mismatch", "beta_rank", "memories_rank"],
)
def test_structural_faults_are_named(build, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        build()


class TestRouteReference:
    @pytest.mark.parametrize("shape", [(5,), (1, 5, 6)], ids=["rank1", "rank3"])
    def test_rejects_input_of_rank_other_than_two(self, shape):
        dims, nets, betas, _ = rand_case(np.random.default_rng(14))
        x = np.zeros(shape, np.float32)
        with pytest.raises(ShapeError, match=f"^x_inp must be rank 2, got rank {len(shape)}$"):
            route_reference(x, nets, betas, dims)

    def test_rejects_scores_of_the_wrong_shape(self):
        dims, nets, betas, x = rand_case(np.random.default_rng(15))
        transposed = lambda x, predicted: np.zeros((dims.n_out, dims.n_inp))
        bad = PluggableNetworks(nets.activations, nets.votes, nets.predict, transposed)
        message = re.escape("prediction scores shape (4, 5) != (5, 4)")
        with pytest.raises(ShapeError, match=f"^{message}$"):
            route_reference(x, bad, betas, dims)

    def test_flat_prior_first_iteration(self):
        rng = np.random.default_rng(0)
        dims, nets, betas, x = rand_case(rng, n_out=5)
        _, trace = route_reference(x, nets, betas, dims)
        first = trace.iterations[0]
        expected = np.asarray(1.0 / 5.0, dtype=x.dtype)
        assert np.all(first.routing.array == expected)
        assert first.scores is None and first.predicted is None

    def test_zero_betas_give_zero_outputs(self):
        rng = np.random.default_rng(1)
        dims, nets, _, x = rand_case(rng)
        zeros = np.zeros((dims.n_inp, dims.n_out), dtype=np.float32)
        betas = BetaPair(tensor(zeros), tensor(zeros))
        out, trace = route_reference(x, nets, betas, dims)
        assert np.all(out.array == 0.0)
        for record in trace.iterations:
            assert np.all(record.output.array == 0.0)

    def test_matches_scalar_loop_oracle_float64(self):
        rng = np.random.default_rng(2)
        dims, nets, betas, x = rand_case(
            rng, n_inp=4, n_out=3, d_inp=6, d_out=5, n_iters=3, dtype=np.float64
        )
        out, trace = route_reference(x, nets, betas, dims)
        want_out, history = route_general_loops(
            x,
            nets.activations(x),
            nets.votes(x),
            nets.predict,
            nets.score,
            betas.beta_use.array,
            betas.beta_ign.array,
            dims.n_iters,
        )
        assert relative_linf(out.array, want_out) <= 1e-10
        for record, want in zip(trace.iterations, history):
            assert relative_linf(record.routing.array, want["routing"]) <= 1e-10
            assert relative_linf(record.credit.array, want["phi"]) <= 1e-10
            assert relative_linf(record.output.array, want["output"]) <= 1e-10

    def test_trace_capture_off_returns_none(self):
        rng = np.random.default_rng(3)
        dims, nets, betas, x = rand_case(rng)
        out, trace = route_reference(x, nets, betas, dims, capture_trace=False)
        assert trace is None
        assert out.shape == (dims.n_out, dims.d_out)

    def test_shape_errors_name_the_step(self):
        rng = np.random.default_rng(4)
        dims, nets, betas, x = rand_case(rng)
        bad_act = PluggableNetworks(
            activations=lambda x: np.zeros(dims.n_inp + 1, dtype=np.float32),
            votes=nets.votes,
            predict=nets.predict,
            score=nets.score,
        )
        with pytest.raises(ShapeError, match="activation"):
            route_reference(x, bad_act, betas, dims)
        bad_votes = PluggableNetworks(
            activations=nets.activations,
            votes=lambda x: np.zeros((dims.n_inp, dims.n_out, dims.d_out + 2), np.float32),
            predict=nets.predict,
            score=nets.score,
        )
        with pytest.raises(ShapeError, match="votes"):
            route_reference(x, bad_votes, betas, dims)
        bad_pred = PluggableNetworks(
            activations=nets.activations,
            votes=nets.votes,
            predict=lambda x_out: np.zeros((1, 1), np.float32),
            score=nets.score,
        )
        with pytest.raises(ShapeError, match="predicted"):
            route_reference(x, bad_pred, betas, dims)

    def test_numeric_error_names_step_and_iteration(self):
        rng = np.random.default_rng(5)
        dims, nets, betas, x = rand_case(rng)
        exploding = PluggableNetworks(
            activations=nets.activations,
            votes=nets.votes,
            predict=nets.predict,
            score=lambda x, predicted: np.full((dims.n_inp, dims.n_out), np.nan, np.float32),
        )
        with pytest.raises(NumericError, match="score at iteration 2"):
            route_reference(x, exploding, betas, dims)

    def test_input_shape_validation(self):
        rng = np.random.default_rng(6)
        dims, nets, betas, x = rand_case(rng)
        with pytest.raises(ShapeError):
            route_reference(x[:, :-1], nets, betas, dims)
        with pytest.raises(ShapeError):
            route_reference(x[:-1], nets, betas, dims)


class TestPhiOf:
    def test_pure_use_betas_equal_share_used(self):
        rng = np.random.default_rng(7)
        dims, nets, _, x = rand_case(rng)
        ones = np.ones((dims.n_inp, dims.n_out), dtype=np.float32)
        betas = BetaPair(tensor(ones), tensor(np.zeros_like(ones)))
        _, trace = route_reference(x, nets, betas, dims)
        for record in trace.iterations:
            assert np.array_equal(phi_of(record, betas).array, record.share_used.array)

    def test_equal_betas_algebra(self):
        rng = np.random.default_rng(8)
        dims, nets, _, x = rand_case(rng)
        b = (rng.standard_normal((dims.n_inp, dims.n_out)) * 0.5).astype(np.float32)
        betas = BetaPair(tensor(b), tensor(b))
        _, trace = route_reference(x, nets, betas, dims)
        gates = trace.activation_gates.array
        for record in trace.iterations:
            want = b * (2.0 * record.share_used.array - gates[:, None])
            assert_allclose(phi_of(record, betas).array, want, atol=1e-6)

    def test_fully_gated_inputs_have_zero_credit(self):
        rng = np.random.default_rng(9)
        dims, nets, betas, x = rand_case(rng)
        gated = PluggableNetworks(
            activations=lambda x: np.full(dims.n_inp, -1e9, dtype=np.float32),
            votes=nets.votes,
            predict=nets.predict,
            score=nets.score,
        )
        out, trace = route_reference(x, gated, betas, dims)
        assert np.all(trace.activation_gates.array == 0.0)
        for record in trace.iterations:
            assert np.all(phi_of(record, betas).array == 0.0)
        assert np.all(out.array == 0.0)

    def test_recomputation_matches_trace_credit(self):
        rng = np.random.default_rng(10)
        dims, nets, betas, x = rand_case(rng)
        _, trace = route_reference(x, nets, betas, dims)
        for record in trace.iterations:
            assert np.array_equal(phi_of(record, betas).array, record.credit.array)


class TestMemoryVotesPlugin:
    def test_ignores_its_input(self):
        rng = np.random.default_rng(11)
        mem = rng.standard_normal((4, 3, 5)).astype(np.float32)
        plugin = memory_votes_plugin(mem)
        x1 = rng.standard_normal((4, 6)).astype(np.float32)
        x2 = rng.standard_normal((4, 6)).astype(np.float32)
        assert np.array_equal(plugin(x1), plugin(x2))

    def test_zero_memories_zero_outputs(self):
        rng = np.random.default_rng(12)
        dims, nets, betas, x = rand_case(rng, n_inp=4, n_out=3, d_out=5)
        stored = PluggableNetworks(
            activations=nets.activations,
            votes=memory_votes_plugin(np.zeros((4, 3, 5), dtype=np.float32)),
            predict=nets.predict,
            score=nets.score,
        )
        out, _ = route_reference(x, stored, betas, dims)
        assert np.all(out.array == 0.0)

    def test_memorizing_computed_votes_reproduces_route(self):
        rng = np.random.default_rng(13)
        dims, nets, betas, x = rand_case(rng)
        stored = PluggableNetworks(
            activations=nets.activations,
            votes=memory_votes_plugin(np.asarray(nets.votes(x))),
            predict=nets.predict,
            score=nets.score,
        )
        out_live, _ = route_reference(x, nets, betas, dims)
        out_mem, _ = route_reference(x, stored, betas, dims)
        assert relative_linf(out_mem.array, out_live.array) <= 1e-6

    def test_row_count_mismatch_rejected(self):
        plugin = memory_votes_plugin(np.zeros((4, 3, 5), dtype=np.float32))
        with pytest.raises(ShapeError):
            plugin(np.zeros((5, 6), dtype=np.float32))


class TestAlwaysOnPlugin:
    def _always_on_case(self, rng, **kwargs):
        dims, nets, betas, x = rand_case(rng, **kwargs)
        nets = PluggableNetworks(
            activations=always_on_activation_plugin(),
            votes=nets.votes,
            predict=nets.predict,
            score=nets.score,
        )
        return dims, nets, betas, x

    def test_marker_and_unit_gates(self):
        rng = np.random.default_rng(14)
        dims, nets, betas, x = self._always_on_case(rng)
        _, trace = route_reference(x, nets, betas, dims)
        assert isinstance(trace.activation_scores, AlwaysOn)
        assert trace.activation_scores is ALWAYS_ON
        assert np.all(trace.activation_gates.array == 1.0)

    def test_share_identities_with_unit_gates(self):
        rng = np.random.default_rng(15)
        dims, nets, betas, x = self._always_on_case(rng)
        _, trace = route_reference(x, nets, betas, dims)
        for record in trace.iterations:
            assert np.array_equal(record.share_used.array, record.routing.array)
            assert np.array_equal(
                record.share_ignored.array, 1.0 - record.routing.array
            )
            assert_allclose(record.share_used.array.sum(axis=1), 1.0, atol=1e-6)

    def test_attention_reduction_oracle(self):
        rng = np.random.default_rng(16)
        dims, nets, _, x = self._always_on_case(rng)
        ones = np.ones((dims.n_inp, dims.n_out), dtype=np.float32)
        betas = BetaPair(tensor(ones), tensor(np.zeros_like(ones)))
        _, trace = route_reference(x, nets, betas, dims)
        votes = np.asarray(nets.votes(x))
        for record in trace.iterations:
            mixture = np.einsum("ij,ijh->jh", record.routing.array, votes)
            assert relative_linf(record.output.array, mixture) <= 1e-6


class TestHopfieldReductionCheck:
    def test_reducing_configuration(self):
        rng = np.random.default_rng(17)
        dims, nets, _, x = rand_case(rng)
        nets = PluggableNetworks(
            activations=always_on_activation_plugin(),
            votes=nets.votes,
            predict=nets.predict,
            score=nets.score,
        )
        ones = np.ones((dims.n_inp, dims.n_out), dtype=np.float32)
        betas = BetaPair(tensor(ones), tensor(np.zeros_like(ones)))
        report = hopfield_reduction_check(x, nets, betas, dims)
        assert report.conditions_hold
        assert report.reduces
        assert report.max_mixture_deviation <= 1e-5
        assert report.max_factorization_deviation <= 1e-5
        assert report.bias_weight_magnitude == 0.0

    def test_nonzero_ignore_cost_breaks_the_reduction(self):
        rng = np.random.default_rng(18)
        dims, nets, _, x = rand_case(rng)
        nets = PluggableNetworks(
            activations=always_on_activation_plugin(),
            votes=nets.votes,
            predict=nets.predict,
            score=nets.score,
        )
        ones = np.ones((dims.n_inp, dims.n_out), dtype=np.float32)
        betas = BetaPair(tensor(ones), tensor(np.full_like(ones, 0.3)))
        report = hopfield_reduction_check(x, nets, betas, dims)
        assert not report.conditions_hold
        assert not report.reduces
        assert report.bias_weight_magnitude == pytest.approx(0.3, rel=1e-6)
        # The values-minus-biases factorization is an identity regardless.
        assert report.max_factorization_deviation <= 1e-5

    def test_finite_activations_break_the_conditions(self):
        rng = np.random.default_rng(19)
        dims, nets, _, x = rand_case(rng)
        ones = np.ones((dims.n_inp, dims.n_out), dtype=np.float32)
        betas = BetaPair(tensor(ones), tensor(np.zeros_like(ones)))
        report = hopfield_reduction_check(x, nets, betas, dims)
        assert not report.conditions_hold

    def test_zero_input_with_stored_votes(self):
        rng = np.random.default_rng(20)
        n_inp, n_out, d_inp, d_out = 4, 3, 6, 5
        dims = RoutingDims(n_inp, n_out, d_inp, d_out, 2)
        base = rand_nets(rng, n_out, d_inp, d_out)
        nets = PluggableNetworks(
            activations=always_on_activation_plugin(),
            votes=memory_votes_plugin(rng.standard_normal((n_inp, n_out, d_out)).astype(np.float32)),
            predict=base.predict,
            score=base.score,
        )
        ones = np.ones((n_inp, n_out), dtype=np.float32)
        betas = BetaPair(tensor(ones), tensor(np.zeros_like(ones)))
        x = np.zeros((n_inp, d_inp), dtype=np.float32)
        report = hopfield_reduction_check(x, nets, betas, dims)
        assert report.reduces
        assert report.max_mixture_deviation <= 1e-6


class TestTraceInvariants:
    def test_share_laws_across_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            dims, nets, betas, x = rand_case(
                rng,
                n_inp=int(rng.integers(1, 9)),
                n_out=int(rng.integers(1, 7)),
                d_inp=int(rng.integers(2, 9)),
                d_out=int(rng.integers(2, 9)),
                n_iters=int(rng.integers(2, 5)),
            )
            _, trace = route_reference(x, nets, betas, dims)
            assert_share_laws(trace)
            for record in trace.iterations:
                assert_allclose(record.routing.array.sum(axis=1), 1.0, atol=1e-6)

    def test_first_iteration_ignores_predict_and_score(self):
        rng = np.random.default_rng(22)
        dims, nets, betas, x = rand_case(rng, n_iters=2)
        other = PluggableNetworks(
            activations=nets.activations,
            votes=nets.votes,
            predict=lambda x_out: x_out @ np.full((dims.d_out, dims.d_inp), 0.123, np.float32),
            score=lambda x, predicted: -np.abs(x @ predicted.T),
        )
        _, t1 = route_reference(x, nets, betas, dims)
        _, t2 = route_reference(x, other, betas, dims)
        assert np.array_equal(t1.iterations[0].output.array, t2.iterations[0].output.array)
        assert not np.array_equal(t1.iterations[1].output.array, t2.iterations[1].output.array)

    def test_permuting_inputs_permutes_credit_and_preserves_outputs(self):
        rng = np.random.default_rng(23)
        dims, nets, betas, x = rand_case(rng, n_inp=7)
        perm = rng.permutation(7)
        betas_perm = BetaPair(
            tensor(betas.beta_use.array[perm]), tensor(betas.beta_ign.array[perm])
        )
        out, trace = route_reference(x, nets, betas, dims)
        out_p, trace_p = route_reference(np.ascontiguousarray(x[perm]), nets, betas_perm, dims)
        assert relative_linf(out_p.array, out.array) <= 1e-6
        assert relative_linf(
            trace_p.final_credit.array, trace.final_credit.array[perm]
        ) <= 1e-6

    def test_additive_decomposition_from_trace(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            dims, nets, betas, x = rand_case(rng, n_iters=3)
            _, trace = route_reference(x, nets, betas, dims)
            votes = np.asarray(nets.votes(x))
            for record in trace.iterations:
                rebuilt = np.einsum("ij,ijh->jh", record.credit.array, votes)
                assert relative_linf(record.output.array, rebuilt) <= 1e-5
