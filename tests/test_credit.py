"""Credit matrices: composition laws, normalization, attribution."""

import csv
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vecroute import (
    ArityError,
    BetaPair,
    CreditMatrix,
    DegenerateCreditError,
    NumericError,
    PluggableNetworks,
    RoutingDims,
    ShapeError,
    attribution_report,
    compose_concat,
    compose_residual,
    compose_sequential,
    compose_sum,
    credit_from_trace,
    end_to_end_three,
    memory_votes_plugin,
    route_reference,
    tensor,
)

from oracles import matmul_loops, relative_linf, std_all_loops


def cm(rng, rows, cols, dtype=np.float32):
    return CreditMatrix(tensor(rng.standard_normal((rows, cols)), dtype))


class TestCreditMatrix:
    def test_of_derives_arities(self):
        c = CreditMatrix(tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        assert (c.input_arity, c.output_arity) == (2, 3)

    def test_rejects_non_matrix_rank(self):
        with pytest.raises(ShapeError):
            CreditMatrix(tensor([1.0, 2.0]))

    def test_identity(self):
        eye = CreditMatrix.identity(3)
        assert np.array_equal(eye.array, np.eye(3, dtype=np.float32))

    def test_from_trace(self):
        rng = np.random.default_rng(0)
        n_inp, n_out, d = 4, 3, 5
        dims = RoutingDims(n_inp, n_out, d, d, 2)
        w = rng.standard_normal(d).astype(np.float32)
        nets = PluggableNetworks(
            activations=lambda x: x @ w,
            votes=memory_votes_plugin(rng.standard_normal((n_inp, n_out, d)).astype(np.float32)),
            predict=lambda x_out: x_out,
            score=lambda x, predicted: x @ predicted.T,
        )
        betas = BetaPair(
            tensor(np.ones((n_inp, n_out), np.float32)),
            tensor(np.zeros((n_inp, n_out), np.float32)),
        )
        x = rng.standard_normal((n_inp, d)).astype(np.float32)
        _, trace = route_reference(x, nets, betas, dims)
        c = credit_from_trace(trace)
        assert np.array_equal(c.array, trace.final_credit.array)
        assert (c.input_arity, c.output_arity) == (n_inp, n_out)


class TestSequential:
    def test_matches_loop_matmul(self):
        rng = np.random.default_rng(1)
        a, b = cm(rng, 4, 3), cm(rng, 3, 2)
        got = compose_sequential(a, b)
        assert (got.input_arity, got.output_arity) == (4, 2)
        assert relative_linf(got.array, matmul_loops(a.array, b.array)) <= 1e-6

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(2)
        a = cm(rng, 4, 3)
        left = compose_sequential(CreditMatrix.identity(4), a)
        right = compose_sequential(a, CreditMatrix.identity(3))
        assert_allclose(left.array, a.array, atol=1e-7)
        assert_allclose(right.array, a.array, atol=1e-7)

    def test_associative(self):
        rng = np.random.default_rng(3)
        a, b, c = cm(rng, 5, 4), cm(rng, 4, 3), cm(rng, 3, 6)
        left = compose_sequential(compose_sequential(a, b), c)
        right = compose_sequential(a, compose_sequential(b, c))
        assert relative_linf(left.array, right.array) <= 1e-6

    def test_arity_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ArityError):
            compose_sequential(cm(rng, 4, 3), cm(rng, 2, 5))


class TestResidual:
    def test_adds_through_path(self):
        rng = np.random.default_rng(5)
        a, b = cm(rng, 4, 3), cm(rng, 3, 3)
        got = compose_residual(a, b)
        want = a.array + matmul_loops(a.array, b.array)
        assert relative_linf(got.array, want) <= 1e-6

    def test_zero_stage_passes_credit_through(self):
        rng = np.random.default_rng(6)
        a = cm(rng, 4, 3)
        zero = CreditMatrix(tensor(np.zeros((3, 3), np.float32)))
        assert np.array_equal(compose_residual(a, zero).array, a.array)

    def test_identity_stage_doubles_credit(self):
        rng = np.random.default_rng(7)
        a = cm(rng, 4, 3)
        got = compose_residual(a, CreditMatrix.identity(3))
        assert_allclose(got.array, 2.0 * a.array, rtol=1e-6)

    def test_non_square_stage_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ArityError, match="square"):
            compose_residual(cm(rng, 4, 3), cm(rng, 3, 2))

    def test_arity_mismatch(self):
        rng = np.random.default_rng(9)
        message = "residual composition needs a.output_arity == b.input_arity, got 3 and 2"
        with pytest.raises(ArityError, match=f"^{message}$"):
            compose_residual(cm(rng, 4, 3), cm(rng, 2, 2))


class TestSum:
    def test_stacks_rows_first_operand_first(self):
        rng = np.random.default_rng(9)
        a, b = cm(rng, 2, 3), cm(rng, 4, 3)
        got = compose_sum(a, b)
        assert (got.input_arity, got.output_arity) == (6, 3)
        assert np.array_equal(got.array[:2], a.array)
        assert np.array_equal(got.array[2:], b.array)

    def test_not_commutative(self):
        rng = np.random.default_rng(10)
        a, b = cm(rng, 2, 3), cm(rng, 2, 3)
        ab = compose_sum(a, b).array
        ba = compose_sum(b, a).array
        assert not np.array_equal(ab, ba)

    def test_distributes_over_downstream_stage(self):
        rng = np.random.default_rng(11)
        a, b, c = cm(rng, 2, 3), cm(rng, 4, 3), cm(rng, 3, 5)
        combined = compose_sequential(compose_sum(a, b), c).array
        separate = np.vstack(
            [compose_sequential(a, c).array, compose_sequential(b, c).array]
        )
        assert relative_linf(combined, separate) <= 1e-6

    def test_output_arity_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ArityError):
            compose_sum(cm(rng, 2, 3), cm(rng, 2, 4))


class TestConcat:
    def test_block_diagonal_with_exact_zeros(self):
        rng = np.random.default_rng(13)
        a, b = cm(rng, 2, 3), cm(rng, 4, 5)
        got = compose_concat(a, b)
        assert (got.input_arity, got.output_arity) == (6, 8)
        assert np.array_equal(got.array[:2, :3], a.array)
        assert np.array_equal(got.array[2:, 3:], b.array)
        assert np.all(got.array[:2, 3:] == 0.0)
        assert np.all(got.array[2:, :3] == 0.0)

    def test_blockwise_sequential_law(self):
        rng = np.random.default_rng(14)
        a, b = cm(rng, 2, 3), cm(rng, 4, 5)
        c, d = cm(rng, 3, 2), cm(rng, 5, 4)
        fused = compose_sequential(compose_concat(a, b), compose_concat(c, d))
        blocks = compose_concat(compose_sequential(a, c), compose_sequential(b, d))
        assert relative_linf(fused.array, blocks.array) <= 1e-6


class TestEndToEndThree:
    def test_unit_spread(self):
        rng = np.random.default_rng(15)
        c1, c2, c3 = cm(rng, 6, 5), cm(rng, 5, 4), cm(rng, 4, 3)
        e2e = end_to_end_three(c1, c2, c3)
        assert abs(std_all_loops(e2e.array) - 1.0) <= 1e-6

    def test_positive_rescaling_cancels(self):
        rng = np.random.default_rng(16)
        c1, c2, c3 = cm(rng, 6, 5), cm(rng, 5, 4), cm(rng, 4, 3)
        scaled = CreditMatrix(tensor(c2.array * np.float32(7.25)))
        base = end_to_end_three(c1, c2, c3)
        rescaled = end_to_end_three(c1, scaled, c3)
        assert relative_linf(rescaled.array, base.array) <= 1e-6

    def test_preserves_per_output_ranking(self):
        rng = np.random.default_rng(17)
        c1, c2, c3 = cm(rng, 6, 5), cm(rng, 5, 4), cm(rng, 4, 3)
        raw = c1.array @ c2.array @ c3.array
        e2e = end_to_end_three(c1, c2, c3)
        assert np.array_equal(np.argmax(e2e.array, axis=0), np.argmax(raw, axis=0))

    def test_constant_product_is_degenerate(self):
        ones = CreditMatrix(tensor(np.ones((3, 3), np.float32)))
        with pytest.raises(DegenerateCreditError):
            end_to_end_three(ones, ones, ones)

    def test_zero_stage_is_degenerate(self):
        rng = np.random.default_rng(18)
        zero = CreditMatrix(tensor(np.zeros((5, 4), np.float32)))
        with pytest.raises(DegenerateCreditError):
            end_to_end_three(cm(rng, 6, 5), zero, cm(rng, 4, 3))


def _full(value, dtype=np.float32):
    return CreditMatrix(tensor(np.full((2, 2), value, dtype), dtype))


def _diagonal(top, dtype=np.float64):
    return CreditMatrix(tensor(np.diag([top, 1.0]).astype(dtype), dtype))


@pytest.mark.parametrize(
    "operation, operands, stage",
    [
        (compose_sequential, (_full(3e38), _full(3e38)), "sequential composition"),
        (compose_residual, (_full(3e38), _full(3e38)), "residual composition"),
        # The chain product overflows before the normalization starts.
        (end_to_end_three, (_full(3e38), _full(3e38), _full(3e38)), "sequential composition"),
        # A finite float64 product whose spread overflows would scale to 0.
        (end_to_end_three, (_diagonal(1e200), _diagonal(1.0), _diagonal(1.0)), "end-to-end credit spread"),
    ],
    ids=["sequential", "residual", "end_to_end_product", "end_to_end_spread"],
)
def test_overflow_names_the_operation(operation, operands, stage):
    # Under pytest's error::RuntimeWarning filter an unguarded overflow
    # would surface as a warning instead of the named NumericError.
    with pytest.raises(NumericError, match=f"^non-finite values in {stage}$"):
        operation(*operands)


class TestAttributionReport:
    def test_singleton_groups_reproduce_matrix(self):
        rng = np.random.default_rng(19)
        e2e = cm(rng, 4, 3)
        report = attribution_report(e2e, [[0], [1], [2], [3]])
        assert np.array_equal(report.totals.array, e2e.array)

    def test_single_group_gives_column_sums(self):
        rng = np.random.default_rng(20)
        e2e = cm(rng, 4, 3)
        report = attribution_report(e2e, [[0, 1, 2, 3]])
        assert_allclose(report.totals.array[0], e2e.array.sum(axis=0), rtol=1e-6)

    def test_two_groups_match_loop_oracle(self):
        rng = np.random.default_rng(21)
        e2e = cm(rng, 5, 3)
        groups = [[0, 2], [1, 3, 4]]
        report = attribution_report(e2e, groups)
        for g, members in enumerate(groups):
            for j in range(3):
                want = sum(float(e2e.array[i, j]) for i in members)
                assert report.totals.array[g, j] == pytest.approx(want, rel=1e-6)

    def test_totals_are_the_per_group_sums_bitwise(self):
        # Ragged groups with members and groups out of order: each total
        # adds its members one by one in the order given, like the sum of
        # that group's rows.
        rng = np.random.default_rng(25)
        perm = [int(i) for i in rng.permutation(40)]
        groups = [perm[a:b] for a, b in ((0, 1), (1, 8), (8, 11), (11, 23), (23, 40))]
        for dtype in (np.float32, np.float64):
            e2e = cm(rng, 40, 5, dtype)
            report = attribution_report(e2e, groups)
            want = np.stack([e2e.array[members].sum(axis=0) for members in groups])
            assert report.totals.array.dtype == dtype
            assert np.array_equal(report.totals.array, want), dtype

    def test_group_order_is_preserved(self):
        rng = np.random.default_rng(22)
        e2e = cm(rng, 4, 2)
        fwd = attribution_report(e2e, [[0, 1], [2, 3]])
        rev = attribution_report(e2e, [[2, 3], [0, 1]])
        assert np.array_equal(fwd.totals.array[0], rev.totals.array[1])
        assert fwd.groups == ((0, 1), (2, 3))
        as_numpy = attribution_report(e2e, [np.array([0, 1]), np.arange(2, 4, dtype=np.int32)])
        assert np.array_equal(as_numpy.totals.array, fwd.totals.array)
        assert as_numpy.groups == fwd.groups and type(as_numpy.groups[1][0]) is int

    def test_rejects_non_partitions(self):
        rng = np.random.default_rng(23)
        e2e = cm(rng, 4, 3)
        with pytest.raises(ValueError, match="empty"):
            attribution_report(e2e, [[0, 1, 2, 3], []])
        with pytest.raises(ValueError, match="outside"):
            attribution_report(e2e, [[0, 1], [2, 4]])
        with pytest.raises(ValueError, match="more than one"):
            attribution_report(e2e, [[0, 1], [1, 2, 3]])
        with pytest.raises(ValueError, match="cover"):
            attribution_report(e2e, [[0, 1], [3]])

    @pytest.mark.parametrize(
        "groups, message",
        [
            ([[0, 1], [], [5]], "group 1 is empty; not a partition"),
            ([[0, 1], [2], [], [1]], "group 2 is empty; not a partition"),
            ([[5], []], "group 0 names input 5, outside [0, 4)"),
            ([[0, 9, 0]], "group 0 names input 9, outside [0, 4)"),
            ([[-1, 0, 0]], "group 0 names input -1, outside [0, 4)"),
            ([[0, 1, 2, 3], [2**70]], f"group 1 names input {2**70}, outside [0, 4)"),
            ([[0, 1, 1, 9]], "input 1 appears in more than one group"),
            ([[2, 0], [0, -1], []], "input 0 appears in more than one group"),
            ([[1, 2, 2, 1]], "input 2 appears in more than one group"),
            ([[3], [2, 3, 2], [1]], "input 3 appears in more than one group"),
            ([[0], [2]], "groups do not cover inputs [1, 3]; not a partition"),
            ([[0, 1], [2, 0.5, 9]], "group 1 names input 0.5, not an integer"),
        ],
    )
    def test_names_the_first_fault_of_the_scan(self, groups, message):
        # Group by group, member by member: an empty group before its
        # members, a member outside the range before a repeat; a missing
        # input last.
        e2e = cm(np.random.default_rng(26), 4, 3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            attribution_report(e2e, groups)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        e2e = cm(rng, 4, 3)
        groups = [[0, 3], [1], [2]]
        report = attribution_report(e2e, groups)
        path = tmp_path / "attribution.csv"
        report.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["output_index", "group_id", "credit"]
        assert len(rows) == 1 + 3 * 3
        for j, g, credit in rows[1:]:
            got = float(credit)
            assert got == float(report.totals.array[int(g), int(j)])


class TestCompositionSoundness:
    def test_two_stage_chain_is_linear_in_stage_one_proposals(self):
        # With single-proposal votes (every output sees the same proposal
        # from input i) and the second stage voting its own inputs, the
        # chained output is exactly the composed credit applied to the
        # first stage's proposals.
        rng = np.random.default_rng(25)
        n1, n2, n3, d = 5, 4, 3, 6
        dtype = np.float64

        def stage_nets(n_rows, proposals):
            w = rng.standard_normal(d)
            gain = 0.5
            return PluggableNetworks(
                activations=lambda x: x @ w,
                votes=memory_votes_plugin(proposals),
                predict=lambda x_out: np.asarray(x_out, dtype=dtype),
                score=lambda x, predicted: (x @ predicted.T) * gain,
            )

        def stage_betas(n_rows, n_cols):
            bu = rng.standard_normal((n_rows, n_cols)) * 0.5 + 0.9
            bi = rng.standard_normal((n_rows, n_cols)) * 0.3
            return BetaPair(tensor(bu, dtype), tensor(bi, dtype))

        x1 = rng.standard_normal((n1, d))
        v1 = rng.standard_normal((n1, d))
        votes1 = np.ascontiguousarray(np.broadcast_to(v1[:, None, :], (n1, n2, d)))
        dims1 = RoutingDims(n1, n2, d, d, 3)
        out1, trace1 = route_reference(x1, stage_nets(n1, votes1), stage_betas(n1, n2), dims1)

        votes2 = np.ascontiguousarray(
            np.broadcast_to(out1.array[:, None, :], (n2, n3, d))
        )
        dims2 = RoutingDims(n2, n3, d, d, 2)
        out2, trace2 = route_reference(
            out1.array, stage_nets(n2, votes2), stage_betas(n2, n3), dims2
        )

        chained = compose_sequential(credit_from_trace(trace1), credit_from_trace(trace2))
        want = chained.array.T @ v1
        assert relative_linf(out2.array, want) <= 1e-10
