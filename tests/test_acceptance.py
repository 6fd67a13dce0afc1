"""Acceptance suite: ten numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion. Tolerances and budgets are pinned here as constants; the
module tests under tests/test_*.py cover the same ground in finer grain.
"""

import struct
import time
import zlib

import numpy as np
import pytest

from vecroute import (
    BetaPair,
    CreditMatrix,
    DegenerateCreditError,
    ParamFormatError,
    PluggableNetworks,
    RoutingDims,
    always_on_activation_plugin,
    as_plugins,
    attribution_report,
    compose_concat,
    compose_residual,
    compose_sequential,
    compose_sum,
    end_to_end_three,
    hopfield_reduction_check,
    init_params,
    load_params,
    materialized_votes,
    route_optimized,
    route_reference,
    save_params,
    tensor,
    transient_element_bound,
    vote_param_budget,
    vote_param_count,
)
from vecroute.bench import DEFAULT_LADDERS, SweepSpec, big_route_demo, linear_fit, run_sweep
from vecroute.memtrack import measure_peak
from vecroute.tensor import NumericError

from oracles import assert_share_laws, matmul_loops, rand_instance, relative_linf, std_all_loops

# Pinned acceptance tolerances and budgets.
EQUIV_INSTANCES = 200
EQUIV_TOL_F32 = 1e-4
EQUIV_TOL_F64 = 1e-10
EQUIV_BUDGET_S = 60.0
SHARE_SUM_TOL = 1e-6
SHARE_BOUND_SLACK = 1e-7
ADDITIVE_INSTANCES = 50
ADDITIVE_TOL = 1e-5
REDUCTION_INSTANCES = 50
REDUCTION_TOL = 1e-5
ALGEBRA_TOL = 1e-6
SCALING_R2_MIN = 0.98
SCALING_BUDGET_S = 600.0
ROUND_TRIPS = 100


def _mode(i: int) -> str:
    return "fixed" if i % 2 == 0 else "variable"


def test_criterion_01_both_routers_agree_on_random_instances():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst32 = worst64 = 0.0
    for i in range(EQUIV_INSTANCES):
        dims, params, x = rand_instance(rng, _mode(i))
        out_fast, _ = route_optimized(x, params)
        nets, betas = as_plugins(x, params)
        out_ref, _ = route_reference(x, nets, betas, dims)
        worst32 = max(worst32, relative_linf(out_fast.array, out_ref.array))

        params64 = params.astype(np.float64)
        x64 = x.astype(np.float64)
        out_fast64, _ = route_optimized(x64, params64)
        nets64, betas64 = as_plugins(x64, params64)
        out_ref64, _ = route_reference(x64, nets64, betas64, dims)
        worst64 = max(worst64, relative_linf(out_fast64.array, out_ref64.array))
    elapsed = time.perf_counter() - start
    assert worst32 <= EQUIV_TOL_F32, f"float32 worst deviation {worst32:.3e}"
    assert worst64 <= EQUIV_TOL_F64, f"float64 worst deviation {worst64:.3e}"
    assert elapsed < EQUIV_BUDGET_S, f"equivalence sweep took {elapsed:.1f}s"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_criterion_01_deviation_raises_on_a_non_finite_operand(bad):
    # Criterion 1 keeps max(worst, deviation), and max(0.0, nan) is 0.0: only
    # a raising deviation keeps a non-finite output from passing unseen.
    good = np.ones((2, 3), np.float32)
    broken = good.copy()
    broken[1, 2] = bad
    for value, reference in ((broken, good), (good, broken)):
        with pytest.raises(NumericError, match="non-finite values in relative_linf"):
            relative_linf(value, reference)


def test_criterion_02_share_conservation_and_bounds_every_iteration():
    rng = np.random.default_rng(102)
    for i in range(30):
        dims, params, x = rand_instance(rng, _mode(i))
        _, trace = route_optimized(x, params, capture_trace=True)
        assert_share_laws(trace, atol_sum=SHARE_SUM_TOL, slack=SHARE_BOUND_SLACK)
        if i < 10:
            nets, betas = as_plugins(x, params)
            _, ref_trace = route_reference(x, nets, betas, dims)
            assert_share_laws(ref_trace, atol_sum=SHARE_SUM_TOL, slack=SHARE_BOUND_SLACK)


def test_criterion_03_first_iteration_prior_is_exactly_flat():
    rng = np.random.default_rng(103)
    for n_out in (1, 2, 5, 100):
        for mode in ("fixed", "variable"):
            dims, params, x = rand_instance(
                rng, mode, n_inp_max=6, n_out_max=1, d_max=8
            )
            dims = RoutingDims(dims.n_inp, n_out, dims.d_inp, dims.d_out, dims.n_iters)
            params = init_params(dims, seed=n_out)
            _, trace = route_optimized(x, params, capture_trace=True)
            flat = np.full((x.shape[0], n_out), 1.0 / n_out, dtype=np.float32)
            assert np.array_equal(trace.iterations[0].routing.array, flat)
            nets, betas = as_plugins(x, params)
            _, ref_trace = route_reference(x, nets, betas, dims)
            assert np.array_equal(ref_trace.iterations[0].routing.array, flat)


def test_criterion_04_outputs_decompose_additively_over_input_credit():
    rng = np.random.default_rng(104)
    for i in range(ADDITIVE_INSTANCES):
        dims, params, x = rand_instance(rng, _mode(i))
        out, trace = route_optimized(x, params, capture_trace=True)
        votes = materialized_votes(x, params).array
        for record in trace.iterations:
            rebuilt = np.einsum("ij,ijh->jh", record.credit.array, votes)
            assert relative_linf(record.output.array, rebuilt) <= ADDITIVE_TOL
        final = np.einsum("ij,ijh->jh", trace.final_credit.array, votes)
        assert relative_linf(out.array, final) <= ADDITIVE_TOL


def test_criterion_05_always_on_pure_use_routing_is_attention():
    rng = np.random.default_rng(105)
    for i in range(REDUCTION_INSTANCES):
        n_inp = int(rng.integers(1, 9))
        n_out = int(rng.integers(1, 7))
        d_inp = int(rng.integers(2, 17))
        d_out = int(rng.integers(2, 17))
        dims = RoutingDims(n_inp, n_out, d_inp, d_out, int(rng.choice((2, 3))))
        vote_map = (rng.standard_normal((d_inp, n_out, d_out)) * 0.5).astype(np.float32)
        pred_map = (rng.standard_normal((d_out, d_inp)) * 0.5).astype(np.float32)
        nets = PluggableNetworks(
            activations=always_on_activation_plugin(),
            votes=lambda x, m=vote_map: np.einsum("id,djh->ijh", x, m),
            predict=lambda x_out, m=pred_map: x_out @ m,
            score=lambda x, predicted: (x @ predicted.T) * np.float32(0.6),
        )
        ones = np.ones((n_inp, n_out), dtype=np.float32)
        betas = BetaPair(tensor(ones), tensor(np.zeros_like(ones)))
        x = rng.standard_normal((n_inp, d_inp)).astype(np.float32)
        report = hopfield_reduction_check(x, nets, betas, dims, tolerance=REDUCTION_TOL)
        assert report.conditions_hold
        assert report.reduces, f"mixture deviation {report.max_mixture_deviation:.3e}"
        assert report.max_factorization_deviation <= REDUCTION_TOL


def test_criterion_06_factored_proposal_parameter_counts():
    dims = RoutingDims(100, 100, 8, 8, 2)
    assert vote_param_count(dims) == 1664
    rng = np.random.default_rng(106)
    for _ in range(20):
        dims = RoutingDims(
            n_inp=int(rng.integers(2, 17)),
            n_out=int(rng.integers(4, 65)),
            d_inp=int(rng.integers(4, 65)),
            d_out=int(rng.integers(4, 65)),
            n_iters=2,
        )
        count = vote_param_count(dims)
        assert count == dims.n_out * dims.d_inp + dims.d_inp * dims.d_out + dims.n_out * dims.d_out
        params = init_params(dims, seed=0)
        stored = params.vote_mix.size + params.vote_proj.size + params.vote_bias.size
        assert count == stored
        budget = vote_param_budget(dims)
        assert budget.shared_naive > budget.factored
        assert budget.full_naive > budget.shared_naive


def test_criterion_07_no_proposal_tensor_at_scale():
    n_inp, n_out, d_inp, d_out = 4096, 256, 128, 128
    dims = RoutingDims(None, n_out, d_inp, d_out, 2)
    params = init_params(dims, seed=7)
    x = np.random.default_rng(7).standard_normal((n_inp, d_inp), dtype=np.float32)
    route_optimized(x, params)  # warm-up stabilizes the measured peak
    _, peak = measure_peak(lambda: route_optimized(x, params))
    proposal_bytes = 4 * n_inp * n_out * d_out
    assert peak < proposal_bytes, f"peak {peak} >= proposal tensor {proposal_bytes}"
    assert peak < 4 * transient_element_bound(n_inp, n_out, d_inp, d_out)

    record = big_route_demo(budget_bytes=4_000_000_000)
    assert record.value == 1_000_000
    assert record.peak_bytes < 4_000_000_000


def test_criterion_08_costs_scale_linearly_in_each_dimension():
    start = time.perf_counter()
    for dimension, (values, baseline) in DEFAULT_LADDERS.items():
        spec = SweepSpec(dimension=dimension, values=values, baseline=baseline)
        records = run_sweep(spec, budget_bytes=None)
        xs = [r.value for r in records]
        wall = linear_fit(xs, [r.wall_ms for r in records])
        assert wall.r_squared >= SCALING_R2_MIN, (
            f"wall time vs {dimension}: R^2 {wall.r_squared:.4f}, "
            f"wall_ms {dict(zip(xs, (round(r.wall_ms, 3) for r in records)))}"
        )
        if dimension != "n_iters":
            mem = linear_fit(xs, [r.peak_bytes for r in records])
            assert mem.r_squared >= SCALING_R2_MIN, (
                f"peak bytes vs {dimension}: R^2 {mem.r_squared:.4f}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < SCALING_BUDGET_S, f"scaling study took {elapsed:.0f}s"


def test_criterion_09_credit_composition_algebra():
    rng = np.random.default_rng(109)

    def cm(rows, cols):
        return CreditMatrix(tensor(rng.standard_normal((rows, cols)), np.float32))

    for _ in range(10):
        a, b, c = cm(5, 4), cm(4, 4), cm(4, 3)
        seq = compose_sequential(a, c)
        assert relative_linf(seq.array, matmul_loops(a.array, c.array)) <= ALGEBRA_TOL
        res = compose_residual(a, b)
        assert relative_linf(res.array, a.array + matmul_loops(a.array, b.array)) <= ALGEBRA_TOL
        tot = compose_sum(a, cm(7, 4))
        assert tot.input_arity == 12 and np.array_equal(tot.array[:5], a.array)
        side = compose_concat(a, c)
        assert np.all(side.array[:5, 4:] == 0.0) and np.all(side.array[5:, :4] == 0.0)
        e2e = end_to_end_three(cm(6, 5), cm(5, 4), cm(4, 3))
        assert abs(std_all_loops(e2e.array) - 1.0) <= ALGEBRA_TOL
    c1, c2, c3 = cm(6, 5), cm(5, 4), cm(4, 3)
    base = end_to_end_three(c1, c2, c3)
    rescaled = end_to_end_three(c1, CreditMatrix(tensor(c2.array * np.float32(3.5))), c3)
    assert relative_linf(rescaled.array, base.array) <= ALGEBRA_TOL
    ones = CreditMatrix(tensor(np.ones((3, 3), np.float32)))
    with pytest.raises(DegenerateCreditError):
        end_to_end_three(ones, ones, ones)
    report = attribution_report(base, [[0, 1, 2], [3, 4, 5]])
    assert relative_linf(
        report.totals.array,
        np.stack([base.array[:3].sum(axis=0), base.array[3:].sum(axis=0)]),
    ) <= ALGEBRA_TOL


def test_criterion_10_parameter_files_round_trip_and_reject_corruption(tmp_path):
    rng = np.random.default_rng(110)
    for i in range(ROUND_TRIPS):
        dims = RoutingDims(
            n_inp=None if i % 2 else int(rng.integers(1, 7)),
            n_out=int(rng.integers(1, 6)),
            d_inp=int(rng.integers(2, 9)),
            d_out=int(rng.integers(2, 9)),
            n_iters=int(rng.integers(2, 5)),
        )
        params = init_params(dims, seed=int(rng.integers(2**31)))
        path = tmp_path / f"rt{i}.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.dims == dims
        for name, t in params.field_items():
            assert np.array_equal(getattr(loaded, name).array, t.array), name

    valid = tmp_path / "valid.bin"
    save_params(init_params(RoutingDims(4, 3, 5, 4, 2), seed=1), valid)
    blob = valid.read_bytes()
    head, _, payload = blob.partition(b"\n\n")
    lines = head.decode("ascii").split("\n")

    def rewrite(name, new_lines=lines, new_payload=payload):
        p = tmp_path / name
        p.write_bytes(("\n".join(new_lines) + "\n\n").encode("ascii") + new_payload)
        return p

    bad_magic = rewrite("magic.bin", ["other-format 1"] + lines[1:])
    flipped = [
        (l[:-1] + ("0" if l[-1] != "0" else "1")) if l.startswith("checksum") else l
        for l in lines
    ]
    bad_crc = rewrite("crc.bin", flipped)
    truncated = rewrite("trunc.bin", new_payload=payload[:-4])
    trailing = rewrite("trail.bin", new_payload=payload + b"\x00\x00\x00\x00")
    nan_payload = struct.pack("<f", float("nan")) + payload[4:]
    nan_lines = [
        f"checksum {zlib.crc32(nan_payload) & 0xFFFFFFFF:08x}" if l.startswith("checksum") else l
        for l in lines
    ]
    poisoned = rewrite("nan.bin", nan_lines, nan_payload)
    renamed = rewrite(
        "renamed.bin",
        [l.replace("tensor vote_mix", "tensor vote_blend") for l in lines],
    )
    for bad in (bad_magic, bad_crc, truncated, trailing, poisoned, renamed):
        with pytest.raises(ParamFormatError):
            load_params(bad)
