"""Scaling sweeps, fits, the long-sequence demo, and the CLI."""

import csv

import numpy as np
import pytest

from vecroute import bench
from vecroute.memtrack import measure_peak
from vecroute.optimized import BLOCK_ELEMENTS
from vecroute.bench import (
    CSV_COLUMNS,
    DEFAULT_LADDERS,
    BenchRecord,
    MemoryBudgetError,
    SweepSpec,
    big_route_demo,
    linear_fit,
    main,
    run_sweep,
)

TINY_BASELINE = dict(n_inp=8, n_out=4, d_inp=8, d_out=8, n_iters=2)


def tiny_spec(dimension="n_iters", values=(2, 3), **kwargs):
    baseline = {k: v for k, v in TINY_BASELINE.items() if k != dimension}
    defaults = dict(repeats=2, seed=0, mode="fixed")
    defaults.update(kwargs)
    return SweepSpec(dimension=dimension, values=values, baseline=baseline, **defaults)


class TestSweepSpec:
    def test_point_overrides_swept_dimension(self):
        spec = tiny_spec("n_out", values=(4, 8))
        assert spec.point(8)["n_out"] == 8
        assert spec.point(8)["n_inp"] == 8

    def test_rejects_unknown_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            tiny_spec("batch")

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="positive"):
            tiny_spec(values=())
        with pytest.raises(ValueError, match="positive"):
            tiny_spec(values=(4, 0))

    def test_rejects_bad_repeats_and_mode(self):
        with pytest.raises(ValueError, match="repeats"):
            tiny_spec(repeats=0)
        with pytest.raises(ValueError, match="mode"):
            tiny_spec(mode="adaptive")

    def test_rejects_incomplete_baseline(self):
        with pytest.raises(ValueError, match="misses"):
            SweepSpec(dimension="n_inp", values=(8,), baseline=dict(n_out=4))

    def test_default_ladders_are_valid_specs(self):
        for dimension, (values, baseline) in DEFAULT_LADDERS.items():
            spec = SweepSpec(dimension=dimension, values=values, baseline=baseline)
            assert spec.point(values[0])[dimension] == values[0]


class TestLinearFit:
    def test_exact_line(self):
        xs = [1, 2, 4, 8]
        ys = [3.0 + 2.5 * x for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(2.5, rel=1e-12)
        assert fit.intercept == pytest.approx(3.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_line_keeps_high_r_squared(self):
        rng = np.random.default_rng(0)
        xs = np.arange(1.0, 21.0)
        ys = 5.0 * xs + 2.0 + rng.normal(0, 0.5, xs.size)
        fit = linear_fit(xs, ys)
        assert 0.99 <= fit.r_squared <= 1.0

    def test_constant_points_fit_exactly(self):
        fit = linear_fit([1, 2, 3], [4.0, 4.0, 4.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_scattered_data_scores_low(self):
        fit = linear_fit([1, 2, 3, 4], [0.0, 5.0, -3.0, 2.0])
        assert fit.r_squared < 0.5

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2.0])
        with pytest.raises(ValueError):
            linear_fit([1, 2], [2.0])


@pytest.fixture
def routed_rows(monkeypatch):
    """The row count of every routing the bench module makes, in order."""
    calls = []
    route = bench.route_optimized

    def recorded(x, params):
        calls.append(x.shape[0])
        return route(x, params)

    monkeypatch.setattr(bench, "route_optimized", recorded)
    return calls


class TestRunSweep:
    def test_measures_every_ladder_point(self):
        records = run_sweep(tiny_spec())
        assert [r.value for r in records] == [2, 3]
        for r in records:
            assert not r.skipped
            assert r.params > 0 and r.peak_bytes > 0 and r.wall_ms > 0
            assert r.repeats == 2
        # Iteration count touches no parameter tensor.
        assert records[0].params == records[1].params

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        records = run_sweep(tiny_spec(), csv_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + len(records)
        for row, record in zip(rows[1:], records):
            assert row[0] == "n_iters"
            assert int(row[1]) == record.value
            assert int(row[2]) == record.params
            assert int(row[3]) == record.peak_bytes
            assert float(row[4]) == pytest.approx(record.wall_ms, abs=1e-3)
            assert int(row[5]) == record.repeats

    def test_over_budget_points_are_skipped_not_fatal(self, tmp_path, capsys):
        spec = tiny_spec("n_inp", values=(8, 4096))
        path = tmp_path / "sweep.csv"
        records = run_sweep(spec, csv_path=path, budget_bytes=1_000_000)
        assert [r.skipped for r in records] == [False, True]
        skipped = records[1]
        assert skipped.params is None and skipped.peak_bytes is None and skipped.wall_ms is None
        assert "over budget" in capsys.readouterr().err
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[2][2:5] == ["", "", ""]

    def test_over_budget_point_is_skipped_before_it_is_built(self):
        # The point's input alone is 51 MB; a check made after drawing it
        # would already have allocated that much against a 1 MB budget.
        spec = SweepSpec("n_inp", (200000,), dict(n_out=4, d_inp=64, d_out=8, n_iters=2))
        records, peak = measure_peak(lambda: run_sweep(spec, budget_bytes=1_000_000))
        assert [r.skipped for r in records] == [True]
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "values, mode",
        # The variable ladder's last point spans two blocks, the last ragged.
        [((8, 16, 32), "fixed"), ((8, 16, BLOCK_ELEMENTS // 4 + 1), "variable")],
        ids=["fixed", "variable"],
    )
    def test_points_are_timed_round_robin(self, routed_rows, values, mode):
        # Each point, in ladder order, is routed at full size to warm up,
        # then metered; then each round times every point once, reversing
        # the direction.
        records = run_sweep(tiny_spec("n_inp", values=values, repeats=3, mode=mode))
        a, b, c = values
        assert routed_rows == [a, a, b, b, c, c] + [a, b, c] + [c, b, a] + [a, b, c]
        assert [r.value for r in records] == list(values)

    def test_spec_rejects_fewer_than_two_iterations(self):
        with pytest.raises(ValueError, match="n_iters must be at least 2, got 1"):
            tiny_spec("n_iters", values=(1, 2))
        with pytest.raises(ValueError, match="n_iters must be at least 2, got 1"):
            SweepSpec(dimension="n_out", values=(4,), baseline={**TINY_BASELINE, "n_iters": 1})

    def test_no_budget_disables_the_check(self):
        records = run_sweep(tiny_spec(), budget_bytes=None)
        assert not any(r.skipped for r in records)


class TestBigRouteDemo:
    def test_moderate_sequence_passes_and_reports(self):
        record = big_route_demo(n_inp=2000)
        assert record.dimension == "big_route"
        assert record.value == 2000
        assert record.wall_ms > 0
        assert record.repeats == 1
        # The point of the demo: far below one materialized proposal tensor.
        assert record.peak_bytes < 4 * 2000 * 16 * 64

    def test_peak_is_deterministic(self):
        a = big_route_demo(n_inp=2000)
        b = big_route_demo(n_inp=2000)
        assert a.peak_bytes == b.peak_bytes

    def test_budget_violation_carries_measurement(self):
        with pytest.raises(MemoryBudgetError) as excinfo:
            big_route_demo(n_inp=2000, budget_bytes=1)
        assert excinfo.value.peak_bytes > 0

    def test_toy_sequence_cannot_demonstrate_the_property(self):
        # With one row the materialized tensor is 128 bytes; interpreter
        # overhead alone exceeds it, and the demo reports that honestly.
        with pytest.raises(MemoryBudgetError, match="no-materialization"):
            big_route_demo(n_inp=1, d_inp=8, n_out=4, d_out=8)


class TestMain:
    def test_sweep_command_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code = main(
            [
                "--sweep", "n_iters",
                "--values", "2,3",
                "--baseline", "n_inp=8,n_out=4,d_inp=8,d_out=8",
                "--repeats", "2",
                "--csv", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n_iters" in out and "peak_bytes" in out
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 3

    def test_big_route_command(self, capsys):
        code = main(["--big-route", "--baseline", "n_inp=2000"])
        assert code == 0
        assert "big_route" in capsys.readouterr().out

    def test_big_route_over_budget_exits_nonzero(self, capsys):
        code = main(["--big-route", "--baseline", "n_inp=2000", "--budget-bytes", "1"])
        assert code == 1
        assert "exceeds the budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--baseline", "n_inp=2000,n_iters=3"], "--big-route runs two iterations; its --baseline takes no n_iters"),
            (["--sweep", "n_out"], "--big-route routes one point; it takes no --sweep"),
            (["--values", "1,2"], "--big-route routes one point; it takes no --values"),
            (["--repeats", "9"], "--big-route routes one point; it takes no --repeats"),
            (["--mode", "fixed"], "--big-route routes one point; it takes no --mode"),
        ],
        ids=["n_iters", "sweep", "values", "repeats", "mode"],
    )
    def test_big_route_rejects_an_iteration_count(self, extra, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--big-route"] + extra)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_big_route_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "demo.csv"
        assert main(["--big-route", "--baseline", "n_inp=2000", "--csv", str(path)]) == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert rows[1][:2] == ["big_route", "2000"] and rows[1][5] == "1"

    def test_skipped_point_prints_its_row(self, capsys):
        code = main(
            [
                "--sweep", "n_inp",
                "--values", "8,4096",
                "--baseline", "n_out=4,d_inp=8,d_out=8,n_iters=2",
                "--repeats", "1",
                "--budget-bytes", "1000000",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split() == ["n_inp", "4096", "skipped", "-", "-"]

    def test_trailing_comma_in_baseline_is_ignored(self, capsys):
        code = main(
            ["--sweep", "n_iters", "--values", "2", "--baseline", "n_inp=8,n_out=4,d_inp=8,d_out=8,", "--repeats", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["n_iters", "2"]

    def test_empty_value_list_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--sweep", "n_inp", "--values", ","])
        assert excinfo.value.code == 2
        assert "argument --values: empty value list" in capsys.readouterr().err

    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_rejects_malformed_values(self):
        with pytest.raises(SystemExit):
            main(["--sweep", "n_inp", "--values", "4,banana"])

    def test_rejects_malformed_baseline(self):
        with pytest.raises(SystemExit):
            main(["--sweep", "n_inp", "--baseline", "depth=3"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sweep", "n_inp", "--values", "0,4"], "argument --values: value '0' must be positive"),
            (["--sweep", "n_inp", "--repeats", "0"], "argument --repeats: repeats '0' must be positive"),
            (
                ["--big-route", "--baseline", "n_inp=0"],
                "argument --baseline: baseline n_inp value '0' must be positive",
            ),
            (["--sweep", "n_inp", "--seed", "-1"], "argument --seed: seed '-1' must be non-negative"),
            (["--big-route", "--seed", "-1"], "argument --seed: seed '-1' must be non-negative"),
            (
                ["--sweep", "n_inp", "--budget-bytes", "-1"],
                "argument --budget-bytes: budget '-1' must be non-negative",
            ),
            (["--big-route", "--budget-bytes", "-1"], "argument --budget-bytes: budget '-1' must be non-negative"),
        ],
    )
    def test_non_positive_numbers_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sweep", "n_out", "--values", "4", "--baseline", "n_inp=8,d_inp=4,d_out=4,n_iters=1"],
            ["--sweep", "n_iters", "--values", "1,2"],
        ],
    )
    def test_fewer_than_two_iterations_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error: n_iters must be at least 2, got 1" in capsys.readouterr().err
