"""Desk-scale scaling study of the memory-lean router.

Sweeps one dimension at a time over a doubling ladder while holding the
others at a baseline, and records three costs per point: total parameter
count, peak transient allocation during one forward pass, and median
wall time. Peak memory comes from the in-process allocation accounting
in :mod:`vecroute.memtrack` rather than OS RSS, so figures are stable
across environments; wall time is measured in separate runs outside the
accounting, so its overhead never pollutes timing. Each point gets one
full-size warm-up pass, then one metered pass (:mod:`vecroute.memtrack`
says why one warm-up is enough). The timed runs go round-robin, one pass
of every point per round with the direction reversed each round, so a
burst of machine noise slows one round of every point, which the median
drops, rather than every repeat of one point. Results print as a table
and optionally land in a CSV for plotting.

A demo routes one million input vectors in a single pass in
variable-length mode, measured as a one-point sweep with the same
warm-up and one timed pass, and checks the headline memory property:
the peak stays far below the size the materialized proposal tensor
would need, and under a configurable byte budget.

Baselines here are sized for a desktop CPU; ladders reach tens of
thousands of inputs, not millions, and widths are kept moderate. The
command line can push any of them higher.
"""

from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .memtrack import measure_peak
from .optimized import (
    RoutingParams,
    field_shapes,
    route_optimized,
    total_param_count,
    transient_element_bound,
)
from .params_io import init_params
from .reference import RoutingDims

__all__ = [
    "CSV_COLUMNS",
    "DEFAULT_BUDGET_BYTES",
    "DEFAULT_LADDERS",
    "BenchRecord",
    "LinearFit",
    "MemoryBudgetError",
    "SweepSpec",
    "big_route_demo",
    "linear_fit",
    "main",
    "run_sweep",
]

SWEEP_DIMENSIONS = ("n_inp", "n_out", "d_inp", "d_out", "n_iters")
CSV_COLUMNS = ("dimension", "value", "params", "peak_bytes", "wall_ms", "repeats")
DEFAULT_BUDGET_BYTES = 4_000_000_000

# Ladder defaults per swept dimension: (values, baseline). Baselines are
# chosen so the cost term that scales with the swept dimension dominates
# the point, keeping both the time and the memory ladders clearly linear.
DEFAULT_LADDERS: dict[str, tuple[tuple[int, ...], dict[str, int]]] = {
    "n_inp": ((4096, 8192, 16384, 32768), dict(n_out=64, d_inp=128, d_out=128, n_iters=2)),
    "n_out": ((64, 128, 256, 512), dict(n_inp=4096, d_inp=128, d_out=128, n_iters=2)),
    "d_inp": ((256, 512, 1024, 2048), dict(n_inp=64, n_out=512, d_out=128, n_iters=2)),
    "d_out": ((512, 1024, 2048, 4096), dict(n_inp=256, n_out=256, d_inp=256, n_iters=2)),
    "n_iters": ((2, 4, 8, 16), dict(n_inp=8192, n_out=64, d_inp=128, d_out=128)),
}


class MemoryBudgetError(RuntimeError):
    """A run whose measured peak allocation exceeded the configured budget."""

    def __init__(self, message: str, peak_bytes: int):
        super().__init__(message)
        self.peak_bytes = peak_bytes


@dataclass(frozen=True)
class SweepSpec:
    """One scaling sweep: a dimension, its ladder, and fixed surroundings."""

    dimension: str
    values: tuple[int, ...]
    baseline: dict[str, int]
    repeats: int = 5
    seed: int = 0
    mode: str = "fixed"

    def __post_init__(self):
        if self.dimension not in SWEEP_DIMENSIONS:
            raise ValueError(f"unknown sweep dimension {self.dimension!r}")
        if not self.values or any(v < 1 for v in self.values):
            raise ValueError("sweep values must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.mode not in ("fixed", "variable"):
            raise ValueError(f"unknown mode {self.mode!r}")
        needed = {"n_inp", "n_out", "d_inp", "d_out", "n_iters"} - {self.dimension}
        missing = sorted(needed - set(self.baseline))
        if missing:
            raise ValueError(f"baseline misses {missing}")
        iters = self.values if self.dimension == "n_iters" else (self.baseline["n_iters"],)
        if min(iters) < 2:
            raise ValueError(f"n_iters must be at least 2, got {min(iters)}")

    def point(self, value: int) -> dict[str, int]:
        sizes = dict(self.baseline)
        sizes[self.dimension] = value
        return sizes


@dataclass(frozen=True)
class BenchRecord:
    """Measured costs of one configuration.

    A point that failed the pre-run budget check carries ``skipped=True``
    and None metrics; everything else is nonnegative.
    """

    dimension: str
    value: int
    params: int | None
    peak_bytes: int | None
    wall_ms: float | None
    repeats: int
    skipped: bool = False


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def linear_fit(xs, ys) -> LinearFit:
    """Least-squares line through (xs, ys) with its coefficient of determination."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two paired points")
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        # Constant measurements: the horizontal line explains them fully;
        # only rounding noise separates the fit from the points.
        scale = max(float(np.sum(y**2)), 1.0)
        r2 = 1.0 if ss_res <= 1e-20 * scale else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


def _point_dims(sizes: dict[str, int], mode: str) -> RoutingDims:
    return RoutingDims(
        n_inp=None if mode == "variable" else sizes["n_inp"],
        n_out=sizes["n_out"],
        d_inp=sizes["d_inp"],
        d_out=sizes["d_out"],
        n_iters=sizes["n_iters"],
    )


def _build_point(sizes: dict[str, int], param_dims: RoutingDims, seed: int):
    params = init_params(param_dims, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((sizes["n_inp"], sizes["d_inp"]), dtype=np.float32)
    return params, x


def _predicted_point_bytes(sizes: dict[str, int], param_dims: RoutingDims) -> int:
    """Documented transient bound plus input plus parameters, float32, from
    the sizes alone: nothing of the point is drawn to predict it."""
    transient = 4 * transient_element_bound(
        sizes["n_inp"], sizes["n_out"], sizes["d_inp"], sizes["d_out"]
    )
    input_bytes = 4 * sizes["n_inp"] * sizes["d_inp"]
    param_bytes = 4 * sum(math.prod(shape) for shape in field_shapes(param_dims).values())
    return transient + input_bytes + param_bytes


_Point = tuple[RoutingParams, np.ndarray]  # params, input


def _measure(points: list[_Point], repeats: int) -> list[tuple[int, float]]:
    """(peak bytes of one metered pass, median wall ms of unmetered passes) per point.

    Every pass routes with the trace off. Each point, in ladder order, is
    routed once to warm up and once by :func:`measure_peak`. Then
    ``repeats`` rounds each time one pass of every point, alternating the
    direction.
    """
    peaks = []
    for params, x in points:
        route_optimized(x, params)
        peaks.append(measure_peak(lambda: route_optimized(x, params))[1])
    times: list[list[float]] = [[] for _ in points]
    order = list(range(len(points)))
    for _ in range(repeats):
        for k in order:
            params, x = points[k]
            start = time.perf_counter()
            route_optimized(x, params)
            times[k].append((time.perf_counter() - start) * 1e3)
        order.reverse()
    return [(peak, float(statistics.median(t))) for peak, t in zip(peaks, times)]


def run_sweep(
    spec: SweepSpec,
    csv_path=None,
    budget_bytes: int | None = DEFAULT_BUDGET_BYTES,
) -> list[BenchRecord]:
    """Measure every ladder point; skip (and flag) points over budget.

    The budget check is a pre-run estimate per point (documented transient
    bound plus parameters plus input), made from the point's sizes before
    its parameters or inputs are drawn, so an oversized point is skipped
    without allocating anything of its size; the sweep continues past it.
    Every point that passes is built before any is measured, so the sweep
    holds all of their inputs and parameters at once.
    """
    points: list[tuple[int, _Point | None]] = []  # None marks a skipped value
    for value in spec.values:
        sizes = spec.point(value)
        param_dims = _point_dims(sizes, spec.mode)
        predicted = _predicted_point_bytes(sizes, param_dims)
        if budget_bytes is not None and predicted > budget_bytes:
            print(
                f"warning: {spec.dimension}={value} skipped, predicted "
                f"{predicted} bytes over budget {budget_bytes}",
                file=sys.stderr,
            )
            points.append((value, None))
        else:
            points.append((value, _build_point(sizes, param_dims, spec.seed)))
    measured = iter(_measure([p for _, p in points if p is not None], spec.repeats))
    records = []
    for value, point in points:
        peak, wall = (None, None) if point is None else next(measured)
        records.append(
            BenchRecord(
                dimension=spec.dimension,
                value=value,
                params=None if point is None else total_param_count(point[0]),
                peak_bytes=peak,
                wall_ms=wall,
                repeats=spec.repeats,
                skipped=point is None,
            )
        )
    if csv_path is not None:
        write_csv(records, csv_path)
    return records


def write_csv(records: list[BenchRecord], path) -> None:
    """Emit one row per record; skipped points leave their metrics empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.dimension,
                    r.value,
                    "" if r.params is None else r.params,
                    "" if r.peak_bytes is None else r.peak_bytes,
                    "" if r.wall_ms is None else f"{r.wall_ms:.3f}",
                    r.repeats,
                ]
            )


def big_route_demo(
    n_inp: int = 1_000_000,
    d_inp: int = 64,
    n_out: int = 16,
    d_out: int = 64,
    seed: int = 0,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> BenchRecord:
    """Route one long sequence in a single pass and verify the memory story.

    Measured as a one-point sweep over ``n_inp`` in variable-length mode
    with two iterations and one timed pass, by the sweep's rule: one pass
    warms up, the next is metered and the one after is timed. Asserts the
    peak transient allocation stays below the bytes a single materialized
    proposal tensor would need, i.e. no such tensor can have existed. A
    peak over ``budget_bytes`` raises MemoryBudgetError carrying the
    measurement.
    """
    baseline = dict(n_out=n_out, d_inp=d_inp, d_out=d_out, n_iters=2)
    spec = SweepSpec("n_inp", (n_inp,), baseline, repeats=1, seed=seed, mode="variable")
    (record,) = run_sweep(spec, budget_bytes=None)
    peak = record.peak_bytes

    vote_tensor_bytes = 4 * n_inp * n_out * d_out
    if peak >= vote_tensor_bytes:
        raise MemoryBudgetError(
            f"peak {peak} bytes reaches the materialized-proposal size "
            f"{vote_tensor_bytes}; the no-materialization property failed",
            peak_bytes=peak,
        )
    if peak > budget_bytes:
        raise MemoryBudgetError(
            f"peak {peak} bytes exceeds the budget {budget_bytes}",
            peak_bytes=peak,
        )
    return replace(record, dimension="big_route")


def _int_parser(what: str, least: int = 1):
    """The argparse type of an integer of at least ``least`` (1 or 0), whose
    usage errors name ``what``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} {text!r} not an integer") from None
        if value < least:
            bound = "positive" if least else "non-negative"
            raise argparse.ArgumentTypeError(f"{what} {text!r} must be {bound}")
        return value

    return parse


def _parse_values(text: str) -> tuple[int, ...]:
    values = tuple(_int_parser("value")(part) for part in text.split(",") if part)
    if not values:
        raise argparse.ArgumentTypeError("empty value list")
    return values


def _parse_baseline(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for part in text.split(","):
        if not part:
            continue
        key, eq, val = part.partition("=")
        if not eq or key not in SWEEP_DIMENSIONS:
            raise argparse.ArgumentTypeError(f"bad baseline entry {part!r}")
        out[key] = _int_parser(f"baseline {key} value")(val)
    return out


def _print_records(records: list[BenchRecord]) -> None:
    header = f"{'dimension':>9} {'value':>8} {'params':>12} {'peak_bytes':>14} {'wall_ms':>10}"
    print(header)
    for r in records:
        if r.skipped:
            print(f"{r.dimension:>9} {r.value:>8} {'skipped':>12} {'-':>14} {'-':>10}")
        else:
            print(
                f"{r.dimension:>9} {r.value:>8} {r.params:>12} {r.peak_bytes:>14} "
                f"{r.wall_ms:>10.3f}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vecroute-bench",
        description="Scaling sweeps and the single-pass long-sequence memory demo.",
    )
    parser.add_argument("--sweep", choices=SWEEP_DIMENSIONS, help="dimension to sweep")
    parser.add_argument(
        "--values", type=_parse_values, help="comma-separated ladder, e.g. 1024,2048,4096"
    )
    parser.add_argument(
        "--baseline",
        type=_parse_baseline,
        help="fixed sizes, e.g. n_inp=4096,n_out=64,d_inp=128,d_out=128,n_iters=2",
    )
    parser.add_argument("--repeats", type=_int_parser("repeats"), help="timed runs per point (default 5)")
    parser.add_argument("--seed", type=_int_parser("seed", 0), default=0)
    parser.add_argument("--csv", help="write records to this CSV path")
    parser.add_argument("--budget-bytes", type=_int_parser("budget", 0), default=DEFAULT_BUDGET_BYTES)
    parser.add_argument("--mode", choices=("fixed", "variable"), help="parameter layout (default fixed)")
    parser.add_argument(
        "--big-route",
        action="store_true",
        help="run the million-vector single-pass demo instead of a sweep",
    )
    args = parser.parse_args(argv)

    if args.big_route:
        for name in ("sweep", "values", "repeats", "mode"):
            if getattr(args, name) is not None:
                parser.error(f"--big-route routes one point; it takes no --{name}")
        sizes = args.baseline or {}
        if "n_iters" in sizes:
            parser.error("--big-route runs two iterations; its --baseline takes no n_iters")
        try:
            record = big_route_demo(
                seed=args.seed, budget_bytes=args.budget_bytes, **sizes
            )
        except MemoryBudgetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _print_records([record])
        if args.csv:
            write_csv([record], args.csv)
        return 0

    if not args.sweep:
        parser.error("choose --sweep <dimension> or --big-route")
    default_values, default_baseline = DEFAULT_LADDERS[args.sweep]
    values = args.values if args.values else default_values
    baseline = dict(default_baseline)
    if args.baseline:
        baseline.update(args.baseline)
    # Given options only, so that the spec's defaults apply.
    options = {name: value for name in ("repeats", "mode") if (value := getattr(args, name)) is not None}
    try:
        spec = SweepSpec(dimension=args.sweep, values=values, baseline=baseline, seed=args.seed, **options)
    except ValueError as exc:
        parser.error(str(exc))
    records = run_sweep(spec, csv_path=args.csv, budget_bytes=args.budget_bytes)
    _print_records(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
