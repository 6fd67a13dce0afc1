"""The benchmark's workloads: inputs, passes, traced passes and checks.

A workload is one or more routings of the optimized router. The
variable-layout workloads run one ``route_optimized`` call per pass with
the trace off. ``credit_chain`` runs three fixed-layout routings with the
trace on and then the credit algebra over their final credit.

Everything a workload draws comes from the seed: the inputs from
``default_rng((seed, INPUT_STREAM))`` and routing k's parameters from
``init_params(dims, seed * 3 + k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from vecroute import (
    CreditMatrix,
    RoutingDims,
    as_plugins,
    attribution_report,
    credit_from_trace,
    end_to_end_three,
    init_params,
    load_params,
    route_optimized,
    route_reference,
    save_params,
)
from replay import FINITE_CHECKS, SHARES_CREDIT, replay_route

INPUT_STREAM = 7
GROUP_SIZE = 16  # inputs per attribution group
REFERENCE_PREFIX = 64  # rows the reference router checks in variable layouts
F64_TOL = 1e-5  # float32 output against float64 of the same path
EQUIV_TOL = 1e-4  # criterion 1's float32 tolerance


@dataclass(frozen=True)
class Routing:
    n_inp: int
    n_out: int
    d: int
    n_iters: int
    variable: bool

    def dims(self) -> RoutingDims:
        return RoutingDims(None if self.variable else self.n_inp, self.n_out, self.d, self.d, self.n_iters)


@dataclass
class State:
    x: np.ndarray
    params: list
    groups: list


@dataclass
class Setup:
    state: State
    output: tuple
    seconds: float
    init_s: float
    save_s: float
    load_s: float
    file_bytes: int
    round_trip_ok: bool


def rel_err(value, reference) -> float:
    """Max absolute deviation over the reference's max magnitude."""
    v = np.asarray(value, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    diff = float(np.max(np.abs(v - r)))
    return 0.0 if diff == 0.0 else diff / max(float(np.max(np.abs(r))), 1e-30)


def _groups(n_inp: int) -> list:
    return [range(g, g + GROUP_SIZE) for g in range(0, n_inp, GROUP_SIZE)]


def _same_params(a, b) -> bool:
    return a.dims == b.dims and all(ta == tb for (_, ta), (_, tb) in zip(a.field_items(), b.field_items()))


class Workload:
    """Shared set-up and checks; subclasses define the pass."""

    name: str
    routings: tuple[Routing, ...]

    @property
    def inputs_per_pass(self) -> int:
        return self.routings[0].n_inp

    @property
    def pair_bytes(self) -> int:
        """Bytes of one float32 n_inp x n_out array of the first routing."""
        r = self.routings[0]
        return 4 * r.n_inp * r.n_out

    def setup(self, seed: int, workdir: Path) -> Setup:
        """Inputs, params, a save/load round trip and the first pass."""
        start = perf_counter()
        r0 = self.routings[0]
        rng = np.random.default_rng((seed, INPUT_STREAM))
        x = rng.standard_normal((r0.n_inp, r0.d), dtype=np.float32)
        init_s = save_s = load_s = 0.0
        file_bytes = 0
        round_trip_ok = True
        params = []
        for k, routing in enumerate(self.routings):
            t0 = perf_counter()
            drawn = init_params(routing.dims(), seed * 3 + k)
            t1 = perf_counter()
            path = workdir / f"{self.name}-{k}.params"
            save_params(drawn, path)
            t2 = perf_counter()
            loaded = load_params(path)
            t3 = perf_counter()
            init_s, save_s, load_s = init_s + t1 - t0, save_s + t2 - t1, load_s + t3 - t2
            file_bytes += path.stat().st_size
            round_trip_ok = round_trip_ok and _same_params(drawn, loaded)
            params.append(loaded)
        state = State(x, params, _groups(r0.n_inp))
        output = self.run(state)
        return Setup(state, output, perf_counter() - start, init_s, save_s, load_s, file_bytes, round_trip_ok)

    def run(self, state: State) -> tuple:
        return self.run_with(state.x, state.params, state.groups)

    def check_float64(self, state: State, output: tuple) -> float:
        """Worst relative gap of the float32 outputs to float64 of the same path."""
        wide = self.run_with(
            state.x.astype(np.float64),
            [p.astype(np.float64) for p in state.params],
            state.groups,
        )
        return max(rel_err(a, b) for a, b in zip(output, wide))

    def trace_capture_pair(self, state: State) -> tuple[float, float]:
        """Seconds of the first routing with the trace off, then on."""
        times = []
        for capture in (False, True):
            t0 = perf_counter()
            route_optimized(state.x, state.params[0], capture_trace=capture)
            times.append(perf_counter() - t0)
        return times[0], times[1]

    def check_reference(self, state: State) -> tuple[float, float]:
        """(worst relative gap to route_reference, seconds in route_reference)."""
        worst = ref_s = 0.0
        for x, p in self.reference_cases(state):
            fast, _ = route_optimized(x, p)
            nets, betas = as_plugins(x, p)
            t0 = perf_counter()
            ref, _ = route_reference(x, nets, betas, p.dims, capture_trace=False)
            ref_s += perf_counter() - t0
            worst = max(worst, rel_err(fast.array, ref.array))
        return worst, ref_s

    def stage_work(self) -> dict[str, tuple[float, float]]:
        """Span name -> (flop, bytes) of a pass, from shapes alone.

        Bytes count each operand read once and each result written once;
        a pass that re-reads an intermediate moves more.
        """
        work: dict[str, list[float]] = {}

        def add(name, flop, elements):
            acc = work.setdefault(name, [0.0, 0.0])
            acc[0] += flop
            acc[1] += 4 * elements

        for k, r in enumerate(self.routings):
            n, m, d, h, t = r.n_inp, r.n_out, r.d, r.d, r.n_iters
            later = t - 1  # iterations that predict and score
            gain_bias = 2 * m if r.variable else 2 * n * m
            add("optimized.activation_scores", 2 * n * d + 2 * n,
                n * d + (d + 1 if r.variable else n * d + n) + n)
            add("tensor.logistic", 5 * n, 2 * n)
            if r.variable:
                add("optimized.beta_pair_for", 4 * n * d * m + 2 * n * m, n * d + 2 * d * m + 2 * m + 2 * n * m)
            else:
                add("optimized.beta_pair_for", 0, 0)
            add("optimized.predict_inputs", later * (5 * m * h + 2 * m * h * d + 2 * m * d),
                later * (m * h + h * d + 3 * m * d))
            add("optimized.score_predictions", later * (2 * n * m * d + 8 * n * m),
                later * (n * d + m * d + gain_bias + n * m))
            add("tensor.softmax_rows", later * 5 * n * m, later * 2 * n * m)
            add(SHARES_CREDIT, t * 5 * n * m, t * (6 * n * m + n) + n * m)
            add("optimized.m_step_factored", t * (2 * n * m * d + n * m + m * d + 2 * m * d * h + 3 * m * h),
                t * (n * m + n * d + m * d + d * h + 2 * m * h))
            # The first routing's input arrives as an array and is scanned.
            scanned = (n * d if k == 0 else 0) + n + 2 * n * m + later * (m * d + n * m) + t * m * h
            add(FINITE_CHECKS, scanned, scanned)
        return {name: (flop, nbytes) for name, (flop, nbytes) in work.items()}


class VariableWorkload(Workload):
    """One variable-layout routing per pass, trace off."""

    def __init__(self, name: str, n_inp: int, n_out: int, d: int, n_iters: int = 2):
        self.name = name
        self.routings = (Routing(n_inp, n_out, d, n_iters, variable=True),)

    def run_with(self, x, params, groups) -> tuple:
        out, _ = route_optimized(x, params[0])
        return (out.array,)

    def traced(self, state: State, meter):
        """Replayed pass: (output, routing trace, [(x, params, predictions)])."""
        x, p = state.x, state.params[0]
        out, trace, predictions = meter.span("optimized.route_optimized", replay_route, meter, x, p)
        return (out.array,), trace, [(x, p, predictions)]

    def credit_calls(self, trace, state: State) -> list:
        """(span name, fn, args) of the credit algebra on this routing's credit.

        Not part of a pass: a one-stage chain normalized by
        ``end_to_end_three`` with identity stages, then grouped.
        """
        credit = credit_from_trace(trace)
        eye = CreditMatrix.identity(self.routings[0].n_out)
        return [
            ("credit.credit_from_trace", credit_from_trace, (trace,)),
            ("credit.end_to_end_three", end_to_end_three, (credit, eye, eye)),
            ("credit.attribution_report", attribution_report, (credit, state.groups)),
        ]

    def reference_cases(self, state: State) -> list:
        return [(state.x[:REFERENCE_PREFIX].copy(), state.params[0])]

    @property
    def peak_limit_bytes(self) -> int | None:
        """Bytes of one float32 proposal tensor, n_inp x n_out x d_out."""
        r = self.routings[0]
        return 4 * r.n_inp * r.n_out * r.d


class ChainWorkload(Workload):
    """Three fixed-layout routings with the trace on, then credit algebra."""

    peak_limit_bytes = None  # the trace keeps every iteration alive

    def __init__(self, name: str, sizes: tuple[int, ...], d: int, n_iters: int):
        self.name = name
        self.routings = tuple(
            Routing(n_inp, n_out, d, n_iters, variable=False) for n_inp, n_out in zip(sizes, sizes[1:])
        )

    def run_with(self, x, params, groups) -> tuple:
        traces = []
        for p in params:
            x, trace = route_optimized(x, p, capture_trace=True)
            traces.append(trace)
        e2e = end_to_end_three(*(credit_from_trace(t) for t in traces))
        report = attribution_report(e2e, groups)
        return (x.array, report.totals.array)

    def traced(self, state: State, meter):
        x, traces, beside = state.x, [], []
        for p in state.params:
            out, trace, predictions = meter.span(
                "optimized.route_optimized", replay_route, meter, x, p, True
            )
            beside.append((x, p, predictions))
            traces.append(trace)
            x = out
        credits = [meter.span("credit.credit_from_trace", credit_from_trace, t) for t in traces]
        e2e = meter.span("credit.end_to_end_three", end_to_end_three, *credits)
        report = meter.span("credit.attribution_report", attribution_report, e2e, state.groups)
        return (x.array, report.totals.array), traces[-1], beside

    def credit_calls(self, trace, state: State) -> list:
        return []  # the credit calls are spans of every traced pass

    def reference_cases(self, state: State) -> list:
        """Stages 2 and 3, on the inputs they see in a pass."""
        cases, x = [], state.x
        for p, after in zip(state.params, state.params[1:]):
            x = route_optimized(x, p)[0].array
            cases.append((x, after))
        return cases


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The three workloads; ``tiny`` shrinks them for the smoke test."""
    if tiny:
        wls = [
            VariableWorkload("pair_heavy", n_inp=256, n_out=32, d=16),
            VariableWorkload("long_seq", n_inp=4096, n_out=4, d=32),
            ChainWorkload("credit_chain", sizes=(64, 16, 8, 4), d=8, n_iters=8),
        ]
    else:
        wls = [
            VariableWorkload("pair_heavy", n_inp=4096, n_out=512, d=128),
            VariableWorkload("long_seq", n_inp=1_000_000, n_out=16, d=64),
            ChainWorkload("credit_chain", sizes=(2048, 128, 32, 16), d=64, n_iters=8),
        ]
    return {w.name: w for w in wls}
