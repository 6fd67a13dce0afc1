"""Benchmark of the vecroute routers, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload pair_heavy --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 15     # every workload, both runs

One client runs closed-loop passes, each starting when the previous one
ends, for ``--seconds``. With ``--trace 0`` the passes are untraced and
the run reports the end-to-end metrics of BENCHMARK.json. With
``--trace 1`` untraced passes alternate with traced replays of the
router's stages (see replay.py) and the run reports the per-layer
metrics. Every run checks the outputs; a failed pass or check makes the
last line say ``"correct": false`` and the exit code 1. The last line
of standard output is the JSON result; the lines before it print every
metric by name with its unit, and the machine record. Results and spans
are also written under perfbench/out/.

The BLAS thread count is pinned before numpy loads, to the CPU count
capped at MAX_BLAS_THREADS, so results compare across machines with at
least that many CPUs. The package is imported from ``src/`` of the
checkout this file sits in, never from elsewhere; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2
WORKLOADS = ("pair_heavy", "long_seq", "credit_chain")
SETUPS = (3, 20)  # min and max timed set-ups per run, after one untimed
SETUP_SECONDS = 3.0  # timed set-ups repeat until they have taken this long
MIN_PASSES = 5  # per run, even when --seconds runs out first
P90_MIN_SAMPLES = 100  # pass_ms.p90 needs ten samples beyond it
CAPTURE_PAIRS = 3  # passes behind optimized.trace_capture.ms and memtrack.overhead_ms
MIB = 2**20
CREDIT_SPANS = ("credit.credit_from_trace", "credit.end_to_end_three", "credit.attribution_report")


def pin_blas_threads() -> int:
    threads = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_package() -> None:
    """Put the checkout's src/ first on the path and import vecroute from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vecroute

    where = Path(vecroute.__file__).resolve().parent
    if where != src.resolve() / "vecroute":
        raise ImportError(f"vecroute loaded from {where}, not from {src}")


def machine_record(blas_threads: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


class Tally:
    """Attempted and failed passes and checks, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def attempt(self, name: str, fn, *args):
        """Run one pass or check; a routing error counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except (ArithmeticError, ValueError) as exc:
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


def median(values) -> float:
    return float(statistics.median(values))


def same_bits(a: tuple, b: tuple) -> bool:
    import numpy as np

    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b)
    )


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def run_setups(wl, seed: int, tally: Tally):
    """One untimed set-up, then timed ones, each from scratch.

    The untimed one takes the process's one-time costs (thread start-up,
    first page faults), which would otherwise land in some timed set-ups
    and not in others. Timed set-ups repeat until SETUP_SECONDS have gone
    by, within the SETUPS bounds. Returns the last set-up, which the run
    measures, and the timings of the timed ones; earlier inputs are
    dropped before the next set-up.
    """
    setup, timings = None, []
    lo, hi = SETUPS
    while len(timings) < hi and (len(timings) < lo or sum(t[0] for t in timings) < SETUP_SECONDS):
        warm = setup is not None
        setup = None
        setup = tally.attempt("setup", wl.setup, seed, OUT_DIR)
        if setup is None:
            return None, timings
        tally.check("params save/load round trip", setup.round_trip_ok, "loaded tensors differ")
        if warm:
            timings.append((setup.seconds, setup.init_s, setup.save_s, setup.load_s))
    return setup, timings


def same_as(tally: Tally, what: str, out, reference: tuple) -> None:
    """Check a pass output; a pass that raised is already counted failed."""
    if out is not None:
        tally.check(f"{what} output equals the set-up pass bit for bit", same_bits(out, reference))


def measure(wl, seed: int, seconds: float, trace: int):
    """One run of one workload; returns (metrics, extras, tally, spans)."""
    import numpy as np
    from replay import STAGES, PeakMeter, Tracer, self_times
    from vecroute import as_array, log_logistic, track_peak
    from workloads import EQUIV_TOL, F64_TOL, rel_err

    tally = Tally()
    metrics: dict[str, tuple[float, str]] = {}
    extras: dict[str, tuple[float, str]] = {}
    setup, setup_timings = run_setups(wl, seed, tally)
    if setup is None:
        return metrics, extras, tally, []
    state, reference = setup.state, setup.output

    # Closed loop: untraced passes, alternating with traced replays when tracing.
    times: list[float] = []
    tracer = Tracer()
    traced_totals, per_pass, matmul_ms, log_logistic_ms = [], [], [], []
    last_trace = None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(times) < MIN_PASSES:
        out, dt = timed(tally.attempt, "pass", wl.run, state)
        same_as(tally, "pass", out, reference)
        if out is None:
            break
        times.append(dt)
        if not trace:
            continue
        tracer.pass_id += 1
        first_span = len(tracer.spans)
        result = tally.attempt("traced pass", tracer.span, "pass", wl.traced, state, tracer)
        if result is None:
            break
        out, last_trace, beside = result
        gap = max(rel_err(a, b) for a, b in zip(out, reference))
        tally.check("traced replay matches route_optimized", gap <= EQUIV_TOL, f"relative gap {gap:.3e}")
        names, root, self_sum = self_times(tracer.spans[first_span:])
        tally.check(
            "stage self times add up to the replay total",
            abs(self_sum - root) <= 1e-9 * max(root, 1.0),
            f"{self_sum} s != {root} s",
        )
        traced_totals.append(root)
        per_pass.append(names)
        # Beside the replay, outside its spans: the score matmul alone and
        # log-logistic on the score stage's own z.
        matmul = log_ll = 0.0
        for x, p, predictions in beside:
            x = as_array(x)
            for predicted in predictions:
                inner, dt = timed(np.matmul, x, predicted.T)
                matmul += dt
                z = p.score_gain.array * inner + p.score_bias.array
                log_ll += timed(log_logistic, z)[1]
        matmul_ms.append(1e3 * matmul)
        log_logistic_ms.append(1e3 * log_ll)

    # The peak of one pass, in passes of their own; the traced run takes
    # several, for the meter's cost.
    peaks, tracked = [], []
    for _ in range(CAPTURE_PAIRS if trace else 1):
        with track_peak() as report:
            out, dt = timed(tally.attempt, "peak pass", wl.run, state)
        same_as(tally, "peak pass", out, reference)
        peaks.append(report.peak_bytes)
        tracked.append(dt)
    peak = max(peaks)
    if wl.peak_limit_bytes is not None:
        tally.check(
            "peak below the bytes of one proposal tensor",
            peak < wl.peak_limit_bytes,
            f"{peak} >= {wl.peak_limit_bytes}",
        )
    gap64 = tally.attempt("float64 run", wl.check_float64, state, reference)
    if gap64 is not None:
        tally.check("float32 agrees with float64 of the same path", gap64 <= F64_TOL, f"relative gap {gap64:.3e}")
        extras["float64.rel_gap"] = (gap64, "ratio")
    ref = tally.attempt("reference run", wl.check_reference, state)
    if ref is not None:
        tally.check("route_reference agrees", ref[0] <= EQUIV_TOL, f"relative gap {ref[0]:.3e}")
        extras["reference.rel_gap"] = (ref[0], "ratio")

    extras["pass_ms.samples"] = (len(times), "count")
    extras["setup.samples"] = (len(setup_timings), "count")
    if tally.failed:
        return metrics, extras, tally, tracer.spans
    p50 = median(times)
    if not trace:
        ms = [1e3 * t for t in times]
        metrics["pass_ms.p50"] = (median(ms), "ms")
        if len(ms) >= P90_MIN_SAMPLES:
            extras["pass_ms.p90"] = (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms")
        metrics["inputs_per_s"] = (wl.inputs_per_pass * len(times) / sum(times), "1/s")
        metrics["peak_mib"] = (peak / MIB, "MiB")
        metrics["setup_s"] = (median(t[0] for t in setup_timings), "s")
        return metrics, extras, tally, []

    def span_ms(name):
        return median(1e3 * names.get(name, 0.0) for names in per_pass)

    for name in STAGES:
        metrics[f"{name}.ms"] = (span_ms(name), "ms")
    metrics["optimized.score_predictions.matmul_ms"] = (median(matmul_ms), "ms")
    metrics["tensor.log_logistic.ms"] = (median(log_logistic_ms), "ms")
    pairs = [wl.trace_capture_pair(state) for _ in range(CAPTURE_PAIRS)]
    metrics["optimized.trace_capture.ms"] = (
        1e3 * (median(on for _, on in pairs) - median(off for off, _ in pairs)),
        "ms",
    )
    # Chains time the credit algebra inside every traced pass; a single
    # routing times it once here, on its own credit.
    once = {name: 1e3 * timed(fn, *args)[1] for name, fn, args in wl.credit_calls(last_trace, state)}
    for name in CREDIT_SPANS:
        metrics[f"{name}.ms"] = (once[name] if name in once else span_ms(name), "ms")
    for i, name in enumerate(("init_params", "save_params", "load_params"), start=1):
        metrics[f"params_io.{name}.ms"] = (1e3 * median(t[i] for t in setup_timings), "ms")
    metrics["params_io.file_mib"] = (setup.file_bytes / MIB, "MiB")
    metrics["memtrack.overhead_ms"] = (1e3 * (median(tracked) - p50), "ms")
    metrics["reference.route_reference.ms"] = (1e3 * ref[1], "ms")
    metrics["trace.overhead_ms"] = (1e3 * (median(traced_totals) - p50), "ms")
    metrics["optimized.peak_pair_arrays"] = (peak / wl.pair_bytes, "count")
    meter = PeakMeter()
    tally.attempt("peak replay", wl.traced, state, meter)
    work = wl.stage_work()
    for name in STAGES:
        metrics[f"{name}.peak_mib"] = (meter.peaks[name] / MIB, "MiB")
        metrics[f"{name}.mflop"] = (work[name][0] / 1e6, "Mflop")
        metrics[f"{name}.mb_computed"] = (work[name][1] / 1e6, "MB")
    extras["trace.replay_ms"] = (1e3 * median(traced_totals), "ms")
    extras["trace.passes"] = (len(traced_totals), "count")
    return metrics, extras, tally, tracer.spans


def report_lines(title: str, metrics: dict, extras: dict, tally: Tally) -> list[str]:
    lines = [title]
    for name, (value, unit) in {**metrics, **extras}.items():
        lines.append(f"  {name:<44} {value:>16.6g} {unit}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"  {'fail_ratio':<44} {ratio:>16.6g} ratio")
    lines.append(f"  {'ops_attempted':<44} {tally.attempted:>16d} count")
    lines += [f"  FAILED {f}" for f in tally.failures]
    return lines


def run_one(name: str, seed: int, seconds: float, trace: int, tiny: bool, machine: dict):
    from workloads import workloads

    wl = workloads(tiny)[name]
    load_before = os.getloadavg()
    metrics, extras, tally, spans = measure(wl, seed, seconds, trace)
    record = dict(machine, loadavg_before=load_before, loadavg_after=os.getloadavg())
    tag = f"{name}-seed{seed}-trace{trace}"
    for line in report_lines(f"{tag}  load {load_before[0]:.2f} -> {record['loadavg_after'][0]:.2f}", metrics, extras, tally):
        print(line)
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "seed": seed,
                "seconds": seconds,
                "trace": trace,
                "machine": record,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
                "attempted": tally.attempted,
                "failed": tally.failed,
                "failures": tally.failures,
            },
            indent=1,
        )
    )
    if spans:
        with open(OUT_DIR / f"{tag}.spans.jsonl", "w") as fh:
            keys = ("id", "parent", "pass", "name", "start", "end")
            for span in spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: 0 for one workload, both for all")
    parser.add_argument("--tiny", action="store_true", help="tiny shapes, for the smoke test")
    args = parser.parse_args(argv)

    blas_threads = pin_blas_threads()
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import vecroute from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    machine = machine_record(blas_threads)
    print("machine " + json.dumps(machine))

    names = (args.workload,) if args.workload else WORKLOADS
    if args.trace is not None:
        traces = (args.trace,)
    else:
        traces = (0,) if args.workload else (0, 1)
    attempted = failed = 0
    merged = {}
    for name in names:
        for trace in traces:
            metrics, tally = run_one(name, args.seed, args.seconds, trace, args.tiny, machine)
            attempted += tally.attempted
            failed += tally.failed
            prefix = "" if len(names) * len(traces) == 1 else f"{name}/trace{trace}/"
            merged.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": merged}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
