"""SHA-256 digests and tracemalloc peaks of every routing of the benchmark's workloads.

Usage:

    python scripts/route_report.py CHECKOUT --seed 1 [--tiny] [--block-elements N]

``CHECKOUT`` is the root of a vecroute checkout; its ``src/`` provides the
package and its ``perfbench/workloads.py`` the workloads. Each workload's
inputs and parameters are rebuilt from the seed as the benchmark draws
them; routing k > 0 takes routing k - 1's untraced output. Each routing
runs with the trace off, once to warm up and then once through
``measure_peak``; then with the trace on, once to warm up, reading its
iteration records, and then once through ``measure_peak``, followed by
the metered first read of that trace's records, which builds them.

The report prints, as sorted JSON, the peak bytes of those metered calls
under ``WORKLOAD/routingK``, ``.../traced`` and ``.../first_read``, and the
digests of what they returned under ``WORKLOAD/traceT/routingK/...``: the
outputs, the final credit, the activation scores and gates, and every
field of every iteration record, each array with its dtype and shape.
After the routings of a chain workload (credit_chain), the credit
algebra runs over their untraced final credits as the benchmark's pass
runs it: ``end_to_end_three`` once to warm up and then once through
``measure_peak`` (peak under ``WORKLOAD/end_to_end_three``), and
``attribution_report`` over the benchmark's groups. The digests of the
end-to-end credit and of the group totals are printed under
``WORKLOAD/credit/end_to_end_three`` and
``WORKLOAD/credit/attribution_totals``. After a workload's routings,
each routing's parameters are saved with ``save_params`` to a temporary
directory, and the SHA-256 of that file is printed under
``WORKLOAD/routingK/params_file``. Two checkouts route bitwise alike on
these inputs, take the same credit algebra, at the same peaks, and write
the same parameter files exactly when ``diff`` finds nothing. Digests
compare only under one numpy, BLAS build and BLAS thread count. The
peaks repeat exactly from process to process: two runs of one checkout
printed identical bytes at full shapes, ``--tiny`` and ``--tiny
--block-elements 1000`` (2 CPUs, numpy 2.4, Linux). ``--block-elements
N`` sets ``vecroute.optimized.BLOCK_ELEMENTS`` to N before routing, so
checkouts with different defaults can be digested at one block size,
and small inputs can be split over several blocks, the last ragged. A negative ``--seed`` and
a ``--block-elements`` below 1 are usage errors (exit status 2).

The outputs of ``route_optimized`` do not depend on ``capture_trace``: the
script exits with status 1, after printing the report, when a routing's
output or final credit digests differently with the trace on and off.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

# An untraced call's trace keeps only the final credit: its other arrays are None.
TRACE_ARRAYS = ("final_credit", "activation_scores", "activation_gates")


def digest(arr) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def workload_inputs(seed: int, wl) -> tuple:
    """The first routing's input and every routing's parameters, drawn from
    ``seed`` as the benchmark draws them; routing k > 0 takes routing k - 1's
    output as its input."""
    import numpy as np
    from vecroute import init_params
    from workloads import INPUT_STREAM

    first = wl.routings[0]
    rng = np.random.default_rng((seed, INPUT_STREAM))
    x_first = rng.standard_normal((first.n_inp, first.d), dtype=np.float32)
    return x_first, [init_params(r.dims(), seed * 3 + k) for k, r in enumerate(wl.routings)]


def params_file_digest(params) -> str:
    """SHA-256 of the file that ``save_params`` writes for ``params``."""
    from vecroute import save_params

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "routing.params"
        save_params(params, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def at_least(least: int):
    """The argparse type of an integer of at least ``least``. Arguments are
    parsed before the checkout's ``vecroute`` can be imported, so its
    parsers are out of reach here."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid integer
        if value < least:
            raise argparse.ArgumentTypeError(f"{text!r} is below {least}")
        return value

    return integer


def route_report(seed: int, tiny: bool, block_elements: int | None = None) -> dict[str, object]:
    from vecroute import (
        attribution_report,
        credit_from_trace,
        end_to_end_three,
        measure_peak,
        optimized,
        route_optimized,
    )
    from workloads import ChainWorkload, _groups, workloads

    if block_elements is not None:
        optimized.BLOCK_ELEMENTS = block_elements

    out = {}
    for name, wl in workloads(tiny).items():
        x, params = workload_inputs(seed, wl)
        credits = []
        for k, p in enumerate(params):
            key = f"{name}/routing{k}"
            route_optimized(x, p)
            untraced, out[key] = measure_peak(lambda: route_optimized(x, p))
            # A second read returns the built records, so the warm-up reads its own.
            route_optimized(x, p, capture_trace=True)[1].iterations[0]
            traced, out[f"{key}/traced"] = measure_peak(lambda: route_optimized(x, p, capture_trace=True))
            _, out[f"{key}/first_read"] = measure_peak(lambda: traced[1].iterations[0])
            for capture, (result, trace) in enumerate((untraced, traced)):
                arrays = {"output": result} | {field: getattr(trace, field) for field in TRACE_ARRAYS}
                for it, record in enumerate(trace.iterations, start=1):
                    arrays |= {f"iteration{it}/{field}": value for field, value in vars(record).items()}
                for field, value in arrays.items():
                    if value is not None:
                        out[f"{name}/trace{capture}/routing{k}/{field}"] = digest(value.array)
            x = untraced[0].array
            credits.append(credit_from_trace(untraced[1]))
        if isinstance(wl, ChainWorkload):
            end_to_end_three(*credits)
            e2e, out[f"{name}/end_to_end_three"] = measure_peak(lambda: end_to_end_three(*credits))
            totals = attribution_report(e2e, _groups(wl.routings[0].n_inp)).totals
            out[f"{name}/credit/end_to_end_three"] = digest(e2e.array)
            out[f"{name}/credit/attribution_totals"] = digest(totals.array)
        for k, p in enumerate(params):
            out[f"{name}/routing{k}/params_file"] = params_file_digest(p)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the vecroute checkout to report on")
    parser.add_argument("--seed", type=at_least(0), required=True)
    parser.add_argument("--tiny", action="store_true", help="the smoke test's tiny shapes")
    parser.add_argument("--block-elements", type=at_least(1), help="route with this BLOCK_ELEMENTS")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    report = route_report(args.seed, args.tiny, args.block_elements)
    print(json.dumps(report, indent=1, sort_keys=True))
    # The untraced keys are the outputs and final credits.
    untraced = [key for key in sorted(report) if "/trace0/" in key]
    mismatches = [key for key in untraced if report[key] != report[key.replace("/trace0/", "/trace1/")]]
    for key in mismatches:
        print(f"trace on and off differ: {key}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
