"""tracemalloc peak bytes of every routing of the benchmark's workloads.

Usage:

    python scripts/route_peaks.py CHECKOUT --seed 1 [--tiny]

``CHECKOUT`` is the root of a vecroute checkout; its ``src/`` provides the
package and its ``perfbench/workloads.py`` the workloads. Inputs and
parameters are drawn from the seed as ``route_digest.py`` draws them.
Each routing of each workload runs with the trace off, once to warm up
and then once inside ``track_peak``, whose peak bytes are printed under
``WORKLOAD/routingK``. Then it runs the same way with the trace on
(``.../traced``), and the first read of that trace's iteration records,
which builds them, is measured too (``.../first_read``). The output is
sorted JSON, so two checkouts can be compared key by key, and two runs
of one checkout with ``diff``. At the smoke test's tiny shapes the bytes
repeat exactly from process to process; at full shapes they vary by a
few hundred bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from route_digest import workload_inputs


def route_peaks(seed: int, tiny: bool) -> dict[str, int]:
    from vecroute import route_optimized, track_peak
    from workloads import workloads

    def peak(fn, warm_up=None):
        (warm_up or fn)()
        with track_peak() as report:
            result = fn()
        return result, report.peak_bytes

    out = {}
    for name, wl in workloads(tiny).items():
        x, params = workload_inputs(seed, wl)
        for k, p in enumerate(params):
            key = f"{name}/routing{k}"
            (result, _), out[key] = peak(lambda: route_optimized(x, p))
            (_, trace), out[f"{key}/traced"] = peak(lambda: route_optimized(x, p, capture_trace=True))
            # A second read returns the built records, so another trace warms up.
            _, out[f"{key}/first_read"] = peak(
                lambda: trace.iterations[0],
                lambda: route_optimized(x, p, capture_trace=True)[1].iterations[0],
            )
            x = result.array
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the vecroute checkout to measure")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="the smoke test's tiny shapes")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    print(json.dumps(route_peaks(args.seed, args.tiny), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
