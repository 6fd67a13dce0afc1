"""SHA-256 digests of everything ``route_optimized`` returns on the benchmark's inputs.

Usage:

    python scripts/route_digest.py CHECKOUT --seed 1 [--tiny] [--block-elements N]

``CHECKOUT`` is the root of a vecroute checkout; its ``src/`` provides the
package and its ``perfbench/workloads.py`` the workloads. Each workload's
inputs and parameters are rebuilt from the seed as the benchmark draws
them, and every routing of the workload runs with the trace on and off
(long_seq with the trace off only: its trace would hold gigabytes). The
digest covers the outputs, the final credit, the activation scores and
gates, and every field of every iteration record, each array with its
dtype and shape. The output is sorted JSON, so two checkouts route
bitwise alike on these inputs exactly when ``diff`` finds nothing.
Digests compare only under one numpy, BLAS build and BLAS thread count.
``--block-elements N`` sets ``vecroute.optimized.BLOCK_ELEMENTS`` to N before
routing, so checkouts with different defaults can be digested at one block
size, and small inputs can be split over several blocks, the last ragged.

The outputs of ``route_optimized`` do not depend on ``capture_trace``: the
script exits with status 1, after printing the digests, when a routing's
output or final credit digests differently with the trace on and off.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path


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


def route_digests(seed: int, tiny: bool, block_elements: int | None = None) -> dict[str, str]:
    from vecroute import optimized, route_optimized
    from workloads import workloads

    if block_elements is not None:
        optimized.BLOCK_ELEMENTS = block_elements

    out = {}
    for name, wl in workloads(tiny).items():
        x_first, params = workload_inputs(seed, wl)
        for capture in (False,) if name == "long_seq" else (False, True):
            x = x_first
            for k, p in enumerate(params):
                result, trace = route_optimized(x, p, capture_trace=capture)
                x = result.array
                key = f"{name}/trace{int(capture)}/routing{k}"
                out[f"{key}/output"] = digest(x)
                out[f"{key}/final_credit"] = digest(trace.final_credit.array)
                if capture:
                    out[f"{key}/activation_scores"] = digest(trace.activation_scores.array)
                    out[f"{key}/activation_gates"] = digest(trace.activation_gates.array)
                for it, record in enumerate(trace.iterations, start=1):
                    for field in dataclasses.fields(record):
                        value = getattr(record, field.name)
                        if value is not None:
                            out[f"{key}/iteration{it}/{field.name}"] = digest(value.array)
    return out


def trace_mismatches(digests: dict[str, str]) -> list[str]:
    """Keys of the outputs and final credits that differ between trace off and on."""
    return sorted(
        key
        for key, value in digests.items()
        if "/trace0/" in key
        and key.rsplit("/", 1)[1] in ("output", "final_credit")
        and digests.get(key.replace("/trace0/", "/trace1/"), value) != value
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the vecroute checkout to digest")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="the smoke test's tiny shapes")
    parser.add_argument(
        "--block-elements", type=int, help="route with this BLOCK_ELEMENTS instead of the checkout's"
    )
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    digests = route_digests(args.seed, args.tiny, args.block_elements)
    print(json.dumps(digests, indent=1, sort_keys=True))
    mismatches = trace_mismatches(digests)
    for key in mismatches:
        print(f"trace on and off differ: {key}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
