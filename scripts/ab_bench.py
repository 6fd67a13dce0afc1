"""Paired benchmark runs of two revisions, with an A/A control.

Usage:

    python scripts/ab_bench.py --parent REV --out BENCH_tag.json

Run from inside the repository. The parent, the change (the index, so
staged edits are measured before they are committed) and a second copy
of the parent are exported with ``git archive`` into the directories
``a``, ``b`` and ``c`` of one temporary directory, so the three trees sit
at paths of equal length (a path alone has moved perfbench's times), and
nothing is added to the repository.

Each workload of the change's ``BENCHMARK.json`` runs 10 rounds. A round
runs ``python3 perfbench/run.py --workload W --seed 1`` once in each
tree, each in a fresh process, in an order that rotates from round to
round; ``run.py``'s own defaults set the run's length and its trace.
Before each run the script records ``os.getloadavg()``, and it records
the ``OPENBLAS_NUM_THREADS`` it was started with (``run.py`` pins its own
BLAS thread count). The last line of each run's output is its JSON
result.

The output file holds every run and a summary per workload and metric
of ``BENCHMARK.json``'s end-to-end list: ``parent``, ``change`` and
``aa`` (the parent's copy), each as ``{median, q1, q3, min}``, and
``change_better_pairs`` and ``aa_better_pairs``, the rounds in which the
change, or the copy, read better than the parent by the metric's
direction. A change's difference means something only beside the A/A
spread of the same metric. A run that fails or says ``"correct": false``
is kept with its exit code and left out of the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TREES = {"parent": "a", "change": "b", "aa": "c"}
ROUNDS = 10
COMMAND = ("perfbench/run.py", "--seed", "1")


def git(*args: str) -> bytes:
    return subprocess.run(("git", *args), check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """The files of ``rev`` (a commit or a tree) written under ``dest``."""
    dest.mkdir()
    subprocess.run(("tar", "-x", "-C", str(dest)), input=git("archive", rev), check=True)


def run_once(tree: Path, workload: str) -> dict:
    load = os.getloadavg()
    done = subprocess.run((sys.executable, *COMMAND, "--workload", workload), cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    return {"exit": done.returncode, "loadavg": load, "result": result}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values)}


def summarize(runs: list[dict], metrics: dict) -> dict:
    """Per workload and metric: each tree's quartiles and the rounds in
    which the change, or the A/A copy, read better than the parent."""
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        rounds = {}
        for run in runs:
            result = run["result"]
            if run["workload"] == workload and result is not None and result["correct"]:
                rounds.setdefault(run["round"], {})[run["tree"]] = result["metrics"]
        complete = [r for r in rounds.values() if len(r) == len(TREES)]
        summary[workload] = {"rounds": len(complete)}
        for name, lower in metrics.items():
            values = {tree: [r[tree][name]["value"] for r in complete] for tree in TREES}
            if len(complete) < 2:
                continue

            def better(tree):
                return sum((v < p) == lower and v != p for v, p in zip(values[tree], values["parent"]))

            summary[workload][name] = {tree: quartiles(v) for tree, v in values.items()}
            summary[workload][name] |= {"change_better_pairs": better("change"), "aa_better_pairs": better("aa")}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    change = git("write-tree").decode().strip()
    revs = {"parent": args.parent, "change": change, "aa": args.parent}
    runs = []
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {tree: Path(tmp) / name for tree, name in TREES.items()}
        for tree, path in trees.items():
            export(revs[tree], path)
        benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        metrics = {m["name"]: m["better"] == "lower" for m in benchmark["end_to_end"]}
        order = list(TREES)
        for workload in (w["name"] for w in benchmark["workloads"]):
            for k in range(ROUNDS):
                for tree in order[k % 3 :] + order[: k % 3]:
                    runs.append({"workload": workload, "round": k, "tree": tree} | run_once(trees[tree], workload))
                    print(json.dumps({key: runs[-1][key] for key in ("workload", "round", "tree", "exit")}), flush=True)
    record = {
        "command": f"python3 {' '.join(COMMAND)} --workload W",
        "parent": git("rev-parse", args.parent).decode().strip(),
        "change": f"index tree {change}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus": len(os.sched_getaffinity(0)),
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
