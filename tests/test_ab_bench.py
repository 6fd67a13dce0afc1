"""Summary of ``scripts/ab_bench.py``'s paired runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def run(round_, tree, ms, rate, correct=True):
    metrics = {"pass_ms.p50": {"value": ms}, "inputs_per_s": {"value": rate}}
    return {"workload": "pair_heavy", "round": round_, "tree": tree, "result": {"correct": correct, "metrics": metrics}}


def test_summary_counts_better_pairs_by_direction_over_complete_rounds():
    runs = [
        run(0, "parent", 10.0, 100.0), run(0, "change", 9.0, 110.0), run(0, "aa", 11.0, 100.0),
        run(1, "parent", 12.0, 90.0), run(1, "change", 11.0, 80.0), run(1, "aa", 12.0, 95.0),
        run(2, "parent", 11.0, 95.0), run(2, "change", 12.0, 99.0), run(2, "aa", 10.0, 90.0),
        # A failed run or a wrong result leaves its round out.
        run(3, "parent", 1.0, 1.0), run(3, "change", 1.0, 1.0), run(3, "aa", 1.0, 1.0, correct=False),
        {"workload": "pair_heavy", "round": 4, "tree": "change", "result": None},
    ]
    summary = ab_bench.summarize(runs, {"pass_ms.p50": True, "inputs_per_s": False})["pair_heavy"]
    assert summary["rounds"] == 3
    ms, rate = summary["pass_ms.p50"], summary["inputs_per_s"]
    assert ms["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5, "min": 10.0}
    assert ms["change"]["median"] == 11.0 and ms["aa"]["min"] == 10.0
    assert (ms["change_better_pairs"], ms["aa_better_pairs"]) == (2, 1)  # lower is better; a tie is not
    assert (rate["change_better_pairs"], rate["aa_better_pairs"]) == (2, 1)  # higher is better
