"""Peak-allocation metering built on tracemalloc.

tracemalloc sees every allocation made through the Python allocator,
which includes numpy array buffers, so the peaks reported here are exact
byte counts for array workloads rather than RSS estimates. Interpreter
warm-up (module import caches, first-call buffers) shows up in the first
measured runs of a workload: in a fresh process a routing's peak falls
by a few bytes a call over about its first dozen calls. Callers that
need run-to-run identical peaks should meter until the peak stops
falling, as :mod:`vecroute.bench` does, before measuring.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

__all__ = ["PeakReport", "measure_peak", "track_peak"]


@dataclass(slots=True)
class PeakReport:
    """Peak bytes allocated above the baseline inside a tracked block."""

    baseline_bytes: int = 0
    peak_bytes: int = 0


# The open blocks' reports, outermost first: process-wide, as tracemalloc's peak is.
_open_reports: list[PeakReport] = []


@contextmanager
def track_peak():
    """Context manager that yields a PeakReport filled in on exit.

    The report's ``peak_bytes`` is the high-water mark of allocations made
    inside the block, measured above the allocation level at entry.
    Blocks nest: an inner block folds the peak so far into every enclosing
    report before it resets tracemalloc's peak, so each report covers its
    whole block. If tracemalloc was already tracing, the surrounding trace
    is left running; otherwise tracing stops on exit.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    report = PeakReport()  # before the baseline, so not counted in the block
    _open_reports.append(report)
    report.baseline_bytes, peak = tracemalloc.get_traced_memory()
    for outer in _open_reports[:-1]:
        outer.peak_bytes = max(outer.peak_bytes, peak - outer.baseline_bytes)
    tracemalloc.reset_peak()
    try:
        yield report
    finally:
        _, peak = tracemalloc.get_traced_memory()
        report.peak_bytes = max(report.peak_bytes, peak - report.baseline_bytes)
        _open_reports.pop()
        if not was_tracing:
            tracemalloc.stop()


def measure_peak(fn: Callable[[], object]) -> tuple[object, int]:
    """Run ``fn`` and return (result, peak bytes allocated while it ran)."""
    with track_peak() as report:
        result = fn()
    return result, report.peak_bytes
