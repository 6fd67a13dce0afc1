"""Peak-allocation metering built on tracemalloc.

tracemalloc sees every allocation made through the Python allocator,
which includes numpy array buffers, so the peaks reported here are exact
byte counts for array workloads rather than RSS estimates. It also sees
Python objects, so the same work reads the same peak only under two
rules. First, one warm-up call per process and shape: module import
caches and first-call buffers show up in the first call alone. Second,
metered code builds no per-call object with an instance ``__dict__``:
under CPython 3.11 its bytes change from call to call (an object of two
attributes, built and dropped in each metered call, read 320, 312, 304,
... B in successive calls, and 48 B in every call with ``__slots__``),
and a routing's peak fell by 8 B a call over about 14 calls until its
block kernels got ``__slots__``. A
result kept alive from call to call makes the calls different work:
with every traced fixed-layout result kept (300 x 16 x 64), calls 2 and
3 each read 16 B more than the call before.
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
