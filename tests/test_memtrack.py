"""Peak allocation metering."""

import tracemalloc

import numpy as np

from vecroute.memtrack import measure_peak, track_peak


class TestTrackPeak:
    def test_sees_array_buffer_bytes(self):
        n = 1 << 18
        with track_peak() as report:
            buf = np.ones(n, dtype=np.float32)
        assert report.peak_bytes >= 4 * n
        # Small instrumentation overhead only, nowhere near another buffer.
        assert report.peak_bytes < 4 * n + (64 << 10)
        del buf

    def test_counts_transients_released_inside_block(self):
        n = 1 << 18
        with track_peak() as report:
            tmp = np.ones(n, dtype=np.float64)
            del tmp
        assert report.peak_bytes >= 8 * n

    def test_zero_allocation_block(self):
        with track_peak() as report:
            pass
        assert report.peak_bytes < (64 << 10)

    def test_restores_prior_tracing_state(self):
        assert not tracemalloc.is_tracing()
        with track_peak():
            pass
        assert not tracemalloc.is_tracing()

    def test_preserves_surrounding_trace(self):
        tracemalloc.start()
        try:
            with track_peak() as report:
                np.zeros(1 << 16, dtype=np.float32)
            assert tracemalloc.is_tracing()
            assert report.peak_bytes >= 4 * (1 << 16)
        finally:
            tracemalloc.stop()

    def test_nested_blocks(self):
        with track_peak() as outer:
            with track_peak() as inner:
                np.zeros(1 << 16, dtype=np.float32)
        assert inner.peak_bytes >= 4 * (1 << 16)
        assert outer.peak_bytes >= inner.peak_bytes

    def test_inner_block_keeps_the_outer_peak(self):
        # The transient dies before the inner block resets tracemalloc's
        # peak, so only the fold at the inner block's entry keeps it.
        n = 1 << 20
        with track_peak() as outer:
            tmp = np.ones(n, dtype=np.float64)
            del tmp
            with track_peak() as inner:
                with track_peak() as innermost:
                    pass
        assert outer.peak_bytes >= 8 * n
        assert inner.peak_bytes < (64 << 10) and innermost.peak_bytes < (64 << 10)


class TestMeasurePeak:
    def test_passes_result_through(self):
        result, peak = measure_peak(lambda: "done")
        assert result == "done"
        assert peak >= 0

    def test_reports_function_allocations(self):
        n = 1 << 18
        result, peak = measure_peak(lambda: np.ones(n, dtype=np.float32).sum())
        assert result == float(n)
        assert peak >= 4 * n
