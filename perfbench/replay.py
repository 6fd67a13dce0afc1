"""Span tracer and a stage-by-stage replay of ``route_optimized``.

The replay runs the optimized router's loop from its public stage
functions, handing every stage call to a meter. Two steps of the loop
have no public function; they are mirrored here: the share/credit
arithmetic (with the iteration-1 flat prior) and the ``np.isfinite``
scans. The replay must give the router's output; the runner checks that
on every traced pass, so a router change the replay no longer mirrors
shows up as a failed check instead of as wrong stage numbers.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np

from vecroute import (
    DenseTensor,
    IterationRecord,
    NumericError,
    RoutingTrace,
    activation_scores,
    as_array,
    beta_pair_for,
    logistic,
    m_step_factored,
    predict_inputs,
    score_predictions,
    softmax_rows,
    track_peak,
)

FINITE_CHECKS = "optimized.finite_checks"
SHARES_CREDIT = "optimized.shares_credit"

# Every span name a stage call can carry, in loop order.
STAGES = (
    "optimized.activation_scores",
    "tensor.logistic",
    "optimized.beta_pair_for",
    "optimized.predict_inputs",
    "optimized.score_predictions",
    "tensor.softmax_rows",
    SHARES_CREDIT,
    "optimized.m_step_factored",
    FINITE_CHECKS,
)


class Tracer:
    """Spans kept in memory: (id, parent id, pass id, name, start, end).

    ``span`` and ``stage`` both time one call; the distinction matters
    only to :class:`PeakMeter`.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.pass_id = 0
        self._open: list[int] = []

    def span(self, name, fn, *args):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, parent, self.pass_id, name, start, end)

    stage = span


def self_times(spans: list[tuple]) -> tuple[dict[str, float], float, float]:
    """Per-name self seconds of one pass, its root duration and self sum.

    Self time is a span's duration minus its children's. Raises
    ValueError when a child does not nest inside its parent.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    root_total = 0.0
    for sid, parent, _, name, start, end in spans:
        if parent is None:
            root_total += end - start
            continue
        p = by_id[parent]
        if start < p[4] or end > p[5]:
            raise ValueError(f"span {name} escapes its parent {p[3]}")
        child_time[parent] += end - start
    per_name = defaultdict(float)
    for sid, _, _, name, start, end in spans:
        per_name[name] += (end - start) - child_time[sid]
    return dict(per_name), root_total, sum(per_name.values())


class PeakMeter:
    """Tracemalloc peak of each stage call above its entry level, in bytes.

    Grouping spans run unmetered, so stage peaks never nest.
    """

    def __init__(self):
        self.peaks: dict[str, int] = defaultdict(int)

    def span(self, name, fn, *args):
        return fn(*args)

    def stage(self, name, fn, *args):
        with track_peak() as report:
            out = fn(*args)
        self.peaks[name] = max(self.peaks[name], report.peak_bytes)
        return out


def check_finite(arr: np.ndarray, step: str, iteration: int | None = None) -> None:
    if not np.all(np.isfinite(arr)):
        where = f" at iteration {iteration}" if iteration is not None else ""
        raise NumericError(f"non-finite values in {step}{where}")


def _gates(raw: np.ndarray) -> np.ndarray:
    return np.asarray(logistic(raw))


def _routing(scores: np.ndarray) -> np.ndarray:
    return softmax_rows(scores).array


def _shares_credit(gates, routing, bu, bi):
    share_used = gates[:, None] * routing
    share_ignored = gates[:, None] - share_used
    return share_used, share_ignored, bu * share_used - bi * share_ignored


def replay_route(meter, x_inp, params, capture_trace: bool = False):
    """``route_optimized(x_inp, params, capture_trace=...)``, stage by stage.

    Returns (output tensor, RoutingTrace, predicted inputs of each
    iteration from the second on).
    """
    dims = params.dims
    x = meter.stage(FINITE_CHECKS, as_array, x_inp, "x_inp")
    n_inp, n_out, dtype = x.shape[0], dims.n_out, x.dtype

    raw = meter.stage("optimized.activation_scores", activation_scores, x, params)
    meter.stage(FINITE_CHECKS, check_finite, raw, "activations")
    gates = meter.stage("tensor.logistic", _gates, raw)
    betas = meter.stage("optimized.beta_pair_for", beta_pair_for, x, params)
    bu, bi = betas.beta_use.array, betas.beta_ign.array
    meter.stage(FINITE_CHECKS, check_finite, bu, "beta_use coefficients")
    meter.stage(FINITE_CHECKS, check_finite, bi, "beta_ign coefficients")

    records, predictions = [], []
    x_out = phi = None
    for it in range(1, dims.n_iters + 1):
        if it == 1:
            routing = meter.stage(SHARES_CREDIT, np.full, (n_inp, n_out), 1.0 / n_out, dtype)
            predicted = scores = None
        else:
            predicted = meter.stage("optimized.predict_inputs", predict_inputs, x_out, params)
            meter.stage(FINITE_CHECKS, check_finite, predicted, "predict", it)
            predictions.append(predicted)
            scores = meter.stage("optimized.score_predictions", score_predictions, x, predicted, params)
            meter.stage(FINITE_CHECKS, check_finite, scores, "score", it)
            routing = meter.stage("tensor.softmax_rows", _routing, scores)
        share_used, share_ignored, phi = meter.stage(
            SHARES_CREDIT, _shares_credit, gates, routing, bu, bi
        )
        x_out = meter.stage("optimized.m_step_factored", m_step_factored, x, phi, params)
        meter.stage(FINITE_CHECKS, check_finite, x_out, "output update", it)
        if capture_trace:
            records.append(
                IterationRecord(
                    routing=DenseTensor(routing, copy=False),
                    scores=None if scores is None else DenseTensor(scores, copy=False),
                    predicted=None if predicted is None else DenseTensor(predicted, copy=False),
                    share_used=DenseTensor(share_used, copy=False),
                    share_ignored=DenseTensor(share_ignored, copy=False),
                    credit=DenseTensor(phi, copy=False),
                    output=DenseTensor(x_out, copy=True),
                )
            )
        else:
            del routing, share_used, share_ignored, scores

    final_credit = DenseTensor(phi, copy=False)
    if capture_trace:
        trace = RoutingTrace(
            activation_scores=DenseTensor(raw, copy=False),
            activation_gates=DenseTensor(gates, copy=False),
            iterations=tuple(records),
            final_credit=final_credit,
        )
    else:
        trace = RoutingTrace(None, None, (), final_credit)
    return DenseTensor(x_out, copy=False), trace, predictions
