"""Independent reference computations and instance builders for the tests.

Everything here is written as plain scalar loops in float64 (or the most
literal transcription of a formula), sharing no code with the library's
vectorized paths, so every comparison pits two implementations that have
only the definitions in common. The parameter schema likewise comes from
the tables in docs/param-format.md and a literal per-name init rule,
never from the library's own layout tables.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from vecroute import RoutingDims, init_params
from vecroute.tensor import as_array

VAR_EPS = 1e-5


def logistic_scalar(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    t = math.exp(z)
    return t / (1.0 + t)


def log_logistic_scalar(z: float) -> float:
    return min(z, 0.0) - math.log1p(math.exp(-abs(z)))


def softmax_rows_loops(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    out = np.zeros_like(scores)
    for i in range(scores.shape[0]):
        exps = [math.exp(v) for v in scores[i]]
        total = sum(exps)
        for j, e in enumerate(exps):
            out[i, j] = e / total
    return out


def normalize_rows_loops(x, eps: float = VAR_EPS) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for j in range(x.shape[0]):
        row = [float(v) for v in x[j]]
        mean = sum(row) / len(row)
        var = sum((v - mean) ** 2 for v in row) / len(row)
        denom = math.sqrt(var + eps)
        for h, v in enumerate(row):
            out[j, h] = (v - mean) / denom
    return out


def matmul_loops(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for k in range(b.shape[1]):
            acc = 0.0
            for j in range(a.shape[1]):
                acc += a[i, j] * b[j, k]
            out[i, k] = acc
    return out


def std_all_loops(m) -> float:
    flat = [float(v) for v in np.asarray(m).ravel()]
    mean = sum(flat) / len(flat)
    return math.sqrt(sum((v - mean) ** 2 for v in flat) / len(flat))


def normalized_chain_f64(c1, c2, c3) -> np.ndarray:
    """End-to-end credit in float64: the product taken left to right,
    divided by its population standard deviation, taken in two passes
    with exactly rounded sums."""
    a, b, c = (np.asarray(m, dtype=np.float64) for m in (c1, c2, c3))
    product = (a @ b) @ c
    flat = product.ravel()
    mean = math.fsum(flat) / flat.size
    return product / math.sqrt(math.fsum((flat - mean) ** 2) / flat.size)


def route_general_loops(
    x,
    a_scores,
    votes,
    predict_fn,
    score_fn,
    beta_use,
    beta_ign,
    n_iters: int,
):
    """Scalar-loop execution of the general routing loop in float64.

    ``predict_fn`` and ``score_fn`` are the same plugin callables the
    library receives; this function reimplements everything around them:
    gates, flat prior, softmax, shares, and the two-sum output update.
    Returns the final output and one dict per iteration.
    """
    x = np.asarray(x, dtype=np.float64)
    votes = np.asarray(votes, dtype=np.float64)
    beta_use = np.asarray(beta_use, dtype=np.float64)
    beta_ign = np.asarray(beta_ign, dtype=np.float64)
    n_inp = x.shape[0]
    _, n_out, d_out = votes.shape
    gates = [logistic_scalar(float(s)) for s in np.asarray(a_scores)]

    history = []
    x_out = None
    for it in range(1, n_iters + 1):
        if it == 1:
            routing = np.full((n_inp, n_out), 1.0 / n_out)
        else:
            predicted = np.asarray(predict_fn(np.asarray(x_out)), dtype=np.float64)
            scored = np.asarray(score_fn(x, predicted), dtype=np.float64)
            routing = softmax_rows_loops(scored)
        share_used = np.zeros((n_inp, n_out))
        share_ignored = np.zeros((n_inp, n_out))
        phi = np.zeros((n_inp, n_out))
        for i in range(n_inp):
            for j in range(n_out):
                share_used[i, j] = gates[i] * routing[i, j]
                share_ignored[i, j] = gates[i] - share_used[i, j]
                phi[i, j] = (
                    beta_use[i, j] * share_used[i, j]
                    - beta_ign[i, j] * share_ignored[i, j]
                )
        x_out = np.zeros((n_out, d_out))
        for j in range(n_out):
            for h in range(d_out):
                used = 0.0
                ignored = 0.0
                for i in range(n_inp):
                    used += beta_use[i, j] * share_used[i, j] * votes[i, j, h]
                    ignored += beta_ign[i, j] * share_ignored[i, j] * votes[i, j, h]
                x_out[j, h] = used - ignored
        history.append(
            dict(
                routing=routing.copy(),
                share_used=share_used,
                share_ignored=share_ignored,
                phi=phi,
                output=x_out.copy(),
            )
        )
    return np.asarray(x_out), history


def activation_loops(x, weight, bias) -> np.ndarray:
    """Scalar-loop activation scores; broadcasts a rank-1 weight over inputs."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    n_inp, d_inp = x.shape
    out = np.zeros(n_inp)
    for i in range(n_inp):
        acc = 0.0
        for d in range(d_inp):
            w = weight[d] if weight.ndim == 1 else weight[i, d]
            acc += w * x[i, d]
        b = bias[0] if bias.shape == (1,) else bias[i]
        out[i] = acc / math.sqrt(n_inp) + b
    return out


def betas_loops(x, weight, bias) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    n_inp, d_inp = x.shape
    n_out = weight.shape[1]
    out = np.zeros((n_inp, n_out))
    for i in range(n_inp):
        for j in range(n_out):
            acc = 0.0
            for d in range(d_inp):
                acc += x[i, d] * weight[d, j]
            out[i, j] = acc + bias[j]
    return out


def predict_loops(x_out, gate, proj, bias, eps: float = VAR_EPS) -> np.ndarray:
    normed = normalize_rows_loops(x_out, eps)
    gate = np.asarray(gate, dtype=np.float64)
    proj = np.asarray(proj, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    n_out, d_out = normed.shape
    d_inp = proj.shape[1]
    out = np.zeros((n_out, d_inp))
    for j in range(n_out):
        for d in range(d_inp):
            acc = 0.0
            for h in range(d_out):
                acc += proj[h, d] * normed[j, h]
            out[j, d] = gate[j, d] * acc + bias[j, d]
    return out


def score_loops(x, predicted, gain, bias) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    n_inp = x.shape[0]
    n_out = predicted.shape[0]
    gain = np.broadcast_to(np.asarray(gain, dtype=np.float64), (n_inp, n_out))
    bias = np.broadcast_to(np.asarray(bias, dtype=np.float64), (n_inp, n_out))
    out = np.zeros((n_inp, n_out))
    for i in range(n_inp):
        for j in range(n_out):
            inner = 0.0
            for d in range(x.shape[1]):
                inner += x[i, d] * predicted[j, d]
            out[i, j] = log_logistic_scalar(gain[i, j] * inner + bias[i, j])
    return out


def votes_loops(x, mix, proj, bias) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    mix = np.asarray(mix, dtype=np.float64)
    proj = np.asarray(proj, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    n_inp, d_inp = x.shape
    n_out, d_out = bias.shape
    scale = 1.0 / math.sqrt(n_inp)
    out = np.zeros((n_inp, n_out, d_out))
    for i in range(n_inp):
        for j in range(n_out):
            for h in range(d_out):
                acc = 0.0
                for d in range(d_inp):
                    acc += proj[d, h] * mix[j, d] * x[i, d]
                out[i, j, h] = acc * scale + bias[j, h]
    return out


def m_step_loops(x, phi, mix, proj, bias) -> np.ndarray:
    """Unfactored output update: materialize votes, then contract with phi."""
    votes = votes_loops(x, mix, proj, bias)
    phi = np.asarray(phi, dtype=np.float64)
    n_inp, n_out, d_out = votes.shape
    out = np.zeros((n_out, d_out))
    for j in range(n_out):
        for h in range(d_out):
            acc = 0.0
            for i in range(n_inp):
                acc += phi[i, j] * votes[i, j, h]
            out[j, h] = acc
    return out


def credit_vote_sum_streamed(x, credit, mix, proj, bias, rows: int = 1024) -> np.ndarray:
    """sum_i credit[i, j] * vote[i, j, h] in float64, votes built per block.

    For sequences too long for :func:`m_step_loops`: each block of
    ``rows`` inputs gets its votes vote[i, j, h] = scale * sum_d x[i, d]
    mix[j, d] proj[d, h] + bias[j, h] explicitly, one (rows, n_out,
    d_out) array from one einsum that forms each output's d_inp x d_out
    map mix[j, d] proj[d, h] before it meets the inputs, and they are
    contracted with that block's credit before the next block is built.
    Inputs are never pooled first, unlike the factored M-step.
    """
    x = np.asarray(x, dtype=np.float64)
    credit = np.asarray(credit, dtype=np.float64)
    mix = np.asarray(mix, dtype=np.float64)
    proj = np.asarray(proj, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    n_inp = x.shape[0]
    scale = 1.0 / math.sqrt(n_inp)
    maps_first = ["einsum_path", (1, 2), (0, 1)]
    out = np.zeros(bias.shape)
    for start in range(0, n_inp, rows):
        votes = np.einsum("id,jd,dh->ijh", x[start : start + rows], mix, proj, optimize=maps_first)
        votes *= scale
        votes += bias
        out += np.einsum("ij,ijh->jh", credit[start : start + rows], votes)
    return out


def votes_for_input(x_inp, index: int, params) -> np.ndarray:
    """Proposals of one input vector, shape (n_out, d_out), in the inputs'
    dtype: vote_mix * x_i, projected by vote_proj, damped by 1/sqrt(n_inp),
    plus vote_bias. Walks the implicit tensor one input at a time."""
    dtype = x_inp.dtype
    scale = dtype.type(1.0) / np.sqrt(np.asarray(x_inp.shape[0], dtype=dtype))
    mixed = params.vote_mix.array * x_inp[index][None, :]
    return (mixed @ params.vote_proj.array) * scale + params.vote_bias.array


def phi_of(record, betas) -> np.ndarray:
    """An iteration's credit recomputed from its shares:
    beta_use * share_used - beta_ign * share_ignored."""
    bu, bi = betas.beta_use.array, betas.beta_ign.array
    return bu * record.share_used.array - bi * record.share_ignored.array


def relative_linf(value, reference) -> float:
    """Max absolute deviation scaled by the reference's max magnitude, in
    float64. Arrays or tensors; a non-finite array raises NumericError, so a
    running maximum of these deviations cannot swallow a NaN."""
    a = np.asarray(as_array(value, "relative_linf value"), dtype=np.float64)
    b = np.asarray(as_array(reference, "relative_linf reference"), dtype=np.float64)
    diff = float(np.max(np.abs(a - b)))
    if diff == 0.0:
        return 0.0
    return diff / max(float(np.max(np.abs(b))), 1e-30)


PARAM_FORMAT_DOC = Path(__file__).resolve().parent.parent / "docs" / "param-format.md"

# Initialization of each parameter, transcribed from the rule stated in
# vecroute.params_io: ("normal", fan-in) draws with standard deviation
# 1/sqrt(fan-in), the fan-in a dims field or a literal count, and
# ("fill", value) is a constant.
INIT_RULES = {
    "act_weight": ("normal", "d_inp"),
    "act_bias": ("fill", 0.0),
    "vote_mix": ("normal", "d_inp"),
    "vote_proj": ("normal", "d_inp"),
    "vote_bias": ("fill", 0.0),
    "pred_proj": ("normal", "d_out"),
    "pred_gate": ("normal", 1),
    "pred_bias": ("fill", 0.0),
    "score_gain": ("normal", "d_inp"),
    "score_bias": ("fill", 0.0),
    "beta_use": ("fill", 1.0),
    "beta_ign": ("fill", 0.0),
    "beta_use_weight": ("fill", 0.0),
    "beta_use_bias": ("fill", 1.0),
    "beta_ign_weight": ("fill", 0.0),
    "beta_ign_bias": ("fill", 0.0),
}


def doc_layout(mode: str) -> list[tuple[str, tuple[str, ...]]]:
    """(name, shape symbols) rows of one mode's table in docs/param-format.md."""
    heading = {"fixed": "Fixed-length mode", "variable": "Variable-length mode"}[mode]
    after = PARAM_FORMAT_DOC.read_text().split(heading, 1)[1].split("\n")
    table = []
    for line in after:
        if line.startswith("|"):
            table.append(line)
        elif table:
            break
    rows = []
    for line in table[2:]:  # past the header and the separator
        name, shape = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((name, tuple(s.strip() for s in shape.strip("()").split(",") if s.strip())))
    return rows


def doc_shapes(dims: RoutingDims) -> dict[str, tuple[int, ...]]:
    """Name -> shape in the canonical order the doc gives for ``dims``'s mode."""
    mode = "variable" if dims.n_inp is None else "fixed"
    return {
        name: tuple(int(s) if s.isdigit() else getattr(dims, s) for s in symbols)
        for name, symbols in doc_layout(mode)
    }


def init_draw(dims: RoutingDims, seed: int) -> dict[str, np.ndarray]:
    """The float32 draw init_params documents, from the doc tables and INIT_RULES."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, shape in doc_shapes(dims).items():
        kind, arg = INIT_RULES[name]
        if kind == "fill":
            out[name] = np.full(shape, arg, dtype=np.float32)
        else:
            fan_in = arg if isinstance(arg, int) else getattr(dims, arg)
            std = np.float32(1.0 / math.sqrt(fan_in))
            out[name] = rng.standard_normal(shape, dtype=np.float32) * std
    return out


def rand_dims(
    rng: np.random.Generator,
    mode: str = "fixed",
    n_inp_max: int = 16,
    n_out_max: int = 8,
    d_max: int = 32,
    n_iters_choices=(2, 3, 4),
) -> tuple[RoutingDims, int]:
    """Random small dims plus the concrete input count to route with."""
    n_inp = int(rng.integers(1, n_inp_max + 1))
    dims = RoutingDims(
        n_inp=None if mode == "variable" else n_inp,
        n_out=int(rng.integers(1, n_out_max + 1)),
        d_inp=int(rng.integers(2, d_max + 1)),
        d_out=int(rng.integers(2, d_max + 1)),
        n_iters=int(rng.choice(n_iters_choices)),
    )
    return dims, n_inp


def rand_params(rng: np.random.Generator, dims: RoutingDims, n_inp: int | None = None):
    """A fully randomized parameter set (no neutral-point zeros anywhere).

    Randomizing every tensor, including both beta paths, keeps equivalence
    tests honest: no term of the update can vanish identically.
    """
    def draw(shape, scale, loc=0.0):
        return rng.standard_normal(shape, dtype=np.float32) * np.float32(scale) + np.float32(loc)

    scales = {
        "act_weight": (0.5, 0.0),
        "act_bias": (0.5, 0.0),
        "vote_mix": (0.6, 0.0),
        "vote_proj": (0.6, 0.0),
        "vote_bias": (0.3, 0.0),
        "pred_proj": (0.5, 0.0),
        "pred_gate": (0.5, 0.0),
        "pred_bias": (0.3, 0.0),
        "score_gain": (0.5, 0.0),
        "score_bias": (0.3, 0.0),
        "beta_use": (0.5, 0.8),
        "beta_ign": (0.4, 0.1),
        "beta_use_weight": (0.3, 0.0),
        "beta_use_bias": (0.3, 0.5),
        "beta_ign_weight": (0.3, 0.0),
        "beta_ign_bias": (0.3, 0.1),
    }
    overrides = {
        name: draw(shape, *scales[name]) for name, shape in doc_shapes(dims).items()
    }
    return init_params(dims, seed=int(rng.integers(2**31)), overrides=overrides)


def rand_instance(rng: np.random.Generator, mode: str = "fixed", **dim_kwargs):
    """(dims, params, x) triple with every tensor randomized, float32."""
    dims, n_inp = rand_dims(rng, mode, **dim_kwargs)
    params = rand_params(rng, dims, n_inp)
    x = rng.standard_normal((n_inp, dims.d_inp), dtype=np.float32)
    return dims, params, x


def assert_share_laws(trace, atol_sum: float = 1e-6, slack: float = 1e-7) -> None:
    """Check the conservation and bound laws at every recorded iteration."""
    gates = trace.activation_gates.array.astype(np.float64)
    assert np.all(gates >= 0.0) and np.all(gates <= 1.0)
    for record in trace.iterations:
        used = record.share_used.array.astype(np.float64)
        ignored = record.share_ignored.array.astype(np.float64)
        total = used + ignored
        assert np.max(np.abs(total - gates[:, None])) <= atol_sum
        assert np.max(np.abs(used.sum(axis=1) - gates)) <= atol_sum
        assert np.min(used) >= -slack and np.min(ignored) >= -slack
        assert np.max(used - gates[:, None]) <= slack
        assert np.max(ignored - gates[:, None]) <= slack
