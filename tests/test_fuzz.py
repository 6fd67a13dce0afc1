"""Seeded differential fuzz of ``route_optimized`` against ``route_reference``.

Each case is a ``rand_instance`` in either layout and dtype, with a random
subset of its parameter fields and its input scaled by random powers of
ten, routed at a block size drawn from {1, 7, 64, the default}, so that
many blocks, ragged last blocks and both places a block's pooled product
can live are covered. A share of the cases is traced, and then every
iteration record of the replay is compared with the reference's too.
The optimized router, its records' first read too, runs under numpy's
``all="raise"`` error state and the reference under ``all="ignore"``: the
optimized router keeps its own error state, so a case in which the
caller's state reached it would fail with a FloatingPointError.
Every case falls into one outcome class, and each class has one rule:

- both finite: within criterion 1's tolerances, outputs and records.
- both raise: ``NumericError`` naming the same stage, or a pair of names
  that differ by design: a listed pair (``STAGE_PAIRS``); the optimized
  router's activation scores, which it checks before anything else, where
  they are not finite (``activations_first``); or its output update,
  where its pooled product overflows on the reference's own credit
  (``pooled_first``).
- the reference raises on its materialized votes, which the optimized
  router never forms, where the optimized router returns finite outputs.
- any other float32 case is rerun in float64, where both routers must
  agree within its tolerance. Where the float32 reference matches that
  rerun, the optimized router must too; where it does not, or raises,
  float32 cannot route the case, and the rerun settles it: an optimized
  output that is finite must match the rerun. An output update that only
  the optimized router fails is never settled so: it pools the
  reference's own credits, so only its factored M-step can fail there
  alone, an open finding that ``KNOWN`` lists.
- a scaled parameter set that ``RoutingParams`` rejects is drawn again.
- the cases of ``KNOWN``, open findings each, where only the optimized
  router raises on a case that the float32 reference routes as float64
  does: each must still raise at its listed stage, so that a mend shows.

A case that fits none of them fails the test. Numpy's RNG draws every
case (CI has no ``hypothesis``), so a failure names its seed and index.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from vecroute import (
    NumericError,
    RoutingParams,
    activation_scores,
    as_plugins,
    logistic,
    m_step_factored,
    optimized,
    route_optimized,
    route_reference,
)

from oracles import rand_instance, relative_linf

FUZZ_SEEDS = (0, 1, 2, 3)
FUZZ_CASES = 400
TRACED_SHARE = 0.25
SCALED_SHARE = 0.3  # of the fields and the input, each drawn on its own
TOP_SHARE = 0.25
TIED_SHARE = 0.25
BLOCK_SIZES = (1, 7, 64, optimized.BLOCK_ELEMENTS)
F32, F64 = np.dtype(np.float32), np.dtype(np.float64)
TOLERANCE = {F32: 1e-4, F64: 1e-10}  # criterion 1's
# Largest power of ten a field is scaled by. Past float32's range the set
# is rejected and drawn again; a float32 case that overflows is settled by
# its float64 rerun. Float64 has no wider type to settle a case at the top
# of its range, so its fields stay where a few products cannot reach it.
TOP_EXPONENT = {F32: 40, F64: 60}
RECORD_FIELDS = ("routing", "scores", "predicted", "share_used", "share_ignored", "credit", "output")
VOTES = "non-finite values in materialized votes"
ACTIVATIONS, X_INP = "non-finite values in activations", "non-finite values in x_inp"
UPDATE = "non-finite values in output update"
# (reference, optimized) stages that differ by design. The reference
# materializes every vote and checks them before its first iteration; the
# optimized router never forms a vote, so an overflowing vote surfaces
# there in a later stage that the votes feed. The reference's prediction
# network checks its normalized rows; the optimized router's prediction
# check covers them, since each is a term of every entry of its row.
STAGE_PAIRS = {
    (VOTES, UPDATE),
    (VOTES, "non-finite values in score"),
    (VOTES, "non-finite values in predict"),
    ("non-finite values in normalize_vectors", "non-finite values in predict"),
}


# (seed, case index) -> the stage at which the optimized router raises where
# the float32 reference returns the float64 rerun's outputs. Both kinds are
# open findings (ROADMAP item 16): the optimized router checks the activation
# scores, which overflow on finite inputs, where the reference's gates
# saturate to 0 or 1; and the factored M-step's vote_mix * (credit^T x)
# overflows where the reference, which mixes each input before it pools,
# stays finite.
KNOWN = {
    (0, 32): f"{UPDATE} at iteration 1",
    (0, 34): ACTIVATIONS,
    (0, 284): ACTIVATIONS,
    (1, 187): f"{UPDATE} at iteration 1",
    (1, 339): f"{UPDATE} at iteration 2",
    (2, 315): ACTIVATIONS,
    (3, 295): ACTIVATIONS,
}


def scaled_case(rng: np.random.Generator):
    """(params, x) of a random instance, some fields and the input scaled
    by powers of ten; None when ``RoutingParams`` rejects the scaled set.
    In float32 one scaled field in ``TOP_SHARE`` lands in the top decade
    of the range. In ``TIED_SHARE`` of the fixed layout's cases
    ``beta_ign`` is ``beta_use``, and in float32 both lie in the top
    decade: the credit bu * used - bu * ignored cancels, exactly where
    used = ignored, and its terms can overflow where it need not."""
    mode = "fixed" if rng.random() < 0.5 else "variable"
    dtype = F32 if rng.random() < 0.5 else F64
    _, params, x = rand_instance(rng, mode)
    tensors = {name: t.array.astype(dtype) for name, t in params.tensors.items()}
    tensors["x_inp"] = x.astype(dtype)

    def power(value, top: bool) -> int:
        biggest = float(np.abs(value).max())
        if dtype == F32 and top and biggest > 0:
            return math.floor(math.log10(float(np.finfo(dtype).max)) - math.log10(biggest))
        return int(rng.integers(1, TOP_EXPONENT[dtype] + 1))

    powers = {
        name: power(value, rng.random() < TOP_SHARE) for name, value in tensors.items() if rng.random() < SCALED_SHARE
    }
    if mode == "fixed" and rng.random() < TIED_SHARE:
        tensors["beta_ign"] = tensors["beta_use"]
        powers["beta_use"] = powers["beta_ign"] = power(tensors["beta_use"], True)
    with np.errstate(over="ignore"):
        for name, k in powers.items():
            tensors[name] = tensors[name] * dtype.type(10.0**k)
    x = tensors.pop("x_inp")
    try:
        return RoutingParams(params.dims, **tensors), x
    except NumericError:
        return None


def routed(route, state: str):
    """(output, trace) of ``route()`` under numpy's error state ``state``
    for all flags, or the message of its NumericError."""
    with np.errstate(all=state):
        try:
            return route()
        except NumericError as err:
            return str(err)


def optimized_routing(params, x, traced: bool):
    """The optimized router's (output, trace), or its message, under a
    raise state: the router keeps its own error state, so a caller's
    changes nothing, in the call and in the first read of its records."""

    def route():
        out, trace = route_optimized(x, params, traced)
        trace.iterations[:1]  # the records' first read builds them all
        return out, trace

    return routed(route, "raise")


def reference_routing(params, x, traced: bool):
    def route():
        nets, betas = as_plugins(x, params)
        return route_reference(x, nets, betas, params.dims, traced)

    return routed(route, "ignore")


def stage(message: str) -> str:
    """A NumericError's stage, without its iteration."""
    return message.split(" at iteration ")[0]


def worst_deviation(value, reference, traced: bool) -> tuple[str, float]:
    """(name, relative deviation) of the output of (output, trace) ``value``
    or, with ``traced``, of one of its records' fields, whichever deviates
    most from ``reference``'s."""
    gaps = [("output", relative_linf(value[0], reference[0]))]
    if traced:
        for it, (got, want) in enumerate(zip(value[1].iterations, reference[1].iterations), start=1):
            gaps += [
                (f"iteration{it}/{field}", relative_linf(getattr(got, field), getattr(want, field)))
                for field in RECORD_FIELDS
                if getattr(want, field) is not None
            ]
    return max(gaps, key=lambda gap: gap[1])


def activations_first(params, x, mine) -> bool:
    """Whether the optimized router raised on activation scores that are
    not finite: it checks them before anything else, since they prove the
    input finite, and names ``x_inp`` where the input is not. The reference
    checks only the gates, which saturate to 0 or 1 on an infinite score,
    and its coefficients are computed (``as_plugins``) before it routes, so
    it names whichever later check fails first."""
    if stage(mine) not in (ACTIVATIONS, X_INP):
        return False
    with np.errstate(all="ignore"):
        return not np.isfinite(activation_scores(x, params)).all()


def pooled_first(params, x, mine) -> bool:
    """Whether the optimized router's output update at iteration k failed
    where pooling first overflows on the reference's own credit of that
    iteration: vote_mix * (credit^T x) is a product that the reference,
    which mixes each input before it pools, never forms. Iteration 1's
    credit is the reference's flat-prior formula, which needs no later
    iteration to run."""
    if stage(mine) != UPDATE:
        return False
    k = int(mine.rsplit(" ", 1)[1])
    with np.errstate(all="ignore"):
        if k == 1:
            betas = as_plugins(x, params)[1]
            gates = logistic(activation_scores(x, params))[:, None]
            used = gates * np.full((1, params.dims.n_out), 1.0 / params.dims.n_out, params.dtype)
            credit = betas.beta_use.array * used - betas.beta_ign.array * (gates - used)
        else:
            first_k = reference_routing(RoutingParams(replace(params.dims, n_iters=k), **params.tensors), x, True)
            if isinstance(first_k, str):
                return False
            credit = first_k[1].final_credit.array
        return np.isfinite(credit).all() and not np.isfinite(m_step_factored(x, credit, params)).all()


def float64_rerun(params, x, traced: bool):
    """The reference's float64 (output, trace) of a float32 case, or why
    it cannot settle the case: a router raises in float64, or the two
    deviate beyond float64's tolerance."""
    p64, x64 = params.astype(F64), x.astype(F64)
    wide, wide_mine = reference_routing(p64, x64, traced), optimized_routing(p64, x64, traced)
    if isinstance(wide, str) or isinstance(wide_mine, str):
        return f"float64: reference {wide!r:.80}, optimized {wide_mine!r:.80}"
    name, gap = worst_deviation(wide_mine, wide, traced)
    if gap <= TOLERANCE[F64]:
        return wide
    return f"float64 {name} deviates {gap:.3g}"


def classify(params, x, traced: bool) -> tuple[str, str | None]:
    """(outcome class, failure or None) of one case."""
    tol = TOLERANCE[params.dtype]
    mine, theirs = optimized_routing(params, x, traced), reference_routing(params, x, traced)
    mine_raised, theirs_raised = isinstance(mine, str), isinstance(theirs, str)
    if not mine_raised and not theirs_raised:
        name, gap = worst_deviation(mine, theirs, traced)
        if gap <= tol:
            return "agree", None
        failure = f"{name} deviates {gap:.3g}"
    elif mine_raised and theirs_raised:
        if stage(mine) == stage(theirs):
            return "same error", None
        if (stage(theirs), stage(mine)) in STAGE_PAIRS:
            return "listed pair", None
        if activations_first(params, x, mine):
            return "activations first", None
        if pooled_first(params, x, mine):
            return "pooled first", None
        failure = f"reference: {theirs!r:.80}; optimized: {mine!r:.80}"
    elif theirs == VOTES:
        return "votes only", None
    else:
        failure = f"reference: {theirs!r:.80}; optimized: {mine!r:.80}"
    if params.dtype == F64:
        return "unlisted", failure
    # Float32 may not be able to route the case: rounding at the top of its
    # range decides where it overflows. Float64 settles it, and whichever
    # float32 router returns finite outputs must match it.
    wide = float64_rerun(params, x, traced)
    if isinstance(wide, str):
        return "unlisted", f"{failure}; {wide}"
    gap = np.inf if mine_raised else worst_deviation(mine, wide, traced)[1]
    if theirs_raised or worst_deviation(theirs, wide, traced)[1] > tol:
        if not mine_raised and gap > tol:
            return "unlisted", f"{failure}; the optimized float32 output deviates {gap:.3g} from float64"
        if theirs_raised or not mine_raised or stage(mine) != UPDATE:
            return "beyond float32", None
        return "unlisted", f"{failure}; only the optimized router fails the output update"
    return "float64 rerun", None if gap <= tol else f"{failure}; the float32 reference matches float64"


def known_refusal(params, x, traced: bool, message: str) -> tuple[str, str | None]:
    """(outcome class, failure or None) of a case of ``KNOWN``."""
    mine, theirs = optimized_routing(params, x, traced), reference_routing(params, x, traced)
    if mine == message and not isinstance(theirs, str):
        return "known refusal", None
    return "known refusal", f"no longer only the optimized router raises {message!r}: drop it from KNOWN"


def fuzz(seed: int, cases: int, monkeypatch) -> tuple[Counter, list[str]]:
    """Outcome class counts and failures of ``cases`` cases drawn from
    ``seed``; rejected parameter sets are counted apart."""
    rng = np.random.default_rng(seed)
    counts, failures = Counter(), []
    for index in range(cases):
        while (case := scaled_case(rng)) is None:
            counts["rejected"] += 1
        block_elements = int(rng.choice(BLOCK_SIZES))
        traced = bool(rng.random() < TRACED_SHARE)
        monkeypatch.setattr(optimized, "BLOCK_ELEMENTS", block_elements)
        if (seed, index) in KNOWN:
            outcome, failure = known_refusal(*case, traced, KNOWN[seed, index])
        else:
            outcome, failure = classify(*case, traced)
        counts[outcome] += 1
        if failure is not None:
            params, x = case
            failures.append(
                f"seed {seed} case {index} ({params.mode}, {params.dtype}, {x.shape[0]}x{params.dims.n_out}, "
                f"BLOCK_ELEMENTS {block_elements}, traced {traced}): {failure}"
            )
    return counts, failures


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_routers_agree_on_scaled_random_instances(seed, monkeypatch):
    counts, failures = fuzz(seed, FUZZ_CASES, monkeypatch)
    assert not failures, "\n".join(failures[:10])
    assert counts["agree"] > FUZZ_CASES // 2, counts
