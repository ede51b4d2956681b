"""The incremental planners and one-pass materializers against slow references.

The references in util.py rescore or recount every remaining term each
round and build each penalty as its own polynomial.  Small coefficients
(+-1..2) make ties in the burden w, in the occurrence counts and in the
ReduceMin pair counts common, so the tie-breaks are exercised too.
"""

import random
from itertools import combinations, product

import pytest

from puboforge.gadgets import (
    _PENALTY_ROWS,
    GadgetMode,
    ReductionPlan,
    apply_plan,
    emit_qubo,
    exhaustive_penalty_search,
)
from puboforge.poly import Polynomial, monomial, xvar
from puboforge.precision import greedy_precision_plan
from puboforge.setcover import reduce_min_greedy
from puboforge.wmaxsat import apply_quartic_plan, build_wmaxsat, solve_wmaxsat_exact
from util import (
    reference_apply_plan,
    reference_apply_quartic_plan,
    reference_greedy_precision_plan,
    reference_reduce_min_greedy,
)

SMALL = (-2, -1, 1, 2)


def tie_heavy_cubic(rng, n):
    """Random cubic instance over n variables with coefficients in +-1..2."""
    triples = list(combinations(range(1, n + 1), 3))
    lam = rng.randint(1, min(len(triples), 3 * n))
    terms = {monomial([xvar(i) for i in t]): rng.choice(SMALL) for t in rng.sample(triples, lam)}
    share = rng.choice((0.0, 0.5, 1.0))
    for pair in combinations(range(1, n + 1), 2):
        if rng.random() < share:
            terms[monomial([xvar(i) for i in pair])] = rng.choice(SMALL)
    return Polynomial(n, terms)


INSTANCES = [
    tie_heavy_cubic(random.Random(f"equivalence:{i}"), 4 + i % 9) for i in range(300)
]


def test_greedy_precision_plan_matches_reference():
    # The routing does not depend on the gadget mode, so the slow reference
    # runs once per instance and its routing is compared in both modes.
    for poly in INSTANCES:
        expected = reference_greedy_precision_plan(poly).assignments
        for mode in GadgetMode:
            plan = greedy_precision_plan(poly, mode)
            assert plan == ReductionPlan.from_assignment(poly, expected, mode)


@pytest.mark.parametrize("mode", list(GadgetMode))
def test_reduce_min_greedy_matches_reference(mode):
    for poly in INSTANCES:
        assert reduce_min_greedy(poly, mode) == reference_reduce_min_greedy(poly, mode)


@pytest.mark.parametrize("mode", list(GadgetMode))
def test_apply_plan_bytes_match_reference(mode):
    for poly in INSTANCES[::3]:
        plan = reduce_min_greedy(poly, mode)
        assert emit_qubo(apply_plan(poly, plan)) == emit_qubo(reference_apply_plan(poly, plan))


def test_apply_quartic_plan_bytes_match_reference():
    rng = random.Random("equivalence:quartic")
    for i in range(60):
        n = rng.randint(4, 7)
        terms = {}
        for d, count in ((4, rng.randint(1, 3)), (3, rng.randint(0, 4)), (2, rng.randint(0, 6))):
            subsets = list(combinations(range(1, n + 1), d))
            for t in rng.sample(subsets, min(count, len(subsets))):
                terms[monomial([xvar(v) for v in t])] = rng.choice(SMALL)
        poly = Polynomial(n, terms)
        instance = build_wmaxsat(poly)
        selections = [frozenset(range(1, instance.num_vars + 1))]
        if i % 4 == 0:
            selections.append(solve_wmaxsat_exact(instance, 20000).selection)
        for selection in selections:
            got = emit_qubo(apply_quartic_plan(poly, instance, selection))
            assert got == emit_qubo(reference_apply_quartic_plan(poly, instance, selection))


def test_penalty_search_matches_full_brute_force():
    bound = 3
    rows = [(x, y, z, x * y, x * z, y * z) for x, y, z in _PENALTY_ROWS]
    valid = []
    for cand in product(range(-bound, bound + 1), repeat=6):
        values = [sum(c * b for c, b in zip(cand, row)) for row in rows]
        if not any(values[:4]) and min(values[4:]) >= 1:
            valid.append(cand)
    best = min(max(map(abs, c)) for c in valid)
    result = exhaustive_penalty_search(bound)
    assert result.min_max_coeff == best
    assert result.optima == tuple(sorted(c for c in valid if max(map(abs, c)) == best))
