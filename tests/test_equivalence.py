"""The incremental planners, the bitmask cover and WMAXSAT solvers,
one-pass materializers and the coefficient-comparing oracle against slow
references.

The references in util.py rescore or recount every remaining term each
round, build each penalty as its own polynomial, and verify by evaluating
both sides at every assignment.  Small coefficients (+-1..2) make ties in
the burden w, in the occurrence counts and in the ReduceMin pair counts
common, so the tie-breaks are exercised too.
"""

import hashlib
import math
import operator
import random
from itertools import combinations, product

import pytest

from puboforge.gadgets import (
    _PENALTY_ROWS,
    GadgetMode,
    ReducedInstance,
    ReductionPlan,
    apply_plan,
    emit_qubo,
    exhaustive_penalty_search,
)
from puboforge.poly import (
    CapExceededError,
    Polynomial,
    avar,
    monomial,
    subset_sums,
    value_table,
    xvar,
)
from puboforge.precision import greedy_precision_plan
from puboforge.setcover import (
    build_set_cover,
    emit_lp,
    plan_from_cover,
    reduce_min_greedy,
    set_cover_to_ilp,
    solve_ilp_exact,
)
from puboforge.verify import verify_reduction
from puboforge.wmaxsat import apply_quartic_plan, build_wmaxsat, selection_satisfies, solve_wmaxsat_exact
from util import (
    brute_force_minima,
    chain_selection,
    poly_add,
    random_poly,
    random_quartic,
    reference_apply_plan,
    reference_apply_quartic_plan,
    reference_build_set_cover,
    reference_emit_lp,
    reference_greedy_precision_plan,
    reference_plan_from_cover,
    reference_reduce_min_greedy,
    reference_set_cover_to_ilp,
    reference_solve_ilp_exact,
    reference_solve_wmaxsat_exact,
    reference_verify_reduction,
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


def cover_instances():
    """Seeded cubic instances, n = 4..13 and at most 60 terms."""
    rng = random.Random("equivalence:cover")
    for i in range(300):
        n = 4 + i % 10
        triples = list(combinations(range(1, n + 1), 3))
        lam = rng.randint(1, min(len(triples), 60))
        terms = {monomial([xvar(v) for v in t]): rng.choice(SMALL) for t in rng.sample(triples, lam)}
        yield Polynomial(n, terms)


def assert_searches_a_subsequence(result, expected):
    """The solver's bound is never below the reference's, so it visits a
    subsequence of the reference's nodes: never more nodes, the same answer
    wherever the reference proves one, and never a higher cost."""
    assert result.nodes <= expected.nodes
    if expected.proven_optimal:
        assert (result.selection, result.cost, result.proven_optimal) == (expected.selection, expected.cost, True)
    assert result.cost <= expected.cost


def test_bitmask_cover_matches_reference():
    for i, poly in enumerate(cover_instances()):
        sc, ref = build_set_cover(poly), reference_build_set_cover(poly)
        assert (sc.universe, sc.candidates) == (ref.universe, ref.candidates)
        assert [{r for r in range(len(sc.universe)) if mask >> r & 1} for mask in sc.covers] == list(ref.covers)
        assert emit_lp(sc) == reference_emit_lp(ref)
        mode = list(GadgetMode)[i % 2]
        everything = (1,) * len(sc.candidates)  # each term's three pairs compete for it
        assert plan_from_cover(sc, everything, poly, mode) == reference_plan_from_cover(ref, everything, poly, mode)
        ilp, ref_ilp = set_cover_to_ilp(sc), reference_set_cover_to_ilp(ref)
        # Budgets 1, 3 and 50 stop most solves early, so unproven
        # incumbents and the greedy start are compared too.
        for budget in (1, 3, 50, 10**6):
            result = solve_ilp_exact(ilp, budget)
            assert_searches_a_subsequence(result, reference_solve_ilp_exact(ref_ilp, budget))
            assert result.proven_optimal or result.nodes == budget
            plan = plan_from_cover(sc, result.selection, poly, mode)
            assert plan == reference_plan_from_cover(ref, result.selection, poly, mode)


COEFFS = [c for c in range(-8, 9) if c]


def cover_exact_polys():
    """The shape of the benchmark's cover-exact inputs: 60 cubic terms over
    13 variables, coefficients +-1..8."""
    rng = random.Random("equivalence:cover-exact")
    for _ in range(100):
        triples = rng.sample(list(combinations(range(1, 14), 3)), 60)
        yield Polynomial(13, {monomial([xvar(v) for v in t]): rng.choice(COEFFS) for t in triples})


def quartic_maxsat_polys():
    """The benchmark's quartic-maxsat inputs for seeds 4242 and 777, indices
    0-99, drawn as perfbench/workloads.py draws them: n=8, each pair with
    probability 0.3, then 4 cubic and 4 quartic terms, coefficients +-1..8."""
    for seed in (4242, 777):
        for index in range(100):
            rng = random.Random(f"perfbench:quartic-maxsat:{seed}:{index}")
            terms = {p: rng.choice(COEFFS) for p in combinations(range(1, 9), 2) if rng.random() < 0.3}
            for degree in (3, 4):
                for t in sorted(rng.sample(list(combinations(range(1, 9), degree)), 4)):
                    terms[t] = rng.choice(COEFFS)
            yield Polynomial(8, {monomial([xvar(v) for v in t]): c for t, c in terms.items()})


def search_digest(results):
    """sha256 of every result's (selection, cost, proven, nodes), in order."""
    rows = [(tuple(sorted(r.selection)) if isinstance(r.selection, frozenset) else r.selection,
             r.cost, r.proven_optimal, r.nodes) for r in results]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# Both digests were taken from the solvers before their node state carried
# row and clause masks: a change to either search tree (a node more or less,
# another incumbent) changes them.
def test_cover_search_tree_is_pinned():
    results = [solve_ilp_exact(set_cover_to_ilp(build_set_cover(poly))) for poly in cover_exact_polys()]
    assert sum(r.nodes for r in results) == 49106
    assert search_digest(results) == "1a2cf850e5476f168bf58750ca56203881b805af9a9002261dbe35dcf43f5aba"


def test_wmaxsat_search_tree_is_pinned():
    results = [solve_wmaxsat_exact(build_wmaxsat(poly), 20000) for poly in quartic_maxsat_polys()]
    assert sum(r.nodes for r in results) == 48500
    assert search_digest(results) == "4cefa95f5a71142ba5426caaf46f8363411a294b8ce82992f2e38b7f385cc656"


def test_cover_search_prunes_benchmark_shaped_covers():
    # The packing-plus-reach bound should visit at most 0.6 of the
    # reference's nodes in all.
    nodes = reference_nodes = 0
    for poly in cover_exact_polys():
        result = solve_ilp_exact(set_cover_to_ilp(build_set_cover(poly)))
        expected = reference_solve_ilp_exact(reference_set_cover_to_ilp(reference_build_set_cover(poly)))
        assert expected.proven_optimal
        assert_searches_a_subsequence(result, expected)
        nodes, reference_nodes = nodes + result.nodes, reference_nodes + expected.nodes
    assert nodes <= 0.6 * reference_nodes


@pytest.mark.parametrize("mode", list(GadgetMode))
def test_apply_plan_bytes_match_reference(mode):
    for poly in INSTANCES[::3]:
        plan = reduce_min_greedy(poly, mode)
        assert emit_qubo(apply_plan(poly, plan)) == emit_qubo(reference_apply_plan(poly, plan))


def test_apply_quartic_plan_bytes_match_reference():
    rng = random.Random("equivalence:quartic")
    for i in range(60):
        poly = random_quartic(rng, rng.randint(4, 7))
        instance = build_wmaxsat(poly)
        selections = [frozenset(range(1, instance.num_vars + 1))]
        if i % 4 == 0:
            selections.append(solve_wmaxsat_exact(instance, 20000).selection)
        for selection in selections:
            got = emit_qubo(apply_quartic_plan(poly, instance, selection))
            assert got == emit_qubo(reference_apply_quartic_plan(poly, instance, selection))


def wmaxsat_instances():
    """Seeded selection problems: mixed degree-4 (n = 4..8), cubic only,
    and n=8 with 4 quartic, 4 cubic and ~30% of the quadratic terms."""
    rng = random.Random("equivalence:wmaxsat")
    for i in range(160):
        yield build_wmaxsat(random_quartic(rng, 4 + i % 5))
    for i in range(80):
        n = 4 + i % 5
        triples = rng.sample(list(combinations(range(1, n + 1), 3)), rng.randint(1, min(10, math.comb(n, 3))))
        yield build_wmaxsat(Polynomial(n, {monomial([xvar(v) for v in t]): rng.choice(SMALL) for t in triples}))
    for _ in range(60):
        terms = {monomial([xvar(v) for v in p]): rng.choice(SMALL) for p in combinations(range(1, 9), 2) if rng.random() < 0.3}
        for degree in (3, 4):
            for t in rng.sample(list(combinations(range(1, 9), degree)), 4):
                terms[monomial([xvar(v) for v in t])] = rng.choice(SMALL)
        yield build_wmaxsat(Polynomial(8, terms))


def test_bitmask_wmaxsat_searches_the_reference_tree():
    # The greedy upper bound only lowers the threshold, so the search visits
    # a subsequence of the reference's nodes.  Budgets 1, 3 and 50 stop most
    # searches early; there the greedy incumbent may only improve on the
    # reference's.  The last 60 instances have the benchmark's quartic-maxsat
    # shape: there the bound should save at least 0.4 of the nodes in all.
    improved = nodes = reference_nodes = 0
    for i, instance in enumerate(wmaxsat_instances()):
        for budget in (1, 3, 50, 20000):
            result = solve_wmaxsat_exact(instance, budget)
            expected = reference_solve_wmaxsat_exact(instance, budget)
            assert_searches_a_subsequence(result, expected)
            assert selection_satisfies(instance, result.selection)
            assert result.cost == len(result.selection)
            assert result.proven_optimal or result.nodes == budget
            improved += result.cost < expected.cost
            if i >= 240 and budget == 20000:
                nodes, reference_nodes = nodes + result.nodes, reference_nodes + expected.nodes
    assert improved
    assert nodes <= 0.6 * reference_nodes


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


def perturbed(rng, reduced, kind):
    """The reduction plus one extra term: a constant, an x term or an ancilla term."""
    n, slots = reduced.quadratic.n, len(reduced.registry)
    xs = [xvar(i) for i in rng.sample(range(1, n + 1), rng.randint(1, min(2, n)))]
    if kind == "shift":
        mono = ()
    elif kind == "x" or not slots:
        mono = monomial(xs)
    else:
        mono = monomial([avar(rng.randrange(slots))] + rng.choice(([], xs[:1], [avar(rng.randrange(slots))])))
    extra = Polynomial(n, {mono: rng.choice((-2, -1, 1, 2))})
    return ReducedInstance(poly_add(reduced.quadratic, extra), reduced.registry)


def underweighted(rng, poly, plan):
    """The plan with every penalty weight lowered by 1 or 2 (never below 1)."""
    deltas = {k: max(1, d - rng.randint(1, 2)) for k, d in plan.deltas.items()}
    return apply_plan(poly, ReductionPlan(plan.mode, plan.assignments, deltas))


def oracle_cases():
    """(original, reduced) pairs: sound reductions and broken ones alike."""
    rng = random.Random("equivalence:oracle")
    broken = ("shift", "x", "ancilla", "delta")
    cases = []
    for i in range(450):
        mode = GadgetMode.TRIPLE if i % 3 == 2 else GadgetMode.SINGLE
        poly = tie_heavy_cubic(rng, rng.randint(3, 5 if mode is GadgetMode.TRIPLE else 7))
        plan = (reduce_min_greedy, greedy_precision_plan)[i % 4 // 2](poly, mode)
        kind = "sound" if i % 2 else broken[i // 2 % 4]
        if kind == "delta":
            cases.append((poly, underweighted(rng, poly, plan)))
        elif kind == "sound":
            cases.append((poly, apply_plan(poly, plan)))
        else:
            cases.append((poly, perturbed(rng, apply_plan(poly, plan), kind)))
    for i in range(160):
        poly = random_quartic(rng, rng.randint(4, 7))
        instance = build_wmaxsat(poly)
        selection = chain_selection(rng, poly, instance) if i % 4 < 2 else solve_wmaxsat_exact(instance, 2000).selection
        reduced = apply_quartic_plan(poly, instance, selection)
        kind = "sound" if i % 2 else broken[i // 2 % 3]  # "delta" needs a ReductionPlan
        cases.append((poly, reduced if kind == "sound" else perturbed(rng, reduced, kind)))
    return cases


def verdict(check, original, reduced):
    try:
        return check(original, reduced)
    except CapExceededError:
        return "cap"


def test_verify_reduction_matches_reference():
    cases = oracle_cases()
    verdicts = [verdict(verify_reduction, p, r) for p, r in cases]
    assert verdicts == [verdict(reference_verify_reduction, p, r) for p, r in cases]
    reports = [v for v in verdicts if v != "cap"]
    assert len(reports) >= 500
    assert 200 <= sum(v.ok for v in reports) <= len(reports) - 200
    assert any(v.pointwise_ok != v.ground_state_ok for v in reports)


def test_verify_reduction_one_component_over_every_variable():
    # A ring of quartic terms reduced through disjoint pairs: the products
    # z12 z34, z34 z56, ... chain all five pair ancillas into one component
    # whose terms touch all ten x variables.
    ring = [(1, 2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8), (7, 8, 9, 10), (1, 2, 9, 10)]
    poly = Polynomial(10, {monomial([xvar(v) for v in t]): c for t, c in zip(ring, (3, -2, 5, -1, 2))})
    instance = build_wmaxsat(poly)
    pairs = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
    reduced = apply_quartic_plan(poly, instance, frozenset(instance.index_of(p) for p in pairs))
    assert reduced.total_variables() == 15
    rng = random.Random("equivalence:ring")
    for candidate in (reduced, perturbed(rng, reduced, "ancilla"), perturbed(rng, reduced, "shift")):
        assert verify_reduction(poly, candidate) == reference_verify_reduction(poly, candidate)
    assert verify_reduction(poly, reduced).ok


def test_subset_sums_against_brute_force():
    rng = random.Random("equivalence:kernel")
    for n in range(11):
        for _ in range(3):
            coeffs = {rng.randrange(1 << n): rng.randint(-10**20, 10**20) for _ in range(rng.randint(0, 3 * n + 1))}
            table = value_table(coeffs, n)
            assert table == [sum(c for m, c in coeffs.items() if m & x == m) for x in range(1 << n)]
            back = subset_sums(table, n, operator.sub)
            assert {m: c for m, c in enumerate(back) if c} == {m: c for m, c in coeffs.items() if c}


def test_brute_force_minima_against_evaluate():
    rng = random.Random("equivalence:minima")
    for _ in range(40):
        n = rng.randint(0, 6)
        poly = random_poly(rng, n, rng.randint(0, 8), max_degree=min(4, n))
        if n and rng.random() < 0.5:
            poly = poly_add(poly, Polynomial(n, {(avar(rng.randrange(3)), xvar(rng.randint(1, n))): rng.choice(SMALL)}))
        res = brute_force_minima(poly)
        values = {
            bits: poly.evaluate(dict(zip(res.variables, bits)))
            for bits in product((0, 1), repeat=len(res.variables))
        }
        assert res.value == min(values.values())
        assert res.minimizers == {b for b, v in values.items() if v == res.value}
