"""Quartic reduction: clause construction, exact solving, decoding, .wcnf."""

import random
from itertools import combinations

import pytest

from puboforge.poly import ParseError, PuboError
from puboforge.setcover import build_set_cover, set_cover_to_ilp, solve_ilp_exact
from puboforge.verify import verify_reduction
from puboforge.wmaxsat import (
    WmaxsatInstance,
    apply_quartic_plan,
    build_wmaxsat,
    decode_ancilla_set,
    emit_wcnf,
    greedy_selection,
    parse_model,
    parse_wcnf,
    selection_from_model,
    selection_satisfies,
    solve_wmaxsat_exact,
)
from puboforge.gadgets import PairAncilla, TripleAncilla
from puboforge.poly import avar, monomial, xvar
from util import (
    chain_selection,
    computational_assignments,
    pointwise_matches,
    poly_of,
    random_poly,
    random_quartic,
    strictly_dominant,
)

SINGLE_QUARTIC = poly_of(4, {(1, 2, 3, 4): 1})
SINGLE_QUARTIC_INSTANCE = build_wmaxsat(SINGLE_QUARTIC)


def sufficient(poly, pairs, triples):
    """Independent semantic check that an ancilla set can reduce poly.

    A cubic term needs one of its pairs; a quartic term needs a fully
    chosen disjoint-pair split or a chosen triple inside it; every chosen
    triple needs one of its own sub-pairs.
    """
    pairs = set(pairs)
    triples = set(triples)
    for t in triples:
        if not any(b in pairs for b in combinations(t, 2)):
            return False
    for term in poly.cubic_terms():
        if not any(b in pairs for b in combinations(term, 2)):
            return False
    for term in poly.quartic_terms():
        i, j, k, l = term
        splits = (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
        if any(a in pairs and b in pairs for a, b in splits):
            continue
        if any(t in triples for t in combinations(term, 3)):
            continue
        return False
    return True


def brute_force_minimum(poly, inst):
    """Smallest sufficient selection size by subset enumeration."""
    candidates = list(inst.pairs) + list(inst.triples)
    for size in range(len(candidates) + 1):
        for subset in combinations(candidates, size):
            chosen_pairs = [c for c in subset if len(c) == 2]
            chosen_triples = [c for c in subset if len(c) == 3]
            if sufficient(poly, chosen_pairs, chosen_triples):
                return size
    raise AssertionError("all-candidates selection should always suffice")


class TestBuild:
    def test_single_quartic_counts(self):
        inst = build_wmaxsat(SINGLE_QUARTIC)
        assert len(inst.pairs) == 6
        assert len(inst.triples) == 4
        assert inst.num_vars == 10
        assert inst.top == 11
        assert len(inst.soft) == 10
        triple_clauses = [c for c in inst.hard if any(lit < 0 for lit in c)]
        term_clauses = [c for c in inst.hard if all(lit > 0 for lit in c)]
        assert len(triple_clauses) == 4
        assert len(term_clauses) == 8

    def test_single_cubic_clause(self):
        inst = build_wmaxsat(poly_of(3, {(1, 2, 3): -2}))
        assert inst.pairs == ((1, 2), (1, 3), (2, 3))
        assert inst.triples == ()
        assert inst.hard == ((1, 2, 3),)
        assert inst.top == 4

    def test_no_high_degree_terms_gives_trivial_instance(self):
        inst = build_wmaxsat(poly_of(3, {(1, 2): 5}))
        assert inst.num_vars == 0
        assert inst.hard == ()
        result = solve_wmaxsat_exact(inst)
        assert (result.cost, result.proven_optimal) == (0, True)

    def test_candidate_bound(self):
        rng = random.Random("wmaxsat-bound")
        for _ in range(10):
            n = rng.randint(4, 7)
            p = random_poly(rng, n, rng.randint(1, 6), allow_constant=False)
            inst = build_wmaxsat(p)
            bound = (
                len(list(combinations(range(n), 3)))
                + len(list(combinations(range(n), 2)))
            )
            assert inst.num_vars <= bound


class TestSolve:
    def test_single_quartic_needs_two(self):
        inst = build_wmaxsat(SINGLE_QUARTIC)
        result = solve_wmaxsat_exact(inst)
        assert result.proven_optimal
        assert result.cost == 2

    def test_single_cubic_needs_one(self):
        inst = build_wmaxsat(poly_of(3, {(1, 2, 3): 1}))
        result = solve_wmaxsat_exact(inst)
        assert (result.cost, result.proven_optimal) == (1, True)

    def test_all_true_is_feasible(self):
        rng = random.Random("wmaxsat-alltrue")
        for _ in range(10):
            p = random_poly(rng, 6, rng.randint(1, 5), allow_constant=False)
            inst = build_wmaxsat(p)
            assert selection_satisfies(inst, frozenset(range(1, inst.num_vars + 1)))

    def test_matches_brute_force(self):
        rng = random.Random("wmaxsat-brute")
        checked = 0
        while checked < 15:
            n = rng.randint(4, 6)
            nterms = rng.randint(1, 3)
            p = random_poly(rng, n, nterms, allow_constant=False)
            if not p.cubic_terms() and not p.quartic_terms():
                continue
            inst = build_wmaxsat(p)
            if inst.num_vars > 18:
                continue
            result = solve_wmaxsat_exact(inst)
            assert result.proven_optimal
            assert result.cost == brute_force_minimum(p, inst)
            checked += 1

    def test_cubic_only_agrees_with_cover_ilp(self):
        rng = random.Random("wmaxsat-vs-ilp")
        for _ in range(10):
            n = rng.randint(4, 7)
            lam = rng.randint(1, min(8, n * (n - 1) * (n - 2) // 6))
            terms = rng.sample(sorted(combinations(range(1, n + 1), 3)), lam)
            p = poly_of(n, {t: 1 for t in terms})
            sat = solve_wmaxsat_exact(build_wmaxsat(p))
            ilp = solve_ilp_exact(set_cover_to_ilp(build_set_cover(p)))
            assert sat.proven_optimal and ilp.proven_optimal
            assert sat.cost == ilp.cost

    def test_budget_exhaustion_keeps_feasible_incumbent(self):
        p = poly_of(6, {t: 1 for t in combinations(range(1, 7), 4)})
        inst = build_wmaxsat(p)
        result = solve_wmaxsat_exact(inst, node_budget=1)
        assert not result.proven_optimal
        assert selection_satisfies(inst, result.selection)
        # the search never reached a leaf, so the greedy selection stands in
        # for "every selector on" (35); the optimum is 8
        assert result.selection == greedy_selection(inst)
        assert (inst.num_vars, result.cost) == (35, 10)
        assert solve_wmaxsat_exact(inst).cost == 8

    def test_greedy_selection_is_feasible(self):
        rng = random.Random("wmaxsat-greedy")
        for _ in range(30):
            inst = build_wmaxsat(random_quartic(rng, rng.randint(4, 8)))
            greedy = greedy_selection(inst)
            assert selection_satisfies(inst, greedy)
            assert solve_wmaxsat_exact(inst).cost <= len(greedy) < inst.num_vars

    def test_greedy_selection_ties_and_dead_ends(self):
        # selectors 1 and 2 each fix the one clause: the tie goes to 1
        inst = WmaxsatInstance(((1, 2), (1, 3)), (), ((1, 2),))
        assert greedy_selection(inst) == frozenset({1})
        # switching 1 on breaks (-1,), which has no positive literal to fix it
        inst = WmaxsatInstance(((1, 2), (1, 3)), (), ((1, 2), (-1,)))
        assert greedy_selection(inst) is None

    def test_deterministic(self):
        p = poly_of(5, {(1, 2, 3, 4): 2, (2, 3, 4, 5): -1, (1, 2, 5): 3})
        inst = build_wmaxsat(p)
        assert solve_wmaxsat_exact(inst) == solve_wmaxsat_exact(inst)


class TestDecode:
    def test_matching_solution_has_no_triples(self):
        inst = build_wmaxsat(SINGLE_QUARTIC)
        selection = frozenset({inst.index_of((1, 2)), inst.index_of((3, 4))})
        pairs, via = decode_ancilla_set(inst, selection)
        assert pairs == [(1, 2), (3, 4)]
        assert via == {}

    def test_triple_gets_lexicographic_base_on_ties(self):
        inst = build_wmaxsat(SINGLE_QUARTIC)
        selection = frozenset(
            {
                inst.index_of((1, 2)),
                inst.index_of((2, 3)),
                inst.index_of((1, 2, 3)),
            }
        )
        _, via = decode_ancilla_set(inst, selection)
        assert via == {(1, 2, 3): (1, 2)}

    def test_base_prefers_shared_pairs(self):
        p = poly_of(5, {(1, 2, 3, 4): 1, (1, 2, 3, 5): 1})
        inst = build_wmaxsat(p)
        selection = frozenset(
            {
                inst.index_of((1, 2)),
                inst.index_of((2, 3)),
                inst.index_of((1, 2, 3)),
                inst.index_of((2, 3, 5)),
            }
        )
        # (1,2,3) can sit on (1,2) or (2,3); (2,3) also carries (2,3,5),
        # so the sharing preference beats the lexicographic default (1,2).
        _, via = decode_ancilla_set(inst, selection)
        assert via[(1, 2, 3)] == (2, 3)
        assert via[(2, 3, 5)] == (2, 3)

    def test_triple_without_subpair_rejected(self):
        inst = build_wmaxsat(SINGLE_QUARTIC)
        selection = frozenset({inst.index_of((1, 2, 3))})
        with pytest.raises(PuboError):
            decode_ancilla_set(inst, selection)


class TestApply:
    def test_disjoint_pair_reduction(self):
        inst = build_wmaxsat(SINGLE_QUARTIC)
        selection = frozenset({inst.index_of((1, 2)), inst.index_of((3, 4))})
        reduced = apply_quartic_plan(SINGLE_QUARTIC, inst, selection)
        assert reduced.ancilla_count() == 2
        assert [d.describe() for d in reduced.registry] == [
            "pair(1,2)",
            "pair(3,4)",
        ]
        # unit coefficient: both penalty scales are 1 + 1 = 2
        from puboforge.poly import avar

        assert reduced.quadratic.coefficient((avar(0),)) == 6
        assert reduced.quadratic.coefficient((avar(1),)) == 6
        assert pointwise_matches(SINGLE_QUARTIC, reduced)

    def test_chained_triple_reduction(self):
        inst = build_wmaxsat(SINGLE_QUARTIC)
        selection = frozenset({inst.index_of((1, 2)), inst.index_of((1, 2, 3))})
        reduced = apply_quartic_plan(SINGLE_QUARTIC, inst, selection)
        assert [d.describe() for d in reduced.registry] == [
            "pair(1,2)",
            "triple(1,2,3) via (1,2)",
        ]
        assert pointwise_matches(SINGLE_QUARTIC, reduced)

    def test_signed_group_deltas_hand_worked(self):
        # 5 x1x2x3 rides on z0 = pair (1,2); -3 x1x2x4x5 chains through
        # z1 = triple (1,2,4) via (1,2), so it is in both groups.
        # Pair group {5, -3}: delta 1 + max(5, 3) = 6 (1 + |5| + |-3| = 9
        # by the absolute rule).  Triple group {-3}: delta 4.
        p = poly_of(5, {(1, 2, 3): 5, (1, 2, 4, 5): -3})
        inst = build_wmaxsat(p)
        selection = frozenset({inst.index_of((1, 2)), inst.index_of((1, 2, 4))})
        reduced = apply_quartic_plan(p, inst, selection)
        assert [d.describe() for d in reduced.registry] == [
            "pair(1,2)",
            "triple(1,2,4) via (1,2)",
        ]
        x1, x2, x3, x4, x5, z0, z1 = (*(xvar(i) for i in range(1, 6)), avar(0), avar(1))
        expected = {
            (z0, x3): 5,
            (z1, x5): -3,
            # 6 * (3 z0 + x1 x2 - 2 x1 z0 - 2 x2 z0)
            (z0,): 18, (x1, x2): 6, (x1, z0): -12, (x2, z0): -12,
            # 4 * (3 z1 + z0 x4 - 2 z0 z1 - 2 x4 z1)
            (z1,): 12, (z0, x4): 4, (z0, z1): -8, (x4, z1): -8,
        }
        assert dict(reduced.quadratic.terms) == {monomial(m): c for m, c in expected.items()}
        assert verify_reduction(p, reduced).ok
        for _, x in computational_assignments(5):
            assert strictly_dominant(reduced, x)

    def test_intended_ancillas_strictly_dominant(self):
        # All-on, chained and solver selections; products of two pair
        # ancillas and chained triples must both occur.
        rng = random.Random("wmaxsat-dominance")
        checked = chains = pair_products = 0
        for i in range(1000):
            p = random_quartic(rng, rng.randint(4, 7), coeffs=(-8, -3, -1, 1, 2, 5, 8))
            inst = build_wmaxsat(p)
            selection = (
                frozenset(range(1, inst.num_vars + 1)),
                chain_selection(rng, p, inst),
                solve_wmaxsat_exact(inst, 2000).selection,
            )[i % 3]
            if len(selection) > 11:
                continue
            reduced = apply_quartic_plan(p, inst, selection)
            for _, x in computational_assignments(p.n):
                assert strictly_dominant(reduced, x), (p, sorted(selection), x)
            chains += any(isinstance(d, TripleAncilla) for d in reduced.registry)
            pair_products += any(
                len(m) == 2 and all(v.is_ancilla and isinstance(reduced.registry.definition(v.index), PairAncilla) for v in m)
                for m, _ in reduced.quadratic
            )
            checked += 1
            if checked == 200:
                break
        assert checked == 200
        assert chains >= 50 and pair_products >= 50

    def test_insufficient_selection_names_cubic_term(self):
        p = poly_of(3, {(1, 2, 3): 1})
        inst = build_wmaxsat(p)
        with pytest.raises(PuboError, match=r"\(1, 2, 3\)"):
            apply_quartic_plan(p, inst, frozenset())

    def test_insufficient_selection_names_quartic_term(self):
        inst = build_wmaxsat(SINGLE_QUARTIC)
        selection = frozenset({inst.index_of((1, 2))})
        with pytest.raises(PuboError, match=r"\(1, 2, 3, 4\)"):
            apply_quartic_plan(SINGLE_QUARTIC, inst, selection)

    def test_mixed_instances_pass_oracle(self):
        rng = random.Random("wmaxsat-apply")
        checked = 0
        while checked < 12:
            n = rng.randint(4, 6)
            p = random_poly(rng, n, rng.randint(1, 4), allow_constant=False)
            if not p.cubic_terms() and not p.quartic_terms():
                continue
            inst = build_wmaxsat(p)
            result = solve_wmaxsat_exact(inst)
            reduced = apply_quartic_plan(p, inst, result.selection)
            if reduced.total_variables() > 20:
                continue
            report = verify_reduction(p, reduced)
            assert report.ok, (p, report.counterexample)
            checked += 1


class TestWcnfFormat:
    def test_single_cubic_golden(self):
        inst = build_wmaxsat(poly_of(3, {(1, 2, 3): 1}))
        assert emit_wcnf(inst) == (
            "p wcnf 3 4 4\n"
            "c var 1 = pair 1 2\n"
            "c var 2 = pair 1 3\n"
            "c var 3 = pair 2 3\n"
            "4 1 2 3 0\n"
            "1 -1 0\n"
            "1 -2 0\n"
            "1 -3 0\n"
        )

    def test_quartic_roundtrip(self):
        inst = build_wmaxsat(poly_of(5, {(1, 2, 3, 4): 2, (2, 4, 5): -3}))
        text = emit_wcnf(inst)
        back = parse_wcnf(text)
        assert back == inst
        assert emit_wcnf(back) == text

    def test_soft_clauses_must_be_the_derived_ones(self):
        text = emit_wcnf(SINGLE_QUARTIC_INSTANCE)
        lines = text.splitlines()
        first_soft = next(i for i, line in enumerate(lines, start=1) if line.startswith("1 -"))
        flipped = "\n".join(line.replace("1 -", "1 ", 1) if line.startswith("1 -") else line for line in lines)
        with pytest.raises(ParseError) as err:
            parse_wcnf(flipped)
        assert err.value.line == first_soft
        doubled = text.replace("1 -2 0\n", "1 -1 0\n")
        with pytest.raises(ParseError) as err:
            parse_wcnf(doubled)
        assert err.value.line == first_soft + 1
        missing = text.replace("1 -10 0\n", "").replace("p wcnf 10 22 11", "p wcnf 10 21 11")
        with pytest.raises(ParseError, match="10 selectors but 9 soft clauses"):
            parse_wcnf(missing)

    def test_top_must_be_selectors_plus_one(self):
        text = emit_wcnf(SINGLE_QUARTIC_INSTANCE)
        with pytest.raises(ParseError) as err:
            parse_wcnf(text.replace("p wcnf 10 22 11", "p wcnf 10 22 99").replace("\n11 ", "\n99 "))
        assert err.value.line == 1

    def test_soft_clauses_in_any_order(self):
        lines = emit_wcnf(SINGLE_QUARTIC_INSTANCE).splitlines()
        hard = [line for line in lines if not line.startswith("1 -")]
        soft = [line for line in lines if line.startswith("1 -")]
        assert parse_wcnf("\n".join(hard + soft[::-1]) + "\n") == SINGLE_QUARTIC_INSTANCE

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_wcnf("c var 1 = pair 1 2\n1 -1 0\n")

    def test_clause_before_header(self):
        with pytest.raises(ParseError):
            parse_wcnf("1 -1 0\np wcnf 1 1 2\n")

    def test_unsupported_weight(self):
        with pytest.raises(ParseError):
            parse_wcnf("p wcnf 1 1 5\nc var 1 = pair 1 2\n3 1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError):
            parse_wcnf("p wcnf 1 1 2\nc var 1 = pair 1 2\n2 1 4 0\n")

    def test_comments_out_of_order(self):
        bad = (
            "p wcnf 2 2 3\n"
            "c var 1 = triple 1 2 3\n"
            "c var 2 = pair 1 2\n"
            "3 1 0\n1 -1 0\n"
        )
        with pytest.raises(ParseError):
            parse_wcnf(bad)


class TestModelReading:
    def test_reads_signed_literals(self):
        assert parse_model("v 1 -2 3 0\n") == frozenset({1, 3})

    def test_skips_status_lines(self):
        text = "c solver log\ns OPTIMUM FOUND\no 2\nv -1 2\nv 3 -4 0\n"
        assert parse_model(text) == frozenset({2, 3})

    def test_no_values_rejected(self):
        with pytest.raises(PuboError):
            parse_model("c nothing here\n")

    def test_model_validation(self):
        inst = build_wmaxsat(SINGLE_QUARTIC)
        good = frozenset({inst.index_of((1, 3)), inst.index_of((2, 4))})
        assert selection_from_model(inst, good) == good
        with pytest.raises(PuboError):
            selection_from_model(inst, frozenset({inst.index_of((1, 2))}))
        with pytest.raises(PuboError):
            selection_from_model(inst, frozenset({99}))
