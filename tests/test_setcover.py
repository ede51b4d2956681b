"""Minimum-ancilla planning: cover construction, exact ILP, greedy, saturation."""

import functools
import operator
import random
from itertools import combinations

import pytest

from puboforge.gadgets import GadgetMode, PlanError, apply_plan
from puboforge.poly import PuboError, parse_polynomial
from puboforge.setcover import (
    SetCoverInstance,
    build_set_cover,
    cover_bound,
    emit_lp,
    mantel_construction,
    plan_from_cover,
    quarter_squares,
    reduce_min_greedy,
    set_cover_to_ilp,
    solve_ilp_exact,
)
from util import pointwise_matches, poly_of, random_cubic_poly

WORKED = parse_polynomial(
    """p pubo 5
1 1 2 3
1 1 4 5
1 2 3 5
"""
)


def brute_force_cover_minimum(sc):
    """Smallest number of candidates covering every row, by subset enumeration.

    Coverage comes from subset tests on the terms and pairs themselves, not
    from the instance's coverage masks.
    """
    for size in range(0, len(sc.candidates) + 1):
        for subset in combinations(sc.candidates, size):
            if all(any(set(p) <= set(t) for p in subset) for t in sc.universe):
                return size
    raise AssertionError("no cover found")


class TestCoverConstruction:
    def test_worked_example_candidates(self):
        sc = build_set_cover(WORKED)
        assert sc.universe == ((1, 2, 3), (1, 4, 5), (2, 3, 5))
        assert len(sc.candidates) == 8
        assert set(sc.candidates) == {
            (1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5), (2, 5), (3, 5),
        }

    def test_each_term_covered_by_its_three_pairs(self):
        sc = build_set_cover(WORKED)
        assert set_cover_to_ilp(sc) is sc
        for i, t in enumerate(sc.universe):
            owners = [p for p, mask in zip(sc.candidates, sc.covers) if mask >> i & 1]
            assert owners == list(combinations(t, 2))

    def test_degree_four_rejected(self):
        with pytest.raises(Exception):
            build_set_cover(poly_of(4, {(1, 2, 3, 4): 1}))


class TestExactIlp:
    def test_worked_example_minimum_two(self):
        sc = build_set_cover(WORKED)
        result = solve_ilp_exact(set_cover_to_ilp(sc))
        assert result.proven_optimal
        assert result.cost == 2
        assert result.cost == brute_force_cover_minimum(sc)

    def test_worked_example_plan(self):
        sc = build_set_cover(WORKED)
        selection = tuple(
            1 if p in {(2, 3), (4, 5)} else 0 for p in sc.candidates
        )
        plan = plan_from_cover(sc, selection, WORKED)
        assert plan.assignments == {
            (2, 3): frozenset({1, 5}),
            (4, 5): frozenset({1}),
        }
        reduced = apply_plan(WORKED, plan)
        assert reduced.ancilla_count() == 2
        assert pointwise_matches(WORKED, reduced)

    def test_single_term(self):
        p = poly_of(3, {(1, 2, 3): -7})
        result = solve_ilp_exact(set_cover_to_ilp(build_set_cover(p)))
        assert (result.cost, result.proven_optimal) == (1, True)

    def test_empty_universe(self):
        p = poly_of(3, {(1, 2): 1})
        result = solve_ilp_exact(set_cover_to_ilp(build_set_cover(p)))
        assert (result.cost, result.proven_optimal) == (0, True)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random("setcover-brute")
        for _ in range(40):
            n = rng.randint(4, 7)
            lam = rng.randint(1, 6)
            p = random_cubic_poly(rng, n, min(lam, len(list(combinations(range(n), 3)))))
            sc = build_set_cover(p)
            if len(sc.candidates) > 20:
                continue
            result = solve_ilp_exact(set_cover_to_ilp(sc))
            assert result.proven_optimal
            assert result.cost == brute_force_cover_minimum(sc)

    def test_budget_exhaustion_returns_feasible_incumbent(self):
        p = poly_of(8, {t: 1 for t in combinations(range(1, 9), 3)})
        sc = build_set_cover(p)
        result = solve_ilp_exact(set_cover_to_ilp(sc), node_budget=3)
        assert not result.proven_optimal
        covered = 0
        for mask, v in zip(sc.covers, result.selection):
            if v:
                covered |= mask
        assert covered == (1 << len(sc.universe)) - 1
        assert result.cost >= quarter_squares(8)

    def test_uncoverable_row_rejected(self):
        with pytest.raises(PuboError, match="uncoverable row"):
            solve_ilp_exact(SetCoverInstance(((1, 2, 3), (4, 5, 6)), ((1, 2), (1, 3)), (0b01, 0b01)))

    def test_incomplete_selection_names_first_uncovered_term(self):
        sc = build_set_cover(WORKED)
        selection = tuple(1 if p == (4, 5) else 0 for p in sc.candidates)
        with pytest.raises(PlanError, match=r"cubic term \(1, 2, 3\)"):
            plan_from_cover(sc, selection, WORKED)

    def test_determinism(self):
        sc = build_set_cover(WORKED)
        a = solve_ilp_exact(set_cover_to_ilp(sc))
        b = solve_ilp_exact(set_cover_to_ilp(sc))
        assert a == b


def residual_cover_minimum(columns, uncovered, banned):
    """Fewest allowed columns covering the nonzero ``uncovered``, by subset
    enumeration (None when the allowed columns cannot cover it)."""
    allowed = [mask & uncovered for j, mask in enumerate(columns) if not banned >> j & 1]
    for size in range(1, len(allowed) + 1):
        for subset in combinations(allowed, size):
            if functools.reduce(operator.or_, subset) == uncovered:
                return size
    return None


class TestCoverBound:
    """`cover_bound` at random search states of small covers, against the
    brute-force residual minimum and the bound it replaced."""

    def states(self):
        rng = random.Random("cover-bound")
        # The search keeps `single` and `dead` exact on uncovered rows only;
        # covered rows carry stale bits, which the bound must ignore.
        stale = random.Random("cover-bound:stale")
        for _ in range(250):
            n = rng.randint(4, 7)
            lam = rng.randint(2, min(12, len(list(combinations(range(n), 3)))))
            sc = build_set_cover(random_cubic_poly(rng, n, lam))
            if len(sc.candidates) > 18:
                continue
            nrows = len(sc.universe)
            for _ in range(6):
                uncovered = rng.randrange(1, 1 << nrows)
                banned = sum(1 << j for j in range(len(sc.covers)) if rng.random() < 0.35)
                # A banned column's gain is 0 when it is banned, and falls by
                # one for each of its rows covered after that.
                gains = [
                    -rng.randint(0, (mask & ~uncovered).bit_count()) if banned >> j & 1
                    else (mask & uncovered).bit_count()
                    for j, mask in enumerate(sc.covers)
                ]
                allowed = [sum(1 << j for j, mask in enumerate(sc.covers) if mask >> i & 1 and not banned >> j & 1) for i in range(nrows)]
                single = sum(1 << i for i, cands in enumerate(allowed) if cands.bit_count() == 1)
                dead = sum(1 << i for i, cands in enumerate(allowed) if not cands)
                single |= stale.getrandbits(nrows) & ~uncovered
                dead |= stale.getrandbits(nrows) & ~uncovered
                yield sc.covers, nrows, uncovered, banned, single, dead, gains

    def test_bound_is_valid_and_never_weaker_than_the_old_one(self):
        tight = clipped = pruned = 0
        for columns, nrows, uncovered, banned, single, dead, gains in self.states():
            row_cols = [[j for j, mask in enumerate(columns) if mask >> i & 1] for i in range(nrows)]
            row_cands = [sum(1 << j for j in cols) for cols in row_cols]
            bound, forced = cover_bound(uncovered, single, dead, nrows + 2, gains, columns, row_cols)
            minimum = residual_cover_minimum(columns, uncovered, banned)
            if minimum is None:
                assert bound > nrows
                pruned += 1
                continue
            # Recomputed from the masks: the old bound (the uncovered rows
            # over the best gain, and the greedy packing of rows with
            # disjoint candidate sets), the single-candidate rows, and reach.
            cmax = max((mask & uncovered).bit_count() for j, mask in enumerate(columns) if not banned >> j & 1)
            taken = packing = reach = 0
            singles = []
            for i in range(nrows):
                cands = row_cands[i] & ~banned
                if uncovered >> i & 1 and cands & (cands - 1) == 0:
                    singles.append(cands.bit_length() - 1)
                if uncovered >> i & 1 and cands & taken == 0:
                    taken, packing = taken | cands, packing + 1
                    reach += max((columns[j] & uncovered).bit_count() for j in row_cols[i] if cands >> j & 1)
            assert max(-(-uncovered.bit_count() // cmax), packing) <= bound <= minimum
            assert bound == packing + -(-max(0, uncovered.bit_count() - reach) // cmax)
            assert forced == (singles[0] if singles else -1)
            tight += bound == minimum
            clipped += reach > uncovered.bit_count()
            # The packing stops once it reaches the limit: the value is then
            # the limit, and below the limit it is the full bound.
            for limit in range(1, bound + 2):
                early = cover_bound(uncovered, single, dead, limit, gains, columns, row_cols)
                assert (early[0] >= limit) == (bound >= limit)
                if bound < limit:
                    assert early == (bound, forced)
                else:
                    assert early[0] == (limit if packing >= limit else bound)
        # Enough tight, clipped and uncoverable states that a bound one too
        # high, a dropped clip or a missed prune fails above.
        assert tight > 1000 and clipped > 100 and pruned > 100


class TestReduceMin:
    def test_picks_most_popular_pair_first(self):
        plan = reduce_min_greedy(WORKED)
        # (2,3) sits in two of the three terms and claims both of them.
        assert plan.assignments[(2, 3)] == frozenset({1, 5})
        assert plan.assignments[(1, 4)] == frozenset({5})
        assert plan.ancilla_count() == 2

    def test_never_beats_exact(self):
        rng = random.Random("sandwich")
        for _ in range(30):
            n = rng.randint(4, 7)
            lam = rng.randint(1, min(8, len(list(combinations(range(n), 3)))))
            p = random_cubic_poly(rng, n, lam)
            sc = build_set_cover(p)
            exact = solve_ilp_exact(set_cover_to_ilp(sc))
            greedy = reduce_min_greedy(p)
            assert exact.cost <= greedy.ancilla_count()
            if len(sc.candidates) <= 18:
                assert brute_force_cover_minimum(sc) == exact.cost

    def test_reductions_verify(self):
        rng = random.Random("reducemin-oracle")
        for _ in range(10):
            n = rng.randint(4, 5)
            lam = rng.randint(1, min(5, len(list(combinations(range(n), 3)))))
            p = random_cubic_poly(rng, n, lam)
            reduced = apply_plan(p, reduce_min_greedy(p))
            assert pointwise_matches(p, reduced)


class TestSaturation:
    def test_quarter_squares_values(self):
        expected = {2: 0, 3: 1, 4: 2, 5: 4, 6: 6, 7: 9, 8: 12, 11: 25, 12: 30}
        for n, value in expected.items():
            assert quarter_squares(n) == value

    def test_quarter_squares_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            quarter_squares(1)

    def test_mantel_small(self):
        assert mantel_construction(4) == ((1, 2), (3, 4))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_mantel_covers_every_triple(self, n):
        pairs = set(mantel_construction(n))
        for t in combinations(range(1, n + 1), 3):
            assert any(set(p) <= set(t) for p in pairs), t

    @pytest.mark.parametrize("n", range(2, 13))
    def test_mantel_size_attains_bound(self, n):
        assert len(mantel_construction(n)) == quarter_squares(n)

    @pytest.mark.parametrize("n", [5, 6])
    def test_complete_cubic_set_saturates(self, n):
        p = poly_of(n, {t: 1 for t in combinations(range(1, n + 1), 3)})
        result = solve_ilp_exact(set_cover_to_ilp(build_set_cover(p)))
        assert result.proven_optimal
        assert result.cost == quarter_squares(n)


class TestLpFormat:
    def test_worked_example_golden(self):
        p = poly_of(3, {(1, 2, 3): 1})
        text = emit_lp(build_set_cover(p))
        assert text == (
            "/* minimum-ancilla set cover: 1 terms, 3 candidate pairs */\n"
            "/* v1 = pair 1 2 */\n"
            "/* v2 = pair 1 3 */\n"
            "/* v3 = pair 2 3 */\n"
            "min: +v1 +v2 +v3;\n"
            "cover_1: +v1 +v2 +v3 >= 1;\n"
            "binary v1,v2,v3;\n"
        )

    def test_constraint_count(self):
        text = emit_lp(build_set_cover(WORKED))
        assert text.count(">= 1;") == 3
        assert text.count("/* v") == 8
