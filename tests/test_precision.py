"""Precision-aware grouping: cost function, greedy planner, baseline."""

import random

from puboforge.gadgets import GadgetMode, apply_plan, max_introduced_coefficient
from puboforge.precision import arbitrary_plan, cost_w, greedy_precision_plan
from util import pointwise_matches, poly_of, random_cubic_poly


def state_for(poly, assignments=None):
    """cost_w's leading arguments: the polynomial and the routing so far."""
    return poly, {pair: set(ks) for pair, ks in (assignments or {}).items()}


class TestCostW:
    def test_fresh_pair(self):
        # delta for a lone +5 term is 6; the penalty coefficient 3*6 dominates
        p = poly_of(3, {(1, 2, 3): 5})
        state = state_for(p)
        assert cost_w(*state, (1, 2, 3), (1, 2)) == 18

    def test_prior_group_and_pair_coefficient(self):
        p = poly_of(4, {(1, 2, 3): -3, (1, 2, 4): -2, (1, 2): 1})
        state = state_for(p, {(1, 2): {3}})
        # group becomes {-3, -2}: delta 6; max(18, |1 + 6|) = 18
        assert cost_w(*state, (1, 2, 4), (1, 2)) == 18

    def test_mixed_signs_cancel(self):
        p = poly_of(4, {(1, 2, 3): -4, (1, 2, 4): 4})
        state = state_for(p, {(1, 2): {3}})
        # group {-4, 4}: delta 5; max(15, |0 + 5|) = 15
        assert cost_w(*state, (1, 2, 4), (1, 2)) == 15

    def test_duplicate_coefficients_both_count(self):
        p = poly_of(4, {(1, 2, 3): 3, (1, 2, 4): 3})
        state = state_for(p, {(1, 2): {3}})
        # group {3, 3}: delta 7, not the 4 a set of values would give
        assert cost_w(*state, (1, 2, 4), (1, 2)) == 21

    def test_large_pair_coefficient_can_dominate(self):
        p = poly_of(3, {(1, 2, 3): 1, (1, 2): 20})
        state = state_for(p)
        # delta 2: max(6, |20 + 2|) = 22
        assert cost_w(*state, (1, 2, 3), (1, 2)) == 22


class TestGreedyPlanner:
    def test_single_term_lexicographic(self):
        p = poly_of(3, {(1, 2, 3): 5})
        plan = greedy_precision_plan(p)
        assert plan.assignments == {(1, 2): frozenset({3})}

    def test_deterministic(self):
        rng = random.Random("greedy-determinism")
        for _ in range(5):
            p = random_cubic_poly(rng, 7, 10, quadratic_layer=True)
            first = greedy_precision_plan(p)
            second = greedy_precision_plan(p)
            assert first.assignments == second.assignments
            assert first.deltas == second.deltas

    def test_covers_every_term_once(self):
        rng = random.Random("greedy-validity")
        for _ in range(20):
            n = rng.randint(4, 8)
            lam = rng.randint(1, min(10, n * (n - 1) * (n - 2) // 6))
            p = random_cubic_poly(rng, n, lam, quadratic_layer=rng.random() < 0.5)
            plan = greedy_precision_plan(p)
            covered = {
                tuple(sorted(pair + (k,)))
                for pair, ks in plan.assignments.items()
                for k in ks
            }
            assert covered == set(p.cubic_terms())

    def test_no_worse_than_stacking_opposite_signs(self):
        p = poly_of(4, {(1, 2, 3): 4, (1, 2, 4): -4})
        from puboforge.gadgets import ReductionPlan

        shared = ReductionPlan.from_assignment(
            p, {(1, 2): {3, 4}}, GadgetMode.SINGLE
        )
        greedy = greedy_precision_plan(p)
        assert max_introduced_coefficient(greedy, p) <= max_introduced_coefficient(
            shared, p
        )

    def test_reduction_is_exact(self):
        rng = random.Random("greedy-oracle")
        for mode in (GadgetMode.SINGLE, GadgetMode.TRIPLE):
            for _ in range(5):
                p = random_cubic_poly(rng, 5, 4, quadratic_layer=True)
                reduced = apply_plan(p, greedy_precision_plan(p, mode))
                assert pointwise_matches(p, reduced)

    def test_empty_cubic_layer(self):
        p = poly_of(4, {(1, 2): 3})
        plan = greedy_precision_plan(p)
        assert plan.assignments == {}
        assert plan.ancilla_count() == 0


class TestArbitraryBaseline:
    def test_seed_reproducible(self):
        rng = random.Random("baseline")
        p = random_cubic_poly(rng, 8, 12)
        assert arbitrary_plan(p, seed=5).assignments == arbitrary_plan(p, seed=5).assignments

    def test_seeds_differ(self):
        rng = random.Random("baseline-differ")
        p = random_cubic_poly(rng, 9, 20)
        plans = {
            tuple(sorted(arbitrary_plan(p, seed=s).assignments.items()))
            for s in range(6)
        }
        assert len(plans) > 1

    def test_reduction_is_exact(self):
        rng = random.Random("baseline-oracle")
        p = random_cubic_poly(rng, 5, 5, quadratic_layer=True)
        reduced = apply_plan(p, arbitrary_plan(p, seed=1))
        assert pointwise_matches(p, reduced)


class TestDominance:
    def test_greedy_beats_baseline_on_average(self):
        rng = random.Random("dominance")
        greedy_total = baseline_total = 0
        for i in range(6):
            p = random_cubic_poly(rng, 11, 50, quadratic_layer=True)
            greedy_total += max_introduced_coefficient(greedy_precision_plan(p), p)
            baseline_total += max_introduced_coefficient(arbitrary_plan(p, seed=i), p)
        assert greedy_total < baseline_total
