"""Gadget layer: penalty function, deltas, splits, plan application, .qubo."""

import random
from itertools import combinations

import pytest

from puboforge.gadgets import (
    GadgetMode,
    PairAncilla,
    PlanError,
    ReducedInstance,
    ReductionPlan,
    apply_plan,
    beta_split,
    delta_for_group,
    emit_qubo,
    exhaustive_penalty_search,
    parse_qubo,
    penalty_s,
    verify_penalty_minimality,
)
from puboforge.poly import ParseError, Polynomial, avar, xvar
from util import (
    computational_assignments,
    max_introduced_coefficient,
    pointwise_matches,
    poly_of,
    random_cubic_poly,
    strictly_dominant,
)


# ---------------------------------------------------------------------------
# Penalty function
# ---------------------------------------------------------------------------


class TestPenalty:
    def test_truth_table(self):
        s = penalty_s(xvar(1), xvar(2), avar(0), 2)
        expected = {
            (0, 0, 0): 0,
            (0, 1, 0): 0,
            (1, 0, 0): 0,
            (1, 1, 1): 0,
            (0, 0, 1): 3,
            (0, 1, 1): 1,
            (1, 0, 1): 1,
            (1, 1, 0): 1,
        }
        for (x, y, z), value in expected.items():
            got = s.evaluate({xvar(1): x, xvar(2): y, avar(0): z})
            assert got == value, (x, y, z)

    def test_zero_exactly_when_conjunction_holds(self):
        s = penalty_s(xvar(1), xvar(2), avar(0), 2)
        for x in (0, 1):
            for y in (0, 1):
                for z in (0, 1):
                    v = s.evaluate({xvar(1): x, xvar(2): y, avar(0): z})
                    if z == x * y:
                        assert v == 0
                    else:
                        assert v >= 1

    def test_distinct_variables_required(self):
        with pytest.raises(ValueError):
            penalty_s(xvar(1), xvar(1), avar(0), 2)

    def test_minimality_is_three(self):
        assert verify_penalty_minimality() == 3

    def test_search_finds_canonical_penalty(self):
        result = exhaustive_penalty_search(bound=6)
        assert result.min_max_coeff == 3
        # coefficient order: (x, y, z, xy, xz, yz)
        assert (0, 0, 3, 1, -2, -2) in result.optima

    def test_no_valid_penalty_with_small_coefficients(self):
        assert exhaustive_penalty_search(bound=2).min_max_coeff is None


# ---------------------------------------------------------------------------
# Penalty scale and coefficient splitting
# ---------------------------------------------------------------------------


class TestDeltaAndSplit:
    def test_delta_examples(self):
        assert delta_for_group([5]) == 6
        assert delta_for_group([3, -2]) == 4
        assert delta_for_group([-1, -1]) == 3
        assert delta_for_group([4, -4]) == 5

    def test_delta_empty_group_rejected(self):
        with pytest.raises(ValueError):
            delta_for_group([])

    def test_beta_split_examples(self):
        assert beta_split(6) == (2, 2, 2)
        assert beta_split(7) == (3, 2, 2)
        assert beta_split(5) == (2, 2, 1)
        assert beta_split(-4) == (-1, -1, -2)
        assert beta_split(1) == (1, 0, 0)

    def test_beta_split_conserves_and_stays_close(self):
        for alpha in range(-100, 101):
            parts = beta_split(alpha)
            assert sum(parts) == alpha
            assert max(parts) - min(parts) <= 1
            third = alpha / 3
            assert all(abs(p - third) < 1 for p in parts)


# ---------------------------------------------------------------------------
# Single-term reduction
# ---------------------------------------------------------------------------


def reduce_one_term(alpha):
    """alpha*x1*x2*x3 reduced on pair (1, 2): a one-term group, delta 1+|alpha|."""
    p = poly_of(3, {(1, 2, 3): alpha})
    return apply_plan(p, ReductionPlan.from_assignment(p, {(1, 2): {3}})).quadratic


class TestSingleTerm:
    def test_expansion_alpha_two(self):
        z = avar(0)
        reduced = reduce_one_term(2)
        expected = {
            (z, xvar(3)): 2,
            (z,): 9,
            (xvar(1), xvar(2)): 3,
            (xvar(1), z): -6,
            (xvar(2), z): -6,
        }
        assert dict(reduced) == {
            tuple(sorted(k)): v for k, v in expected.items()
        }

    @pytest.mark.parametrize("alpha", [-3, -2, -1, 1, 2, 3])
    def test_min_over_ancilla_recovers_cubic(self, alpha):
        z = avar(0)
        reduced = reduce_one_term(alpha)
        for bits, x in computational_assignments(3):
            best = None
            for zb in (0, 1):
                full = dict(x)
                full[z] = zb
                v = reduced.evaluate(full)
                best = v if best is None or v < best else best
            assert best == alpha * bits[0] * bits[1] * bits[2]


# ---------------------------------------------------------------------------
# Plans and their application
# ---------------------------------------------------------------------------


class TestApplyPlan:
    def test_single_mode_small(self):
        p = poly_of(3, {(1, 2, 3): 4, (1, 2): -1, (3,): 2})
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3}}, GadgetMode.SINGLE)
        assert plan.deltas == {((1, 2), 1): 5}
        reduced = apply_plan(p, plan)
        assert reduced.ancilla_count() == 1
        assert reduced.quadratic.degree() <= 2
        assert pointwise_matches(p, reduced)

    def test_triple_mode_splits_coefficient(self):
        p = poly_of(3, {(1, 2, 3): 3})
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3}}, GadgetMode.TRIPLE)
        # coefficient 3 splits into 1+1+1; each copy's delta is 1+1=2
        assert plan.deltas == {((1, 2), m): 2 for m in (1, 2, 3)}
        reduced = apply_plan(p, plan)
        assert reduced.ancilla_count() == 3
        assert pointwise_matches(p, reduced)
        assert max_introduced_coefficient(plan, p) == 6

    def test_grouped_terms_share_one_ancilla(self):
        p = poly_of(4, {(1, 2, 3): 2, (1, 2, 4): -3})
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3, 4}}, GadgetMode.SINGLE)
        assert plan.deltas == {((1, 2), 1): 4}
        reduced = apply_plan(p, plan)
        assert reduced.ancilla_count() == 1
        assert pointwise_matches(p, reduced)

    def test_validate_returns_the_cubic_terms(self, monkeypatch):
        # Planning and applying a plan build the cubic term dict once each.
        p = poly_of(4, {(1, 2, 3): 2, (1, 2, 4): -3})
        calls = []
        cubic_terms = Polynomial.cubic_terms
        monkeypatch.setattr(Polynomial, "cubic_terms", lambda self: calls.append(1) or cubic_terms(self))
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3, 4}}, GadgetMode.SINGLE)
        apply_plan(p, plan)
        assert len(calls) == 2
        assert plan.validate(p) == {(1, 2, 3): 2, (1, 2, 4): -3}

    def test_plan_must_cover_every_cubic_term(self):
        p = poly_of(4, {(1, 2, 3): 1, (2, 3, 4): 1})
        with pytest.raises(PlanError):
            ReductionPlan.from_assignment(p, {(1, 2): {3}}, GadgetMode.SINGLE)

    def test_plan_rejects_double_coverage(self):
        p = poly_of(3, {(1, 2, 3): 1})
        with pytest.raises(PlanError):
            ReductionPlan.from_assignment(
                p, {(1, 2): {3}, (1, 3): {2}}, GadgetMode.SINGLE
            )

    def test_plan_rejects_pair_outside_any_term(self):
        p = poly_of(4, {(1, 2, 3): 1})
        with pytest.raises(PlanError):
            ReductionPlan.from_assignment(p, {(1, 4): {2}}, GadgetMode.SINGLE)

    def test_degree_four_rejected(self):
        p = poly_of(4, {(1, 2, 3, 4): 1})
        with pytest.raises(Exception):
            ReductionPlan.from_assignment(p, {(1, 2): {3}}, GadgetMode.SINGLE)

    @pytest.mark.parametrize("mode", [GadgetMode.SINGLE, GadgetMode.TRIPLE])
    def test_random_reductions_match_pointwise(self, mode):
        rng = random.Random(f"gadgets:{mode.value}")
        for _ in range(25):
            n = rng.randint(3, 5)
            lam = rng.randint(1, min(4, len(list(combinations(range(n), 3)))))
            p = random_cubic_poly(rng, n, lam, quadratic_layer=rng.random() < 0.5)
            assignments = {}
            for t in sorted(p.cubic_terms()):
                pairs = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
                b = pairs[rng.randrange(3)]
                assignments.setdefault(b, set()).add((set(t) - set(b)).pop())
            plan = ReductionPlan.from_assignment(p, assignments, mode)
            reduced = apply_plan(p, plan)
            assert pointwise_matches(p, reduced)


# ---------------------------------------------------------------------------
# The penalty scale is exactly right: one notch down loses strictness,
# two notches down loses the minimum itself.
# ---------------------------------------------------------------------------


class TestDeltaTightness:
    def build(self, delta):
        p = poly_of(4, {(1, 2, 3): 2, (1, 2, 4): -3})
        plan = ReductionPlan(
            mode=GadgetMode.SINGLE,
            assignments={(1, 2): frozenset({3, 4})},
            deltas={((1, 2), 1): delta},
        )
        return p, apply_plan(p, plan)

    def test_exact_delta_gives_strict_dominance(self):
        p, reduced = self.build(4)
        assert pointwise_matches(p, reduced)
        for _, x in computational_assignments(p.n):
            assert strictly_dominant(reduced, x)

    def test_one_below_keeps_minimum_but_ties(self):
        p, reduced = self.build(3)
        assert pointwise_matches(p, reduced)
        tied = [
            x
            for _, x in computational_assignments(p.n)
            if not strictly_dominant(reduced, x)
        ]
        assert tied, "expected at least one point where a wrong ancilla value ties"

    def test_two_below_breaks_the_minimum(self):
        p, reduced = self.build(2)
        assert not pointwise_matches(p, reduced)


# ---------------------------------------------------------------------------
# Introduced-coefficient accounting
# ---------------------------------------------------------------------------


class TestMaxIntroduced:
    @pytest.mark.parametrize("mode", [GadgetMode.SINGLE, GadgetMode.TRIPLE])
    def test_matches_actual_affected_coefficients(self, mode):
        rng = random.Random(f"introduced:{mode.value}")
        for _ in range(20):
            n = rng.randint(3, 6)
            lam = rng.randint(1, min(5, len(list(combinations(range(n), 3)))))
            p = random_cubic_poly(rng, n, lam, quadratic_layer=True)
            assignments = {}
            for t in sorted(p.cubic_terms()):
                pairs = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
                b = pairs[rng.randrange(3)]
                assignments.setdefault(b, set()).add((set(t) - set(b)).pop())
            plan = ReductionPlan.from_assignment(p, assignments, mode)
            reduced = apply_plan(p, plan)
            affected = [
                abs(c)
                for m, c in reduced.quadratic
                if any(v.is_ancilla for v in m)
            ]
            for i, j in plan.pairs():
                merged = reduced.quadratic.coefficient(
                    (xvar(i), xvar(j))
                )
                affected.append(abs(merged))
            assert max_introduced_coefficient(plan, p) == max(affected)


# ---------------------------------------------------------------------------
# .qubo round trips
# ---------------------------------------------------------------------------


class TestQuboFormat:
    def roundtrip(self, reduced):
        text = emit_qubo(reduced)
        back = parse_qubo(text)
        assert back.quadratic == reduced.quadratic
        assert back.registry == reduced.registry
        assert back.quadratic.n == reduced.quadratic.n
        assert emit_qubo(back) == text

    def test_roundtrip_single(self):
        p = poly_of(4, {(1, 2, 3): 2, (1, 2, 4): -3, (1, 4): 7}, const=-2)
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3, 4}}, GadgetMode.SINGLE)
        self.roundtrip(apply_plan(p, plan))

    def test_roundtrip_triple(self):
        p = poly_of(3, {(1, 2, 3): 5})
        plan = ReductionPlan.from_assignment(p, {(2, 3): {1}}, GadgetMode.TRIPLE)
        self.roundtrip(apply_plan(p, plan))

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_qubo("1 1 2\n")

    def test_bad_ancilla_line(self):
        p = poly_of(3, {(1, 2, 3): 1})
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3}}, GadgetMode.SINGLE)
        text = emit_qubo(apply_plan(p, plan))
        with pytest.raises(ParseError):
            parse_qubo(text.replace("a 4 pair 1 2", "a 4 pair 1"))

    def test_out_of_range_index(self):
        with pytest.raises(ParseError):
            parse_qubo("p qubo 2 2\n1 1 3\n")


def test_reduced_instance_rejects_a_repeated_definition():
    quadratic = poly_of(2, {(1, 2): 1})
    ReducedInstance(quadratic, (PairAncilla(1, 2),))
    with pytest.raises(ValueError, match=r"duplicate ancilla definition pair\(1,2\)"):
        ReducedInstance(quadratic, (PairAncilla(1, 2), PairAncilla(1, 2)))
