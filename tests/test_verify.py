"""Oracle checks: pointwise equality, ground-state projection, saturation."""

import pytest

from puboforge.gadgets import (
    GadgetMode,
    ReductionPlan,
    apply_plan,
)
from puboforge.poly import CapExceededError, Polynomial, monomial, xvar
from puboforge.setcover import BudgetExhaustedError, verify_saturation
from puboforge.verify import verify_reduction
from puboforge.wmaxsat import apply_quartic_plan, build_wmaxsat
from util import poly_add, poly_of


def plan_with_delta(poly, delta):
    return ReductionPlan(
        mode=GadgetMode.SINGLE,
        assignments={(1, 2): frozenset({3, 4})},
        deltas={((1, 2), 1): delta},
    )


class TestVerifyReduction:
    def test_identity_on_quadratic(self):
        p = poly_of(3, {(1, 2): 2, (3,): -1}, const=4)
        plan = ReductionPlan.from_assignment(p, {}, GadgetMode.SINGLE)
        report = verify_reduction(p, apply_plan(p, plan))
        assert report.ok
        assert report.ancilla_count == 0
        assert report.counterexample is None

    def test_correct_reduction_passes(self):
        p = poly_of(4, {(1, 2, 3): 2, (1, 2, 4): -3, (1, 3): 1})
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3, 4}}, GadgetMode.SINGLE)
        report = verify_reduction(p, apply_plan(p, plan))
        assert report.pointwise_ok and report.ground_state_ok
        assert report.precision_before is not None
        assert report.precision_after is not None
        assert report.ancilla_count == 1

    def test_underweighted_penalty_is_caught(self):
        p = poly_of(4, {(1, 2, 3): 2, (1, 2, 4): -3})
        # two below the sound scale: the min itself goes wrong somewhere
        report = verify_reduction(p, apply_plan(p, plan_with_delta(p, 2)))
        assert not report.pointwise_ok
        assert report.counterexample is not None
        assert all(not v.is_ancilla for v in report.counterexample)

    def test_one_below_still_passes_pointwise(self):
        # one notch below only costs strict dominance, not the minimum
        p = poly_of(4, {(1, 2, 3): 2, (1, 2, 4): -3})
        report = verify_reduction(p, apply_plan(p, plan_with_delta(p, 3)))
        assert report.pointwise_ok and report.ground_state_ok

    def test_constant_shift_breaks_pointwise_not_ground_state(self):
        p = poly_of(3, {(1, 2, 3): 1})
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3}}, GadgetMode.SINGLE)
        reduced = apply_plan(p, plan)
        shifted = type(reduced)(
            poly_add(reduced.quadratic, Polynomial(p.n, {(): 1})),
            reduced.registry,
            reduced.source_n,
        )
        report = verify_reduction(p, shifted)
        assert not report.pointwise_ok
        assert report.ground_state_ok
        assert report.counterexample is not None

    def test_biased_linear_term_breaks_ground_state(self):
        p = poly_of(3, {(1, 2, 3): 1})
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3}}, GadgetMode.SINGLE)
        reduced = apply_plan(p, plan)
        biased = type(reduced)(
            poly_add(reduced.quadratic, Polynomial(p.n, {monomial([xvar(1)]): -5})),
            reduced.registry,
            reduced.source_n,
        )
        report = verify_reduction(p, biased)
        assert not report.pointwise_ok
        assert not report.ground_state_ok

    def test_quartic_chain_is_minimized_jointly(self):
        p = poly_of(4, {(1, 2, 3, 4): 3, (1, 2): -2})
        inst = build_wmaxsat(p)
        forced = frozenset({inst.index_of((1, 2)), inst.index_of((1, 2, 3))})
        report = verify_reduction(p, apply_quartic_plan(p, inst, forced))
        assert report.ok
        assert report.ancilla_count == 2

    def test_variable_count_mismatch(self):
        p = poly_of(3, {(1, 2, 3): 1})
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3}}, GadgetMode.SINGLE)
        reduced = apply_plan(p, plan)
        other = poly_of(4, {(1, 2, 3): 1})
        with pytest.raises(ValueError):
            verify_reduction(other, reduced)

    def test_cap_enforced(self):
        p = poly_of(23, {(1, 2, 3): 1})
        plan = ReductionPlan.from_assignment(p, {(1, 2): {3}}, GadgetMode.SINGLE)
        reduced = apply_plan(p, plan)  # 23 + 1 = 24 variables: at the cap
        assert verify_reduction(p, reduced, cap=24).ok
        with pytest.raises(CapExceededError):
            verify_reduction(p, reduced, cap=23)


class TestVerifySaturation:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_complete_sets_saturate(self, n):
        assert verify_saturation(n)

    def test_budget_exhaustion_is_distinct(self):
        with pytest.raises(BudgetExhaustedError):
            verify_saturation(7, node_budget=2)
