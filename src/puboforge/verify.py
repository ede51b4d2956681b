"""Independent oracle checks for reductions.

`verify_reduction` never trusts gadget bookkeeping: it works purely from the
term data of the original and reduced polynomials.  For every computational
assignment the reduced polynomial minimized over the ancillas must equal
the original value (the pointwise check), and the projection of the reduced
argmin set onto the computational variables must equal the original argmin
set (the ground-state check).

Minimizing over ancillas is exact joint minimization: ancillas are split
into connected components of the "shares a quadratic term" graph, and each
component is enumerated exhaustively over its own ancillas and the x
variables its terms touch.  Components are the right unit because chained
ancillas (a triple ancilla and the pair ancilla it builds on) interact
through their penalty terms and must be minimized together, while unrelated
ancillas cannot influence each other.

A pseudo-Boolean function has exactly one multilinear polynomial, so
f(x) = min_z g(x, z) holds at every x exactly when both sides have the same
coefficients.  Each component's minimum is turned back into coefficients by
the inverse subset-sum transform, and a passing check compares two
coefficient dicts without building any table over all 2**n assignments.
Only when the coefficients differ are both sides tabulated over every x to
find the first counterexample and compare the argmin sets.  The enumeration
cap still applies to the total variable count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from puboforge.gadgets import ReducedInstance
from puboforge.poly import (
    CapExceededError,
    DEFAULT_ENUMERATION_CAP,
    Monomial,
    Polynomial,
    PrecisionReport,
    Var,
    control_precision,
    subset_sums,
    value_table,
    xvar,
)


@dataclass(frozen=True)
class VerificationReport:
    pointwise_ok: bool
    ground_state_ok: bool
    counterexample: dict[Var, int] | None
    precision_before: PrecisionReport | None
    precision_after: PrecisionReport | None
    ancilla_count: int

    @property
    def ok(self) -> bool:
        return self.pointwise_ok and self.ground_state_ok


def _x_mask(m: Monomial) -> int:
    """Bitmask of a monomial's computational variables; bit (i-1) is x_i."""
    return sum(1 << (v.index - 1) for v in m if not v.is_ancilla)


def _computational_coefficients(poly: Polynomial) -> dict[int, int]:
    """Coefficients of a computational-only polynomial, keyed by x bitmask."""
    if poly.referenced_ancillas():
        raise ValueError("original polynomial must not reference ancillas")
    return {_x_mask(m): c for m, c in poly}


def _min_over_ancilla_coefficients(reduced: ReducedInstance) -> dict[int, int]:
    """Coefficients of x -> min over ancilla assignments of the reduced value.

    Exact joint minimization via connected components of the ancilla
    interaction graph, each tabulated over its ancillas and x-neighbourhood.
    """
    coeffs: dict[int, int] = {}
    anc_terms: list[tuple[Monomial, int, Var]] = []
    # Union-find over ancillas that co-occur in a term.
    parent: dict[Var, Var] = {}

    def find(a: Var) -> Var:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m, c in reduced.quadratic:
        slots = [v for v in m if v.is_ancilla]
        if not slots:
            coeffs[_x_mask(m)] = c
            continue
        anc_terms.append((m, c, slots[0]))
        for s in slots:
            parent.setdefault(s, s)
        if len(slots) == 2:
            ra, rb = find(slots[0]), find(slots[1])
            if ra != rb:
                parent[ra] = rb

    components: dict[Var, list[tuple[Monomial, int]]] = {}
    for m, c, slot in anc_terms:
        components.setdefault(find(slot), []).append((m, c))
    for terms in components.values():
        # Computational variables sort first: they take the low local bits.
        local = sorted({v for m, _ in terms for v in m})
        xs = [v for v in local if not v.is_ancilla]
        position = {v: i for i, v in enumerate(local)}
        table = [0] * (1 << len(local))
        for m, c in terms:
            table[sum(1 << position[v] for v in m)] += c
        subset_sums(table, len(local))
        size = 1 << len(xs)
        best = table[:size]
        for start in range(size, len(table), size):
            best = list(map(min, best, table[start : start + size]))
        subset_sums(best, len(xs), operator.sub)
        for code, c in enumerate(best):
            if c:
                mask = _x_mask(tuple(v for i, v in enumerate(xs) if code >> i & 1))
                coeffs[mask] = coeffs.get(mask, 0) + c
    return coeffs


def verify_reduction(
    original: Polynomial,
    reduced: ReducedInstance,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> VerificationReport:
    """Pointwise and ground-state checks of a reduction, exact for every x."""
    if original.n != reduced.quadratic.n:
        raise ValueError(
            f"variable count mismatch: original has {original.n}, reduced declares {reduced.quadratic.n}"
        )
    total_vars = reduced.total_variables()
    if total_vars > cap:
        raise CapExceededError(f"{total_vars} total variables exceed enumeration cap {cap}")

    original_coeffs = _computational_coefficients(original)
    reduced_coeffs = {m: c for m, c in _min_over_ancilla_coefficients(reduced).items() if c}

    counterexample: dict[Var, int] | None = None
    pointwise_ok = ground_state_ok = original_coeffs == reduced_coeffs
    if not pointwise_ok:
        # Different coefficients mean different values at some x; the first
        # such x is the counterexample.
        original_table = value_table(original_coeffs, original.n)
        reduced_table = value_table(reduced_coeffs, original.n)
        code = next(c for c, (want, got) in enumerate(zip(original_table, reduced_table)) if want != got)
        counterexample = {xvar(i): (code >> (i - 1)) & 1 for i in range(1, original.n + 1)}
        ground_min, reduced_min = min(original_table), min(reduced_table)
        original_argmin = {c for c, v in enumerate(original_table) if v == ground_min}
        projected_argmin = {c for c, v in enumerate(reduced_table) if v == reduced_min}
        ground_state_ok = original_argmin == projected_argmin

    return VerificationReport(
        pointwise_ok,
        ground_state_ok,
        counterexample,
        control_precision(original) if original else None,
        control_precision(reduced.quadratic) if reduced.quadratic else None,
        reduced.ancilla_count(),
    )

