"""Independent oracle checks for reductions.

`verify_reduction` never trusts gadget bookkeeping: it works purely from the
term data of the original and reduced polynomials.  For every computational
assignment the reduced polynomial minimized over the ancillas must equal
the original value (the pointwise check), and the projection of the reduced
argmin set onto the computational variables must equal the original argmin
set (the ground-state check).

Minimizing over ancillas eliminates them one at a time (the "basic
algorithm" of Hammer, Rosenberg & Rudeanu, 1963; Dechter's bucket
elimination, Artif. Intell. 113, 1999, generalizes it).  Split g into the
terms that contain an ancilla z, its bucket, and the rest.  The rest does
not contain z, so min over z of (bucket + rest) equals (min over z of the
bucket) + rest.  The bucket's minimum is a polynomial over its other
variables; pooled back with the rest, it leaves a function without z whose
minimum over the remaining ancillas is the same.  Each step is exact in
any order, so the order (the smallest bucket next) only sets the cost: a
bucket is tabulated over its own variables, never over a whole chain of
ancillas at once.

A pseudo-Boolean function has exactly one multilinear polynomial, so
f(x) = min_z g(x, z) holds at every x exactly when both sides have the same
coefficients.  Each bucket's minimum is turned back into coefficients by
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
    """Nonzero coefficients of x -> min over ancilla assignments of the
    reduced value, keyed by x bitmask, eliminating one ancilla at a time."""
    pool: dict[Monomial, int] = {}
    # Each ancilla's monomials, so a bucket is found without scanning the
    # pool; a monomial since cancelled or eliminated is skipped by `in pool`.
    touching: dict[Var, set[Monomial]] = {}

    def add(m: Monomial, c: int) -> None:
        if c := c + pool.pop(m, 0):
            pool[m] = c
            for v in m:
                if v.is_ancilla:
                    touching.setdefault(v, set()).add(m)

    def scope(z: Var) -> set[Var]:
        return {v for m in touching[z] if m in pool for v in m}

    for m, c in reduced.quadratic:
        add(m, c)
    while touching:
        z = min(touching, key=lambda a: (len(scope(a)), a))
        local = sorted(scope(z) - {z})
        # z takes the top bit: the table's halves are its z=0 and z=1 values.
        position = {v: i for i, v in enumerate(local + [z])}
        table = [0] * (2 << len(local))
        for m in touching.pop(z) & pool.keys():
            table[sum(1 << position[v] for v in m)] += pool.pop(m)
        subset_sums(table, len(local) + 1)
        half = 1 << len(local)
        best = subset_sums(list(map(min, table[:half], table[half:])), len(local), operator.sub)
        for code, c in enumerate(best):
            if c:
                add(tuple(v for i, v in enumerate(local) if code >> i & 1), c)
    return {_x_mask(m): c for m, c in pool.items()}


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
    reduced_coeffs = _min_over_ancilla_coefficients(reduced)

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

