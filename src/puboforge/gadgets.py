"""Quadratic gadgets that rewrite cubic terms exactly.

The workhorse is the conjunction penalty

    s(x, y, z) = 3z + xy - 2xz - 2yz

which is 0 exactly when z == x*y and at least 1 otherwise.  An exhaustive
search over small integer quadratics (`exhaustive_penalty_search`) confirms
that no valid penalty of this shape gets away with coefficients smaller in
magnitude than 3.

A cubic term a*x_i*x_j*x_k becomes a quadratic term a*z*x_k plus a scaled
copy of s binding z to x_i*x_j.  Two gadget modes are supported:

* single-ancilla: one z per pair (i, j); all cubic terms sharing the pair
  ride on the same ancilla, and the penalty weight is
  delta = 1 + max(sum of positive coefficients, -(sum of negatives)),
  the smallest integer making wrong ancilla values strictly uncompetitive.
* triple-ancilla: three copies z^(1..3) per pair, with each coefficient a
  split into three near-equal integers b1+b2+b3 = a.  Every introduced
  coefficient then stays within a factor ~3 of the per-copy delta, which is
  what keeps control precision low on crowded instances.

A `ReductionPlan` records which pair absorbs each cubic term and the penalty
weights; `apply_plan` hands its ancillas, product terms and deltas to
`materialize`, which the quartic path shares.  It builds a `ReducedInstance`:
the quadratic plus its ancilla definitions, a tuple in slot order.  This
module also owns the `.qubo` text format, which carries the quadratic
together with those definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable, Mapping, MutableMapping, Sequence

from puboforge.poly import (
    DegreeError,
    Monomial,
    ParseError,
    Polynomial,
    PuboError,
    Var,
    avar,
    int_fields,
    monomial,
    text_lines,
    xvar,
)

Pair = tuple[int, int]
Triple = tuple[int, int, int]


class PlanError(PuboError):
    """A reduction plan does not match the polynomial it is applied to."""


class GadgetMode(str, Enum):
    SINGLE = "single"
    TRIPLE = "triple"


# ---------------------------------------------------------------------------
# Ancilla bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairAncilla:
    """Ancilla representing the conjunction x_i * x_j."""

    i: int
    j: int

    def describe(self) -> str:
        return f"pair({self.i},{self.j})"


@dataclass(frozen=True)
class PairCopyAncilla:
    """Copy m of the pair conjunction, used by the triple-ancilla gadget."""

    i: int
    j: int
    copy: int

    def describe(self) -> str:
        return f"pair({self.i},{self.j})#{self.copy}"


@dataclass(frozen=True)
class TripleAncilla:
    """Ancilla for x_i*x_j*x_k, chained through the pair ancilla for `pair`."""

    pair: Pair
    k: int

    def triple(self) -> Triple:
        return tuple(sorted(self.pair + (self.k,)))  # type: ignore[return-value]

    def describe(self) -> str:
        t = self.triple()
        return f"triple({t[0]},{t[1]},{t[2]}) via ({self.pair[0]},{self.pair[1]})"


# A reduced instance keeps its ancillas as a tuple of these, in slot order;
# every serialization numbers ancillas after the computational variables in
# that order, so identical plans always produce identical files.
AncillaDef = PairAncilla | PairCopyAncilla | TripleAncilla


# ---------------------------------------------------------------------------
# The conjunction penalty and its minimality
# ---------------------------------------------------------------------------


def add_penalty(acc: MutableMapping[Monomial, int], x: Var, y: Var, z: Var, weight: int) -> None:
    """Add weight * (3z + xy - 2xz - 2yz) into the term map acc."""
    for m, c in (([z], 3), ([x, y], 1), ([x, z], -2), ([y, z], -2)):
        m = monomial(m)
        acc[m] = acc.get(m, 0) + weight * c


def penalty_s(x: Var, y: Var, z: Var, n: int) -> Polynomial:
    """The penalty 3z + xy - 2xz - 2yz over distinct variables x, y, z."""
    if len({x, y, z}) != 3:
        raise ValueError("penalty arguments must be three distinct variables")
    acc: dict[Monomial, int] = {}
    add_penalty(acc, x, y, z, 1)
    return Polynomial(n, acc)


@dataclass(frozen=True)
class PenaltySearchResult:
    """Outcome of the exhaustive search over candidate conjunction penalties.

    Coefficient vectors are (c_x, c_y, c_z, c_xy, c_xz, c_yz) for
    f = c_x x + c_y y + c_z z + c_xy xy + c_xz xz + c_yz yz.
    """

    min_max_coeff: int | None
    optima: tuple[tuple[int, ...], ...]


# Assignment rows (x, y, z); the first four satisfy z == x*y.
_PENALTY_ROWS = [
    (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1),
    (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0),
]


def exhaustive_penalty_search(bound: int = 6) -> PenaltySearchResult:
    """Search every integer quadratic over (x, y, z) with |coeffs| <= bound.

    A candidate is a valid conjunction penalty when it is 0 on all rows with
    z == x*y and >= 1 on the other rows.  Returns the minimum over valid
    candidates of max |coefficient| together with every optimum attaining it.
    The rows (0,1,0) and (1,0,0) force c_y = c_x = 0 and the row (1,1,1)
    fixes c_yz = -(c_z + c_xy + c_xz), so only (c_z, c_xy, c_xz) is
    enumerated; every candidate is still checked on all eight rows.
    """
    valid: list[tuple[int, ...]] = []
    for c_z, c_xy, c_xz in product(range(-bound, bound + 1), repeat=3):
        cand = (0, 0, c_z, c_xy, c_xz, -(c_z + c_xy + c_xz))
        if abs(cand[5]) > bound:
            continue
        values = [
            sum(c * b for c, b in zip(cand, (x, y, z, x * y, x * z, y * z)))
            for x, y, z in _PENALTY_ROWS
        ]
        if not any(values[:4]) and min(values[4:]) >= 1:
            valid.append(cand)
    best = min((max(map(abs, c)) for c in valid), default=None)
    return PenaltySearchResult(best, tuple(sorted(c for c in valid if max(map(abs, c)) == best)))


def verify_penalty_minimality() -> int:
    """Minimum max-|coefficient| of any valid conjunction penalty (= 3)."""
    result = exhaustive_penalty_search(bound=6)
    if result.min_max_coeff is None:
        raise PuboError("no valid conjunction penalty found within the search bound")
    return result.min_max_coeff


# ---------------------------------------------------------------------------
# Penalty weights and coefficient splitting
# ---------------------------------------------------------------------------


def delta_for_group(coeffs: Iterable[int]) -> int:
    """Smallest penalty weight that strictly dominates a coefficient group.

    Wrong ancilla values can harvest at most max(sum of positive
    coefficients, -(sum of negatives)) from the terms that depend on the
    ancilla; one more makes every wrong value strictly worse.  Cubic plans
    and quartic selections both size every delta with this one rule.
    """
    positive = total = size = 0
    for c in coeffs:
        size += 1
        total += c
        if c > 0:
            positive += c
    if not size:
        raise ValueError("delta is undefined for an empty coefficient group")
    return 1 + max(positive, positive - total)


def beta_split(alpha: int) -> tuple[int, int, int]:
    """Split alpha into three integers summing to alpha, each within 1 of alpha/3."""
    r = alpha % 3
    if r == 0:
        b = alpha // 3
        return (b, b, b)
    if r == 1:
        return ((alpha + 2) // 3, (alpha - 1) // 3, (alpha - 1) // 3)
    return ((alpha + 1) // 3, (alpha + 1) // 3, (alpha - 2) // 3)


# ---------------------------------------------------------------------------
# Reduction plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionPlan:
    """Assignment of every cubic term to a pair, plus penalty weights.

    ``assignments`` maps a pair (i, j) to the set of third indices k whose
    cubic terms ride on that pair's ancilla.  ``deltas`` maps (pair, copy) to
    the penalty weight; the single-ancilla gadget only uses copy 1.
    Construct with `from_assignment` to get validated, minimal deltas; direct
    construction is deliberately unchecked so tests can build unsound plans.
    """

    mode: GadgetMode
    assignments: Mapping[Pair, frozenset[int]]
    deltas: Mapping[tuple[Pair, int], int]

    @classmethod
    def from_assignment(
        cls,
        poly: Polynomial,
        assignments: Mapping[Pair, Iterable[int]],
        mode: GadgetMode = GadgetMode.SINGLE,
    ) -> "ReductionPlan":
        mode = GadgetMode(mode)
        normalized = {
            (min(p), max(p)): frozenset(ks) for p, ks in assignments.items() if ks
        }
        cubic = cls(mode, normalized, {}).validate(poly)
        deltas: dict[tuple[Pair, int], int] = {}
        for pair in sorted(normalized):
            alphas = [
                cubic[tuple(sorted(pair + (k,)))] for k in sorted(normalized[pair])
            ]
            if mode is GadgetMode.SINGLE:
                deltas[(pair, 1)] = delta_for_group(alphas)
            else:
                for m in range(1, 4):
                    deltas[(pair, m)] = delta_for_group(
                        [beta_split(a)[m - 1] for a in alphas]
                    )
        return cls(mode, normalized, deltas)

    def pairs(self) -> list[Pair]:
        return sorted(self.assignments)

    def copies(self) -> range:
        return range(1, 4) if self.mode is GadgetMode.TRIPLE else range(1, 2)

    def ancilla_count(self) -> int:
        return len(self.assignments) * (3 if self.mode is GadgetMode.TRIPLE else 1)

    def validate(self, poly: Polynomial) -> dict[Triple, int]:
        """Check exactly-once coverage of the polynomial's cubic terms, and
        return them (`Polynomial.cubic_terms`) so callers need not rebuild them."""
        if poly.degree() > 3:
            raise DegreeError("plans cover cubic terms only; reduce degree-4 input via the quartic pipeline")
        cubic = poly.cubic_terms()
        seen: dict[Triple, Pair] = {}
        for pair, ks in self.assignments.items():
            i, j = pair
            if not (1 <= i < j <= poly.n):
                raise PlanError(f"pair {pair} is not an ordered pair within 1..{poly.n}")
            if not ks:
                raise PlanError(f"pair {pair} has an empty term group")
            for k in ks:
                if not 1 <= k <= poly.n or k in pair:
                    raise PlanError(f"index {k} invalid for pair {pair}")
                t: Triple = tuple(sorted((i, j, k)))  # type: ignore[assignment]
                if t not in cubic:
                    raise PlanError(f"plan covers {t}, which is not a cubic term of the polynomial")
                if t in seen:
                    raise PlanError(f"cubic term {t} covered twice (pairs {seen[t]} and {pair})")
                seen[t] = pair
        missing = set(cubic) - set(seen)
        if missing:
            raise PlanError(f"cubic terms not covered by the plan: {sorted(missing)}")
        return cubic


# ---------------------------------------------------------------------------
# Applying a plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedInstance:
    """A quadratic polynomial plus the ancilla map that explains it:
    ``registry[slot]`` defines ancilla ``avar(slot)``, and no definition
    appears twice."""

    quadratic: Polynomial
    registry: tuple[AncillaDef, ...]

    def __post_init__(self) -> None:
        if self.quadratic.degree() > 2:
            raise ValueError("reduced instance must be quadratic")
        for v in self.quadratic.referenced_ancillas():
            if v.index >= len(self.registry):
                raise ValueError(f"quadratic references undefined ancilla slot {v.index}")
        seen: set[AncillaDef] = set()
        for d in self.registry:
            if d in seen:
                raise ValueError(f"duplicate ancilla definition {d.describe()}")
            seen.add(d)

    def total_variables(self) -> int:
        return self.quadratic.n + len(self.registry)

    def ancilla_count(self) -> int:
        return len(self.registry)


def materialize(
    poly: Polynomial, defs: Sequence[AncillaDef], products: Mapping[Monomial, int], deltas: Sequence[int]
) -> ReducedInstance:
    """The reduced instance: poly's terms of degree < 3, the ``products``
    that replace its higher terms, and for each ancilla of ``defs`` (in slot
    order) its ``deltas`` entry times s, bound to (x_i, x_j) for a pair or
    pair copy and to (z_base, x_k) for a triple chained through z_base."""
    slot_of = {d: slot for slot, d in enumerate(defs)}
    acc: dict[Monomial, int] = {m: c for m, c in poly if len(m) < 3}
    acc.update(products)  # every product names an ancilla, so none is a term of poly
    for slot, (d, delta) in enumerate(zip(defs, deltas, strict=True)):
        if isinstance(d, TripleAncilla):
            add_penalty(acc, avar(slot_of[PairAncilla(*d.pair)]), xvar(d.k), avar(slot), delta)
        else:
            add_penalty(acc, xvar(d.i), xvar(d.j), avar(slot), delta)
    return ReducedInstance(Polynomial(poly.n, acc), tuple(defs))


def apply_plan(poly: Polynomial, plan: ReductionPlan) -> ReducedInstance:
    """Materialize a plan: quadratic polynomial + ancilla registry.

    Ancillas are created in sorted (i, j, copy) order.  Each pair
    contributes its grouped product terms, and each ancilla copy the
    penalty weight the plan records for it.
    """
    cubic = plan.validate(poly)
    single = plan.mode is GadgetMode.SINGLE
    defs: list[AncillaDef] = []
    products: dict[Monomial, int] = {}
    deltas: list[int] = []
    for pair in plan.pairs():
        zs = []
        for m in plan.copies():
            if (pair, m) not in plan.deltas:
                raise PlanError(f"plan is missing a delta for {(pair, m)}")
            zs.append(avar(len(defs)))
            defs.append(PairAncilla(*pair) if single else PairCopyAncilla(*pair, m))
            deltas.append(plan.deltas[(pair, m)])
        for k in sorted(plan.assignments[pair]):
            alpha = cubic[tuple(sorted(pair + (k,)))]
            for z, beta in zip(zs, (alpha,) if single else beta_split(alpha)):
                if beta:
                    products[monomial([z, xvar(k)])] = beta
    return materialize(poly, defs, products, deltas)


# ---------------------------------------------------------------------------
# .qubo text format
#
#   p qubo <total_vars> <computational_vars>
#   c <offset>
#   <coeff> <i> <j>                  i <= j; i == j encodes a linear term
#   a <idx> pair <i> <j> [<copy>]
#   a <idx> triple <i> <j> <k> via <p> <q>
#
# Ancilla indices run from computational_vars+1 to total_vars in slot order.
# ---------------------------------------------------------------------------


def _line_index(v: Var, n: int) -> int:
    return n + 1 + v.index if v.is_ancilla else v.index


def emit_qubo(reduced: ReducedInstance) -> str:
    """Serialize a reduced instance to canonical ``.qubo`` text."""
    n = reduced.quadratic.n
    lines = [f"p qubo {reduced.total_variables()} {n}"]
    offset = reduced.quadratic.constant()
    if offset:
        lines.append(f"c {offset}")
    for m, c in reduced.quadratic:
        if not m:
            continue
        if len(m) == 1:
            i = j = _line_index(m[0], n)
        else:
            i, j = (_line_index(v, n) for v in m)
        lines.append(f"{c} {i} {j}")
    for slot, d in enumerate(reduced.registry):
        idx = n + 1 + slot
        if isinstance(d, PairAncilla):
            lines.append(f"a {idx} pair {d.i} {d.j}")
        elif isinstance(d, PairCopyAncilla):
            lines.append(f"a {idx} pair {d.i} {d.j} {d.copy}")
        else:
            i, j, k = d.triple()
            lines.append(f"a {idx} triple {i} {j} {k} via {d.pair[0]} {d.pair[1]}")
    return "\n".join(lines) + "\n"


def parse_qubo(text: str) -> ReducedInstance:
    """Parse ``.qubo`` text back into a reduced instance."""
    total: int | None = None
    n = 0
    acc: dict[Monomial, int] = {}
    defs: dict[int, AncillaDef] = {}
    seen: set[AncillaDef] = set()
    for lineno, line, fields in text_lines(text):
        if total is None:
            if fields[0] != "p" or len(fields) != 4 or fields[1] != "qubo":
                raise ParseError("expected header 'p qubo <total> <computational>'", lineno)
            total, n = int_fields(fields[2:], lineno, "header counts must be integers")
            if not 0 <= n <= total:
                raise ParseError(f"invalid variable counts total={total} computational={n}", lineno)
            continue
        if fields[0] == "c":
            if len(fields) != 2:
                raise ParseError(f"malformed constant line {line!r}", lineno)
            (offset,) = int_fields(fields[1:], lineno, "non-integer field in {!r}", line)
            acc[()] = acc.get((), 0) + offset
            continue
        if fields[0] == "a":
            if len(fields) < 2:
                raise ParseError(f"malformed ancilla line {line!r}", lineno)
            (idx,) = int_fields(fields[1:2], lineno, "malformed ancilla line {!r}", line)
            if not n < idx <= total:
                raise ParseError(f"ancilla index {idx} outside {n + 1}..{total}", lineno)
            if idx in defs:
                raise ParseError(f"duplicate ancilla definition for index {idx}", lineno)
            kind = fields[2] if len(fields) > 2 else ""
            if kind == "pair" and len(fields) in (5, 6):
                i, j = int_fields(fields[3:5], lineno, "non-integer field in {!r}", line)
                if not 1 <= i < j <= n:
                    raise ParseError(f"pair ({i},{j}) is not an ordered computational pair", lineno)
                if len(fields) == 6:
                    (copy,) = int_fields(fields[5:], lineno, "non-integer field in {!r}", line)
                    if copy not in (1, 2, 3):
                        raise ParseError(f"pair copy must be 1..3, got {copy}", lineno)
                    d: AncillaDef = PairCopyAncilla(i, j, copy)
                else:
                    d = PairAncilla(i, j)
            elif kind == "triple" and len(fields) == 9 and fields[6] == "via":
                i, j, k, p, q = int_fields(fields[3:6] + fields[7:], lineno, "non-integer field in {!r}", line)
                if not 1 <= i < j < k <= n:
                    raise ParseError(f"triple ({i},{j},{k}) is not sorted within 1..{n}", lineno)
                if not {p, q} < {i, j, k} or p >= q:
                    raise ParseError(f"via pair ({p},{q}) is not inside the triple", lineno)
                d = TripleAncilla((p, q), k=(({i, j, k} - {p, q}).pop()))
            else:
                raise ParseError(f"malformed ancilla line {line!r}", lineno)
            if d in seen:
                raise ParseError(f"duplicate ancilla definition {d.describe()}", lineno)
            seen.add(d)
            defs[idx] = d
            continue
        if len(fields) != 3:
            raise ParseError(f"malformed term line {line!r}", lineno)
        coeff, i, j = int_fields(fields, lineno, "malformed term line {!r}", line)
        if not 1 <= i <= j <= total:
            raise ParseError(f"term indices ({i},{j}) must satisfy 1 <= i <= j <= {total}", lineno)
        m = monomial(xvar(x) if x <= n else avar(x - n - 1) for x in (i, j))
        acc[m] = acc.get(m, 0) + coeff
    if total is None:
        raise ParseError("empty input: missing 'p qubo' header")
    missing = [idx for idx in range(n + 1, total + 1) if idx not in defs]
    if missing:
        raise ParseError(f"missing ancilla definitions for indices {missing}")
    registry = tuple(defs[idx] for idx in range(n + 1, total + 1))
    return ReducedInstance(Polynomial(n, acc), registry)
