"""Minimum-ancilla planning via set cover.

Grouping lets one pair ancilla absorb every cubic term containing that
pair, so the smallest number of ancillas for a cubic polynomial is the
smallest set of pairs hitting every term: a set cover whose universe is the
cubic term set and whose candidates are the pairs inside those terms (each
term is covered by exactly its three own pairs).

The cover is restated as a 0-1 integer program (all-ones objective, 0/1
constraint matrix with row sums 3, cover each row at least once) and solved
exactly by a small branch-and-bound: branch on the candidate covering the
most uncovered rows, force candidates that are a row's last option, and
prune with two lower bounds (uncovered rows divided by the best remaining
coverage, and a greedy packing of rows with disjoint candidate sets).  The
incumbent starts from the same greedy rule the ReduceMin fallback uses, so
budget exhaustion still returns a valid, usually good, plan.

`quarter_squares` and `mantel_construction` give the saturation law: when
every triple over n variables is present, the optimum cover size is
floor((n-1)^2/4), achieved by taking all pairs inside two halves of the
variable set (no triple can avoid containing two variables from the same
half), and no smaller cover exists because a triangle-free pair set on n
vertices cannot exceed that size.  `verify_saturation` checks the law with
the exact solver.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

from puboforge.poly import Polynomial, PuboError, monomial, xvar
from puboforge.gadgets import GadgetMode, Pair, PlanError, ReductionPlan, Triple


class BudgetExhaustedError(PuboError):
    """The exact solver ran out of nodes before proving optimality."""


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe of cubic terms plus candidate pairs and their coverage sets."""

    universe: tuple[Triple, ...]
    candidates: tuple[Pair, ...]
    covers: tuple[frozenset[int], ...]  # per candidate: universe row indices


@dataclass(frozen=True)
class IlpInstance:
    """0-1 ILP: minimize c.v subject to M v >= b, v binary."""

    c: tuple[int, ...]
    m: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]


@dataclass(frozen=True)
class IlpResult:
    selection: tuple[int, ...]
    cost: int
    proven_optimal: bool
    nodes: int


def build_set_cover(poly: Polynomial) -> SetCoverInstance:
    """Set-cover view of a degree-<=3 polynomial's cubic terms."""
    if poly.degree() > 3:
        raise PuboError("set-cover planning handles degree <= 3; route degree-4 input through the quartic pipeline")
    universe = tuple(sorted(poly.cubic_terms()))
    pairs = sorted({p for t in universe for p in combinations(t, 2)})
    covers = tuple(
        frozenset(i for i, t in enumerate(universe) if set(p) <= set(t)) for p in pairs
    )
    return SetCoverInstance(universe, tuple(pairs), covers)


def set_cover_to_ilp(sc: SetCoverInstance) -> IlpInstance:
    """Explicit 0-1 ILP form of a cover instance."""
    nrows, ncols = len(sc.universe), len(sc.candidates)
    m = tuple(
        tuple(1 if i in sc.covers[j] else 0 for j in range(ncols)) for i in range(nrows)
    )
    return IlpInstance((1,) * ncols, m, (1,) * nrows)


def _greedy_selection(cover_masks: list[int], full: int) -> list[int]:
    """Greedy cover: repeatedly take the candidate covering most uncovered rows
    (ties to the lowest index).  This is the cover-level ReduceMin rule."""
    uncovered = full
    chosen: list[int] = []
    while uncovered:
        best_j, best_gain = -1, 0
        for j, mask in enumerate(cover_masks):
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:
                best_j, best_gain = j, gain
        if best_j < 0:
            raise PuboError("cover instance has an uncoverable row")
        chosen.append(best_j)
        uncovered &= ~cover_masks[best_j]
    return chosen


def solve_ilp_exact(ilp: IlpInstance, node_budget: int = 10**6) -> IlpResult:
    """Exact branch-and-bound for the cover ILP.

    Deterministic: branching, tie-breaking, and propagation orders are fixed.
    Exhausting ``node_budget`` returns the best incumbent with
    ``proven_optimal=False``; the incumbent is never worse than greedy.
    """
    nrows, ncols = len(ilp.b), len(ilp.c)
    cover_masks = [0] * ncols
    row_cands = [0] * nrows
    for i, row in enumerate(ilp.m):
        for j, cell in enumerate(row):
            if cell:
                cover_masks[j] |= 1 << i
                row_cands[i] |= 1 << j
    full = (1 << nrows) - 1

    greedy = _greedy_selection(cover_masks, full)
    best_mask = 0
    for j in greedy:
        best_mask |= 1 << j
    best_cost = len(greedy)

    nodes = 0
    exhausted = False

    def lower_bound(uncovered: int, banned: int) -> int:
        # Bound 1: the best remaining candidate covers cmax rows at a time.
        cmax = 0
        for j in range(ncols):
            if not banned >> j & 1:
                gain = (cover_masks[j] & uncovered).bit_count()
                if gain > cmax:
                    cmax = gain
        if cmax == 0:
            return nrows + 1  # some row is uncoverable: prune
        u = uncovered.bit_count()
        bound = -(-u // cmax)
        # Bound 2: rows whose candidate sets are pairwise disjoint each need
        # their own candidate.
        taken = 0
        packing = 0
        rest = uncovered
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cands = row_cands[i] & ~banned
            if cands == 0:
                return nrows + 1
            if cands & taken == 0:
                taken |= cands
                packing += 1
        return max(bound, packing)

    def dfs(uncovered: int, banned: int, chosen_mask: int, nchosen: int) -> None:
        nonlocal best_mask, best_cost, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        while True:
            if uncovered == 0:
                if nchosen < best_cost:
                    best_cost, best_mask = nchosen, chosen_mask
                return
            if nchosen + lower_bound(uncovered, banned) >= best_cost:
                return
            # Force any candidate that is the last option for some row.
            forced = -1
            rest = uncovered
            while rest:
                i = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                cands = row_cands[i] & ~banned
                if cands and cands & (cands - 1) == 0:
                    forced = cands.bit_length() - 1
                    break
            if forced < 0:
                break
            chosen_mask |= 1 << forced
            nchosen += 1
            uncovered &= ~cover_masks[forced]
        # Branch on the candidate covering the most uncovered rows.
        best_j, best_gain = -1, 0
        for j in range(ncols):
            if not banned >> j & 1:
                gain = (cover_masks[j] & uncovered).bit_count()
                if gain > best_gain:
                    best_j, best_gain = j, gain
        if best_j < 0:
            return
        dfs(uncovered & ~cover_masks[best_j], banned, chosen_mask | (1 << best_j), nchosen + 1)
        dfs(uncovered, banned | (1 << best_j), chosen_mask, nchosen)

    dfs(full, 0, 0, 0)
    selection = tuple((best_mask >> j) & 1 for j in range(ncols))
    return IlpResult(selection, best_cost, not exhausted, nodes)


def plan_from_cover(
    sc: SetCoverInstance,
    selection: tuple[int, ...],
    poly: Polynomial,
    mode: GadgetMode = GadgetMode.SINGLE,
) -> ReductionPlan:
    """Turn a candidate selection into a reduction plan.

    Each term goes to the lexicographically smallest selected pair covering it.
    """
    selected = [j for j, v in enumerate(selection) if v]
    assignments: dict[Pair, set[int]] = {}
    for i, t in enumerate(sc.universe):
        owners = [sc.candidates[j] for j in selected if i in sc.covers[j]]
        if not owners:
            raise PlanError(f"selection does not cover cubic term {t}")
        pair = min(owners)
        third = (set(t) - set(pair)).pop()
        assignments.setdefault(pair, set()).add(third)
    return ReductionPlan.from_assignment(poly, assignments, mode)


def reduce_min_greedy(poly: Polynomial, mode: GadgetMode = GadgetMode.SINGLE) -> ReductionPlan:
    """ReduceMin: repeatedly give the most popular remaining pair an ancilla.

    Picks the pair contained in the most remaining cubic terms (ties to the
    lexicographically smallest pair), assigns those terms to it, and repeats.
    """
    remaining = set(poly.cubic_terms())
    terms_of: dict[Pair, list[Triple]] = {}
    for t in remaining:
        for p in combinations(t, 2):
            terms_of.setdefault(p, []).append(t)
    counts = {p: len(ts) for p, ts in terms_of.items()}
    heap = [(-c, p) for p, c in counts.items()]  # stale entries are skipped
    heapq.heapify(heap)
    assignments: dict[Pair, set[int]] = {}
    while remaining:
        neg_count, best_pair = heapq.heappop(heap)
        if counts[best_pair] != -neg_count:
            continue
        claimed = [t for t in terms_of[best_pair] if t in remaining]
        assignments[best_pair] = {(set(t) - set(best_pair)).pop() for t in claimed}
        remaining.difference_update(claimed)
        for t in claimed:
            for p in combinations(t, 2):
                counts[p] -= 1
                if counts[p]:
                    heapq.heappush(heap, (-counts[p], p))
    return ReductionPlan.from_assignment(poly, assignments, mode)


def quarter_squares(n: int) -> int:
    """floor((n-1)^2 / 4): minimum ancillas for the complete cubic set."""
    if n < 2:
        raise ValueError(f"quarter_squares needs n >= 2, got {n}")
    return (n - 1) ** 2 // 4


def mantel_construction(n: int) -> tuple[Pair, ...]:
    """A cover of all triples over 1..n attaining the quarter-squares bound.

    Take all pairs inside {1..ceil(n/2)} and all pairs inside the rest; any
    triple has two elements in one half, so it contains a chosen pair.
    """
    if n < 2:
        raise ValueError(f"mantel_construction needs n >= 2, got {n}")
    h = (n + 1) // 2
    pairs = list(combinations(range(1, h + 1), 2)) + list(combinations(range(h + 1, n + 1), 2))
    return tuple(sorted(pairs))


def verify_saturation(n: int, node_budget: int = 10**6) -> bool:
    """Check the saturation law: the complete cubic set over n variables
    needs exactly floor((n-1)^2/4) pair ancillas.

    Raises `BudgetExhaustedError` when the solver cannot prove optimality
    within the budget, so an inconclusive run is never reported as a
    violation of the law.
    """
    terms = {
        monomial(xvar(i) for i in t): 1 for t in combinations(range(1, n + 1), 3)
    }
    poly = Polynomial(n, terms)
    result = solve_ilp_exact(set_cover_to_ilp(build_set_cover(poly)), node_budget)
    if not result.proven_optimal:
        raise BudgetExhaustedError(
            f"node budget {node_budget} exhausted before proving the n={n} optimum"
        )
    return result.cost == quarter_squares(n)


def emit_lp(sc: SetCoverInstance) -> str:
    """LP-format text of the cover ILP for inspection with external solvers."""
    ncols = len(sc.candidates)
    lines = [f"/* minimum-ancilla set cover: {len(sc.universe)} terms, {ncols} candidate pairs */"]
    for j, p in enumerate(sc.candidates, start=1):
        lines.append(f"/* v{j} = pair {p[0]} {p[1]} */")
    lines.append("min: " + " ".join(f"+v{j}" for j in range(1, ncols + 1)) + ";")
    for i in range(len(sc.universe)):
        members = [j + 1 for j in range(ncols) if i in sc.covers[j]]
        lines.append(f"cover_{i + 1}: " + " ".join(f"+v{j}" for j in members) + " >= 1;")
    lines.append("binary " + ",".join(f"v{j}" for j in range(1, ncols + 1)) + ";")
    return "\n".join(lines) + "\n"
