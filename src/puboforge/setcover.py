"""Minimum-ancilla planning via set cover.

Grouping lets one pair ancilla absorb every cubic term containing that
pair, so the smallest number of ancillas for a cubic polynomial is the
smallest set of pairs hitting every term: a set cover whose universe is the
cubic term set and whose candidates are the pairs inside those terms (each
term is covered by exactly its three own pairs).

The cover has one form from construction to solver, plan and LP text:
candidate j is an int bitmask whose bit i stands for universe row i, and
the 0-1 integer program (fewest candidates covering every row) is just
these masks plus the row count.  `solve_ilp_exact` solves it exactly by
branch-and-bound, pruning with `cover_bound`.  With U the uncovered rows
and cmax the largest gain (a candidate's count of rows in U), pack rows of
U with pairwise disjoint candidate sets, greedily in row order; each needs
its own candidate, and those cover at most reach rows, the sum of each
packed row's largest gain.  Any other candidate covers at most cmax, so at
least packing + ceil(max(0, |U| - reach) / cmax) are needed.  This is never
below the textbook max(ceil(|U| / cmax), packing) (Caprara, Toth &
Fischetti, Ann. Oper. Res. 98, 2000), as reach <= packing * cmax.  The
one ReduceMin rule, `_greedy_cover` (most uncovered rows, ties to the
lowest index, i.e. the smallest pair), plans `reduce_min_greedy` and gives
the solver its incumbent, so budget exhaustion still returns a valid plan.

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
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

from puboforge.poly import Polynomial, PuboError, monomial, xvar
from puboforge.gadgets import GadgetMode, Pair, PlanError, ReductionPlan, Triple


class BudgetExhaustedError(PuboError):
    """The exact solver ran out of nodes before proving optimality."""


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe of cubic terms plus candidate pairs and their coverage masks."""

    universe: tuple[Triple, ...]
    candidates: tuple[Pair, ...]
    covers: tuple[int, ...]  # per candidate: bit i set when it covers universe[i]


@dataclass(frozen=True)
class IlpResult:
    selection: tuple[int, ...]
    cost: int
    proven_optimal: bool
    nodes: int


# The set bits of each byte value, for `_bits`.
_BYTE_BITS = [tuple(b for b in range(8) if v >> b & 1) for v in range(256)]


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, in increasing order."""
    octets = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * k + b for k, octet in enumerate(octets) for b in _BYTE_BITS[octet]]


def build_set_cover(poly: Polynomial) -> SetCoverInstance:
    """Set-cover view of a degree-<=3 polynomial's cubic terms."""
    if poly.degree() > 3:
        raise PuboError("set-cover planning handles degree <= 3; route degree-4 input through the quartic pipeline")
    universe = tuple(sorted(poly.cubic_terms()))
    masks: dict[Pair, int] = {}
    for i, t in enumerate(universe):
        for p in combinations(t, 2):
            masks[p] = masks.get(p, 0) | 1 << i
    pairs = tuple(sorted(masks))
    return SetCoverInstance(universe, pairs, tuple(masks[p] for p in pairs))


def set_cover_to_ilp(sc: SetCoverInstance) -> SetCoverInstance:
    """The cover itself: its masks and row count already are the 0-1 ILP
    that `solve_ilp_exact` takes.  Kept so callers written as
    ``solve_ilp_exact(set_cover_to_ilp(sc))`` keep working."""
    return sc


def _greedy_cover(columns: Sequence[int], nrows: int) -> list[tuple[int, int]]:
    """ReduceMin over column masks: (column, rows it claims) in pick order.

    Gains only fall as rows are covered, so the heap holds stale upper
    bounds: a popped column whose recomputed gain is unchanged beats every
    other, and one whose gain fell is pushed back (Minoux's lazy greedy;
    the picks and the lowest-index tie-break equal a full rescan's).
    """
    uncovered = (1 << nrows) - 1
    heap = [(-mask.bit_count(), j) for j, mask in enumerate(columns) if mask]
    heapq.heapify(heap)
    picks: list[tuple[int, int]] = []
    while uncovered:
        if not heap:
            raise PuboError("cover instance has an uncoverable row")
        neg_gain, j = heapq.heappop(heap)
        claimed = columns[j] & uncovered
        gain = claimed.bit_count()
        if gain == -neg_gain:
            picks.append((j, claimed))
            uncovered ^= claimed
        elif gain:
            heapq.heappush(heap, (-gain, j))
    return picks


def cover_bound(uncovered: int, single: int, dead: int, limit: int, gains: list[int], columns: Sequence[int], row_cols: list[list[int]]) -> tuple[int, int]:
    """The module docstring's lower bound on the columns needed for the nonzero
    ``uncovered`` rows (above the row count if one is in ``dead``, left with no
    allowed column), and the allowed column of the lowest uncovered row in
    ``single`` (one left), else -1.  Row i's columns are ``row_cols[i]``, and
    ``gains[j]`` counts column j's uncovered rows, or is <= 0 once j is banned:
    an uncovered row's allowed columns are those of positive gain.  A packed
    row blocks the rows of its allowed columns, so only packed rows are
    visited; the packing stops when it reaches ``limit``, so the value is
    >= ``limit`` exactly when the full bound is, and equal to it below."""
    if dead & uncovered:
        return len(row_cols) + 1, -1
    packing = reach = 0
    avail = uncovered
    while avail:
        packing += 1
        if packing >= limit:
            return packing, -1
        best = 0
        for j in row_cols[(avail & -avail).bit_length() - 1]:
            g = gains[j]
            if g > 0:
                avail &= ~columns[j]
                if g > best:
                    best = g
        reach += best
    forced, single = -1, single & uncovered
    if single:
        forced = next(j for j in row_cols[(single & -single).bit_length() - 1] if gains[j] > 0)
    return packing + -(-max(0, uncovered.bit_count() - reach) // max(gains)), forced


def solve_ilp_exact(sc: SetCoverInstance, node_budget: int = 10**6) -> IlpResult:
    """Exact branch-and-bound for the cover ILP.

    Depth first from the greedy incumbent: force the first uncovered row's
    last column, else take, then ban, the column of largest gain (ties to
    the lowest index).  Each node carries the gains and the row masks of
    `cover_bound`; a take lowers the gains of each newly covered row's
    columns, a ban zeroes the column's own and recounts its uncovered rows.
    As `cover_bound` is never below the max(ceil(|U| / cmax), packing) bound
    this search pruned with before, it visits a subsequence of that search's
    nodes and finds the same incumbents: a proven result is the same
    selection.  The masks and the stop at the incumbent's limit give the
    same forced columns and prunes as a rescan of every row, so the tree is
    the same.  Exhausting ``node_budget`` (counting expanded nodes only)
    returns the best incumbent (never worse than greedy) with
    ``proven_optimal=False``."""
    nrows, cover_masks = len(sc.universe), sc.covers
    row_cols: list[list[int]] = [[] for _ in range(nrows)]
    for j, mask in enumerate(cover_masks):
        for i in _bits(mask):
            row_cols[i].append(j)

    greedy = _greedy_cover(cover_masks, nrows)
    best_mask, best_cost = sum(1 << j for j, _ in greedy), len(greedy)
    nodes, exhausted = 0, False

    def take(gains: list[int], uncovered: int, j: int) -> int:
        """Cover column j's rows in ``gains`` (in place); the rows left."""
        for i in _bits(cover_masks[j] & uncovered):
            for k in row_cols[i]:
                gains[k] -= 1
        return uncovered & ~cover_masks[j]

    def recount(gains: list[int], rows: int, single: int, dead: int) -> tuple[int, int]:
        """``single`` and ``dead`` with the uncovered ``rows`` recounted."""
        for i in _bits(rows):
            left, bit = sum(gains[j] > 0 for j in row_cols[i]), 1 << i
            single = single | bit if left == 1 else single & ~bit
            dead = dead | bit if left == 0 else dead
        return single, dead

    def dfs(uncovered: int, single: int, dead: int, gains: list[int], chosen_mask: int, nchosen: int) -> None:
        nonlocal best_mask, best_cost, nodes, exhausted
        if nodes >= node_budget:
            exhausted = True
            return
        nodes += 1
        while True:
            if uncovered == 0:
                if nchosen < best_cost:
                    best_cost, best_mask = nchosen, chosen_mask
                return
            bound, forced = cover_bound(uncovered, single, dead, best_cost - nchosen, gains, cover_masks, row_cols)
            if nchosen + bound >= best_cost:
                return
            if forced < 0:
                break
            # Force the candidate that is the last option for some row.
            chosen_mask |= 1 << forced
            nchosen += 1
            uncovered = take(gains, uncovered, forced)
        # Branch on the candidate covering the most uncovered rows.
        best_j = gains.index(max(gains))
        child = gains.copy()
        dfs(take(child, uncovered, best_j), single, dead, child, chosen_mask | (1 << best_j), nchosen + 1)
        gains[best_j] = 0
        dfs(uncovered, *recount(gains, cover_masks[best_j] & uncovered, single, dead), gains, chosen_mask, nchosen)

    full, gains = (1 << nrows) - 1, [mask.bit_count() for mask in cover_masks]
    dfs(full, *recount(gains, full, 0, 0), gains, 0, 0)
    return IlpResult(tuple(best_mask >> j & 1 for j in range(len(cover_masks))), best_cost, not exhausted, nodes)


def plan_from_cover(
    sc: SetCoverInstance,
    selection: tuple[int, ...],
    poly: Polynomial,
    mode: GadgetMode = GadgetMode.SINGLE,
) -> ReductionPlan:
    """Turn a candidate selection into a reduction plan.

    Each term goes to the lowest-index, so lexicographically smallest,
    selected pair covering it.
    """
    picks, unowned = [], (1 << len(sc.universe)) - 1
    for j, v in enumerate(selection):
        if v:
            picks.append((j, sc.covers[j] & unowned))
            unowned &= ~sc.covers[j]
    if unowned:
        raise PlanError(f"selection does not cover cubic term {sc.universe[_bits(unowned)[0]]}")
    return _plan(sc, picks, poly, mode)


def _plan(
    sc: SetCoverInstance, picks: list[tuple[int, int]], poly: Polynomial, mode: GadgetMode
) -> ReductionPlan:
    """The plan giving each (column, rows) pick's rows to the column's pair."""
    assignments = {}
    for j, rows in picks:
        pair = sc.candidates[j]
        assignments[pair] = {(set(sc.universe[i]) - set(pair)).pop() for i in _bits(rows)}
    return ReductionPlan.from_assignment(poly, assignments, mode)


def reduce_min_greedy(poly: Polynomial, mode: GadgetMode = GadgetMode.SINGLE) -> ReductionPlan:
    """ReduceMin: repeatedly give the most popular remaining pair an ancilla.

    Picks the pair contained in the most remaining cubic terms (ties to the
    lexicographically smallest pair), assigns those terms to it, and repeats.
    """
    sc = build_set_cover(poly)
    return _plan(sc, _greedy_cover(sc.covers, len(sc.universe)), poly, mode)


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
    result = solve_ilp_exact(build_set_cover(poly), node_budget)
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
        members = " ".join(f"+v{j}" for j, mask in enumerate(sc.covers, start=1) if mask >> i & 1)
        lines.append(f"cover_{i + 1}: {members} >= 1;")
    lines.append("binary " + ",".join(f"v{j}" for j in range(1, ncols + 1)) + ";")
    return "\n".join(lines) + "\n"
