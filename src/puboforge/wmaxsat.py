"""Ancilla selection for degree-3/4 instances as weighted MaxSAT.

Once quartic terms enter the picture, "which conjunctions get an ancilla"
stops being a plain set cover: a quartic term x_i x_j x_k x_l can be
rewritten with two disjoint pair ancillas (z_ij * z_kl) or by chaining a
triple ancilla (z_ijk * x_l), and a triple ancilla in turn needs one of
its own sub-pairs.  Those rules become clauses over one Boolean selector
per candidate ancilla:

* variables: one per pair that occurs inside some degree-3/4 term, one
  per triple inside a quartic term;
* soft clauses, weight 1: each selector prefers to be off (so the optimum
  is the minimum number of ancillas);
* hard clauses: a selected triple needs a selected sub-pair; each cubic
  term needs a selected pair inside it; each quartic term needs a fully
  selected disjoint-pair split or a selected triple inside it (expressed
  as 8 clauses, one per way of picking one pair from each of the three
  disjoint splits).

The hard weight is |variables| + 1 so no soft trade-off can pay for a
hard violation.  `solve_wmaxsat_exact` is a small branch-and-bound over
the selectors.  Its node state is the masks of selectors set true and
false and of satisfied clauses; each clause is a (positive, negative) pair;
unit propagation visits only the clauses of the selectors just assigned
(occurrence lists, as in Chaff).  The search starts with an upper bound,
`greedy_selection`, as its incumbent and a threshold one above its cost:
it finds the same first optimal leaf as a search from "every selector
on", at a subsequence of that search's nodes, and an exhausted budget
never falls back to "every selector on".
`apply_quartic_plan` turns a satisfying selection into an
exact quadratic reduction through the same `materialize` as the cubic
path.  The DIMACS-style ``.wcnf`` emitter lets an external MaxSAT solver
do the selection instead; `parse_model` reads its answer back.

Penalty weights.  An ancilla's group holds the signed coefficients of the
terms that depend on it: the terms whose product names it and, for a pair,
the terms chained through a triple built on it.  Its delta is
`delta_for_group` of the group (1 for an unused ancilla).  Proof that the
intended ancillas z*(x) are the unique minimizer of g(x, .), with
g(x, z*) = f(x).  Fix x and any z.

* Call an ancilla *penalized* when it differs from its penalty's
  reference, x_i*x_j for a pair and z_base*x_k for a triple.  Its penalty
  is then at least delta, otherwise 0.  If none is penalized, z = z*.
* A rewritten term alpha*P lowers g below f only if alpha > 0 and P
  drops 1 -> 0 (from z* to z), or alpha < 0 and P rises 0 -> 1.  Then
  some ancilla factor moved that way.  A moved pair differs from x_i*x_j,
  so it is penalized; a moved triple that is not penalized agrees with
  z_base*x_k, so its base pair moved the same way.  Either way a penalized
  ancilla whose group holds the term sits below its reference (alpha > 0)
  or above it (alpha < 0).  Charge |alpha| to that ancilla.
* A penalized ancilla takes charges of one sign only, from its own
  group: at most max(sum of positives, -(sum of negatives)) = delta - 1.
* So g(x, z) - f(x) is at least the number of penalized ancillas, which
  is positive for every z != z*.  This covers pair*pair products and
  chains; the cubic gadgets are the case with pair ancillas only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from puboforge.gadgets import (
    Pair,
    PairAncilla,
    ReducedInstance,
    Triple,
    TripleAncilla,
    delta_for_group,
    materialize,
)
from puboforge.poly import Monomial, ParseError, Polynomial, PuboError, Var, avar, int_fields, monomial, text_lines, xvar

Clause = tuple[int, ...]


@dataclass(frozen=True)
class WmaxsatInstance:
    """Selector variables and clauses for one ancilla-selection problem.

    Variables are numbered from 1: pairs first in lexicographic order,
    then triples.  Clauses are literal tuples; a negative literal negates
    the variable with that index.  The soft clauses (one `(-v,)` per
    selector, weight 1) and the hard weight `top` follow from the
    selectors, so they are derived rather than stored.
    """

    pairs: tuple[Pair, ...]
    triples: tuple[Triple, ...]
    hard: tuple[Clause, ...]

    @property
    def num_vars(self) -> int:
        return len(self.pairs) + len(self.triples)

    @property
    def soft(self) -> tuple[Clause, ...]:
        return tuple((-v,) for v in range(1, self.num_vars + 1))

    @property
    def top(self) -> int:
        return self.num_vars + 1

    def index_of(self, candidate: Pair | Triple) -> int:
        if len(candidate) == 2:
            return 1 + self.pairs.index(candidate)  # type: ignore[arg-type]
        return 1 + len(self.pairs) + self.triples.index(candidate)  # type: ignore[arg-type]

    def descriptor(self, index: int) -> Pair | Triple:
        if not 1 <= index <= self.num_vars:
            raise ValueError(f"selector index {index} out of range")
        if index <= len(self.pairs):
            return self.pairs[index - 1]
        return self.triples[index - 1 - len(self.pairs)]


def build_wmaxsat(poly: Polynomial) -> WmaxsatInstance:
    """Encode the ancilla-selection problem for poly's degree-3/4 terms."""
    cubic = sorted(poly.cubic_terms())
    quartic = sorted(poly.quartic_terms())
    pair_set: set[Pair] = set()
    for term in cubic + quartic:  # type: ignore[operator]
        pair_set.update(combinations(term, 2))
    triple_set: set[Triple] = set()
    for term in quartic:
        triple_set.update(combinations(term, 3))
    pairs = tuple(sorted(pair_set))
    triples = tuple(sorted(triple_set))
    index: dict[tuple[int, ...], int] = {p: i + 1 for i, p in enumerate(pairs)}
    index.update({t: len(pairs) + 1 + i for i, t in enumerate(triples)})

    hard: list[Clause] = []
    for t in triples:
        hard.append((-index[t],) + tuple(index[b] for b in combinations(t, 2)))
    for term in cubic:
        hard.append(tuple(index[b] for b in combinations(term, 2)))
    for term in quartic:
        i, j, k, l = term
        splits = (
            ((i, j), (k, l)),
            ((i, k), (j, l)),
            ((i, l), (j, k)),
        )
        inner = tuple(index[t] for t in combinations(term, 3))
        for choice in product(*splits):
            hard.append(tuple(index[b] for b in choice) + inner)
    return WmaxsatInstance(pairs, triples, tuple(hard))


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WmaxsatResult:
    selection: frozenset[int]
    cost: int
    proven_optimal: bool
    nodes: int


def solve_wmaxsat_exact(instance: WmaxsatInstance, node_budget: int = 10**6) -> WmaxsatResult:
    """Minimize the number of selected ancillas subject to the hard clauses.

    Branch and bound over bitmasks.  A node is three ints: the selectors
    set true, those set false (bit v is selector v), and the clauses these
    satisfy.  A hard clause is a (positive, negative) mask pair, and each
    selector knows the clauses it occurs in positively and negatively.
    Unit propagation runs a worklist of clause bits: the root checks every
    clause, a child only the clauses of the selector it branched on and of
    each selector propagation forces.  The closure does not depend on the
    order, so the search prunes the same nodes as a full rescan would.  The
    bound adds, to the selections already made, a greedy packing of the
    unsatisfied clauses, in clause order, over disjoint free variables;
    clauses with a free negative literal cost nothing (switch that selector
    off) and are skipped.  It stops once it reaches the incumbent, which
    prunes exactly when the full bound would, so the tree is unchanged.
    Branching takes the free selector in the most unsatisfied clauses (ties
    to the lowest index), or the lowest free selector when none is
    unsatisfied, trying False first.

    Upper bound: before the first node, `greedy_selection` becomes the
    incumbent when it is cheaper than every selector on, and only leaves
    below its cost + 1 are accepted, so a leaf of the greedy cost still
    replaces it.  Proven selections do not change: propagation, bound and
    branching depend only on the node, so a complete search whose threshold
    starts above the optimum returns the first leaf of optimal cost in
    depth-first order, whether it starts at the greedy cost + 1 or at
    every selector on (when nothing is cheaper than every selector on, the
    two starts are the same).  The threshold is never above the all-on
    search's at the same point of the walk, so the nodes visited are a
    subsequence of that search's.  Exhausting the node budget (counting
    expanded nodes only) returns, unproven, the incumbent: a leaf no
    costlier than the greedy selection, or that selection itself.
    """
    nvars = instance.num_vars
    if nvars == 0:
        return WmaxsatResult(frozenset(), 0, True, 0)
    clauses, pos_occ, neg_occ = _clause_masks(instance)
    occ = [p | n for p, n in zip(pos_occ, neg_occ)]
    all_vars = (1 << nvars + 1) - 2
    greedy = _greedy_mask(clauses, pos_occ, nvars)
    best_true = all_vars if greedy is None else greedy
    best_cost = min(nvars, best_true.bit_count() + 1)
    nodes, exhausted = 0, False

    def propagate(true: int, false: int, sat: int, work: int) -> tuple[int, int, int] | None:
        """Force unit clauses reachable from the work bits; None on conflict."""
        while work:
            low = work & -work
            work ^= low
            if low & sat:
                continue
            _, pos, neg = clauses[low.bit_length() - 1]
            free_pos, free_neg = pos & ~false, neg & ~true
            if free_pos and not free_neg and not free_pos & (free_pos - 1):
                true |= free_pos
                v = free_pos.bit_length() - 1
                work |= occ[v]
                sat |= pos_occ[v]
            elif free_neg and not free_pos and not free_neg & (free_neg - 1):
                false |= free_neg
                v = free_neg.bit_length() - 1
                work |= occ[v]
                sat |= neg_occ[v]
            elif not (free_pos or free_neg):
                return None
        return true, false, sat

    def dfs(true: int, false: int, sat: int, work: int) -> None:
        nonlocal best_true, best_cost, nodes, exhausted
        if nodes >= node_budget:
            exhausted = True
            return
        nodes += 1
        state = propagate(true, false, sat, work)
        if state is None:
            return
        true, false, sat = state
        bound = trues = true.bit_count()
        if bound >= best_cost:
            return
        unsat = rest = all_clauses & ~sat
        used = touched = 0
        not_true, not_false = ~true, ~false
        while rest:
            low = rest & -rest
            rest ^= low
            _, pos, neg = clauses[low.bit_length() - 1]
            touched |= pos | neg
            if neg & not_true:
                continue
            free_pos = pos & not_false
            if not free_pos & used:
                used |= free_pos
                bound += 1
                if bound >= best_cost:
                    return
        free = all_vars & ~(true | false)
        if unsat:
            candidates = touched & free
            v = score = 0
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                u = low.bit_length() - 1
                s = (occ[u] & unsat).bit_count()
                if s > score:
                    v, score = u, s
        elif free:
            v = (free & -free).bit_length() - 1
        else:
            best_true, best_cost = true, trues
            return
        dfs(true, false | 1 << v, sat | neg_occ[v], occ[v])
        dfs(true | 1 << v, false, sat | pos_occ[v], occ[v])

    all_clauses = (1 << len(clauses)) - 1
    dfs(0, 0, 0, all_clauses)
    return WmaxsatResult(_selection(best_true, nvars), best_true.bit_count(), not exhausted, nodes)


def greedy_selection(instance: WmaxsatInstance) -> frozenset[int] | None:
    """A feasible selection built by switching selectors on one at a time.

    Starting from none, switch on the selector that occurs positively in
    the most unsatisfied hard clauses, ties to the lowest index, until no
    clause is unsatisfied.  None when an unsatisfied clause has no
    positive literal left to switch on.
    """
    clauses, pos_occ, _ = _clause_masks(instance)
    on = _greedy_mask(clauses, pos_occ, instance.num_vars)
    return None if on is None else _selection(on, instance.num_vars)


def _greedy_mask(clauses: list[tuple[int, int, int]], pos_occ: list[int], nvars: int) -> int | None:
    """`greedy_selection` as a mask of selector bits, from `_clause_masks`."""
    on = 0
    while True:
        unsat = sum(bit for bit, pos, neg in clauses if not (pos & on or neg & ~on))
        if not unsat:
            return on
        # A selector that is still off occurs in an unsatisfied clause only positively.
        score, neg_v = max(
            (((pos_occ[u] & unsat).bit_count(), -u) for u in range(1, nvars + 1) if not on >> u & 1), default=(0, 0)
        )
        if not score:
            return None
        on |= 1 << -neg_v


def _selection(mask: int, nvars: int) -> frozenset[int]:
    return frozenset(v for v in range(1, nvars + 1) if mask >> v & 1)


def _clause_masks(instance: WmaxsatInstance) -> tuple[list[tuple[int, int, int]], list[int], list[int]]:
    """Each hard clause c as (1 << c, positive selector mask, negative
    selector mask), and for each selector the masks of the clauses it occurs
    in positively and negatively."""
    clauses: list[tuple[int, int, int]] = []
    pos_occ = [0] * (instance.num_vars + 1)
    neg_occ = pos_occ.copy()
    for c, clause in enumerate(instance.hard):
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << lit
                pos_occ[lit] |= 1 << c
            else:
                neg |= 1 << -lit
                neg_occ[-lit] |= 1 << c
        clauses.append((1 << c, pos, neg))
    return clauses, pos_occ, neg_occ


def selection_satisfies(instance: WmaxsatInstance, selection: frozenset[int]) -> bool:
    """True when every hard clause is satisfied by the given selection."""
    for clause in instance.hard:
        if not any((lit > 0) == (abs(lit) in selection) for lit in clause):
            return False
    return True


# ---------------------------------------------------------------------------
# Turning a selection into an exact quadratic reduction
# ---------------------------------------------------------------------------


def decode_ancilla_set(
    instance: WmaxsatInstance, selection: frozenset[int]
) -> tuple[list[Pair], dict[Triple, Pair]]:
    """Selected pairs, and for each selected triple its base pair.

    The base pair must itself be selected; among the selected sub-pairs,
    the one contained in the most other selected triples wins (so chains
    share bases where possible), ties going to the smallest pair.
    """
    selected_pairs = [p for p in instance.pairs if instance.index_of(p) in selection]
    selected_triples = [t for t in instance.triples if instance.index_of(t) in selection]
    pair_set = set(selected_pairs)
    via: dict[Triple, Pair] = {}
    for t in selected_triples:
        options = [b for b in combinations(t, 2) if b in pair_set]
        if not options:
            raise PuboError(f"selected triple {t} has no selected sub-pair")
        def sharing(b: Pair) -> int:
            return sum(1 for u in selected_triples if u != t and set(b) <= set(u))
        best = max(sharing(b) for b in options)
        via[t] = min(b for b in options if sharing(b) == best)
    return selected_pairs, via


def apply_quartic_plan(
    poly: Polynomial, instance: WmaxsatInstance, selection: frozenset[int]
) -> ReducedInstance:
    """Reduce a degree-<=4 polynomial using the selected ancillas.

    Cubic terms ride on the smallest selected pair inside them.  Quartic
    terms prefer the smallest fully selected disjoint-pair split (a
    product of two pair ancillas); otherwise they chain through the
    smallest selected triple.  Every selected ancilla is materialized,
    used or not, so the ancilla count always equals the selection size.
    Penalty weights follow the group rule in the module docstring.
    """
    selected_pairs, via = decode_ancilla_set(instance, selection)
    ancillas: list[Pair | Triple] = selected_pairs + sorted(via)
    z = {c: avar(slot) for slot, c in enumerate(ancillas)}
    group: dict[Pair | Triple, list[int]] = {c: [] for c in ancillas}
    products: dict[Monomial, int] = {}

    def route(alpha: int, factors: list[Var], dependents: tuple) -> None:
        products[monomial(factors)] = alpha
        for c in dependents:
            group[c].append(alpha)

    for term, alpha in sorted(poly.cubic_terms().items()):
        options = [b for b in combinations(term, 2) if b in z]
        if not options:
            raise PuboError(f"selection cannot reduce cubic term {term}")
        base = min(options)
        route(alpha, [z[base], xvar((set(term) - set(base)).pop())], (base,))

    for term, alpha in sorted(poly.quartic_terms().items()):
        i, j, k, l = term
        splits = (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
        split = next((s for s in splits if s[0] in z and s[1] in z), None)
        if split is not None:
            route(alpha, [z[split[0]], z[split[1]]], split)
            continue
        inner = [t for t in combinations(term, 3) if t in via]
        if not inner:
            raise PuboError(f"selection cannot reduce quartic term {term}")
        t = min(inner)
        route(alpha, [z[t], xvar((set(term) - set(t)).pop())], (t, via[t]))

    defs = [PairAncilla(*c) if len(c) == 2 else TripleAncilla(via[c], (set(c) - set(via[c])).pop()) for c in ancillas]
    return materialize(poly, defs, products, [delta_for_group(group[c] or [0]) for c in ancillas])


# ---------------------------------------------------------------------------
# .wcnf text format (DIMACS weighted CNF, with a selector map in comments)
# ---------------------------------------------------------------------------


def emit_wcnf(instance: WmaxsatInstance) -> str:
    """Serialize to DIMACS wcnf; comments record what each selector means."""
    lines = [f"p wcnf {instance.num_vars} {len(instance.hard) + len(instance.soft)} {instance.top}"]
    for v in range(1, instance.num_vars + 1):
        desc = instance.descriptor(v)
        kind = "pair" if len(desc) == 2 else "triple"
        lines.append(f"c var {v} = {kind} {' '.join(str(i) for i in desc)}")
    for clause in instance.hard:
        lines.append(f"{instance.top} {' '.join(str(lit) for lit in clause)} 0")
    for clause in instance.soft:
        lines.append(f"1 {' '.join(str(lit) for lit in clause)} 0")
    return "\n".join(lines) + "\n"


def parse_wcnf(text: str) -> WmaxsatInstance:
    """Parse wcnf text produced by `emit_wcnf` (selector comments required).

    The soft clauses and the top weight must be the derived ones: one
    `1 -v 0` per selector (in any order) and top = selectors + 1.
    """
    top: int | None = None
    declared_vars = declared_clauses = 0
    pairs: list[Pair] = []
    triples: list[Triple] = []
    hard: list[Clause] = []
    soft: set[int] = set()
    for lineno, line, fields in text_lines(text, None):
        if fields[0] == "p":
            if top is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 5 or fields[1] != "wcnf":
                raise ParseError("expected 'p wcnf <vars> <clauses> <top>'", lineno)
            declared_vars, declared_clauses, top = int_fields(fields[2:], lineno, "header fields must be integers")
            if top != declared_vars + 1:
                raise ParseError(f"top weight must be selectors + 1 = {declared_vars + 1}", lineno)
            continue
        if fields[0] == "c":
            if len(fields) >= 5 and fields[1] == "var" and fields[3] == "=":
                index, *ints = int_fields(fields[2:3] + fields[5:], lineno, "malformed selector comment")
                kind = fields[4]
                if kind == "pair" and len(ints) == 2:
                    if triples or index != len(pairs) + 1:
                        raise ParseError("selector comments out of order", lineno)
                    pairs.append(tuple(ints))  # type: ignore[arg-type]
                elif kind == "triple" and len(ints) == 3:
                    if index != len(pairs) + len(triples) + 1:
                        raise ParseError("selector comments out of order", lineno)
                    triples.append(tuple(ints))  # type: ignore[arg-type]
                else:
                    raise ParseError("malformed selector comment", lineno)
            continue
        if top is None:
            raise ParseError("clause before header", lineno)
        numbers = int_fields(fields, lineno, "unrecognized line {!r}", line)
        if len(numbers) < 2 or numbers[-1] != 0:
            raise ParseError("clause lines are '<weight> <literals> 0'", lineno)
        weight, lits = numbers[0], tuple(numbers[1:-1])
        for lit in lits:
            if lit == 0 or abs(lit) > declared_vars:
                raise ParseError(f"literal {lit} out of range", lineno)
        if weight == top:
            hard.append(lits)
        elif weight == 1:
            if len(lits) != 1 or lits[0] > 0 or -lits[0] in soft:
                raise ParseError("soft clauses are '1 -v 0', once per selector v", lineno)
            soft.add(-lits[0])
        else:
            raise ParseError(f"unsupported clause weight {weight}", lineno)
    if top is None:
        raise ParseError("missing 'p wcnf' header", 1)
    if len(pairs) + len(triples) != declared_vars:
        raise ParseError(
            f"header declares {declared_vars} selectors but comments define "
            f"{len(pairs) + len(triples)}",
            1,
        )
    if len(hard) + len(soft) != declared_clauses:
        raise ParseError(
            f"header declares {declared_clauses} clauses but found {len(hard) + len(soft)}", 1
        )
    if len(soft) != declared_vars:
        raise ParseError(f"{declared_vars} selectors but {len(soft)} soft clauses", 1)
    return WmaxsatInstance(tuple(pairs), tuple(triples), tuple(hard))


def parse_model(text: str) -> frozenset[int]:
    """Read a MaxSAT solver model: true selector indices from 'v' lines.

    Accepts the usual output style: 'v' lines listing signed literals
    (possibly 0-terminated), 'c'/'s'/'o' lines ignored.  Lines that are
    nothing but signed integers are accepted too; any other line is solver
    chatter and skipped, but a 'v' line with a non-integer field is a
    ParseError, since skipping it would drop selectors.
    """
    true_vars: set[int] = set()
    saw_values = False
    for lineno, line, fields in text_lines(text, None):
        if fields[0] in {"c", "s", "o", "p"}:
            continue
        if fields[0] == "v":
            values = int_fields(fields[1:], lineno, "non-integer literal in model line {!r}", line)
        else:
            try:
                values = [int(f) for f in fields]
            except ValueError:
                continue
        saw_values = True
        true_vars.update(v for v in values if v > 0)
    if not saw_values:
        raise PuboError("model text contains no literal values")
    return frozenset(true_vars)


def selection_from_model(instance: WmaxsatInstance, model: frozenset[int]) -> frozenset[int]:
    """Validate an external model against the hard clauses."""
    for v in model:
        if not 1 <= v <= instance.num_vars:
            raise PuboError(f"model names selector {v}, but there are {instance.num_vars}")
    if not selection_satisfies(instance, model):
        raise PuboError("model does not satisfy the hard clauses")
    return model
