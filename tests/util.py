"""Shared test helpers: polynomial algebra and plan measures the library
does not need, instance builders, brute-force oracles, and slow reference
implementations.

The oracles here use only term data plus exhaustive enumeration,
independent of the reduction code paths and of the verifier under test.
"""

from dataclasses import dataclass, field
from itertools import combinations, product

from puboforge.gadgets import (
    AncillaDef,
    GadgetMode,
    Pair,
    PairAncilla,
    PairCopyAncilla,
    PlanError,
    ReducedInstance,
    ReductionPlan,
    Triple,
    TripleAncilla,
    beta_split,
    delta_for_group,
    penalty_s,
)
from puboforge.poly import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    Monomial,
    Polynomial,
    PuboError,
    Var,
    avar,
    control_precision,
    monomial,
    value_table,
    xvar,
)
from puboforge.setcover import IlpResult
from puboforge.verify import VerificationReport
from puboforge.wmaxsat import WmaxsatInstance, WmaxsatResult, decode_ancilla_set


def poly_of(n, entries, const=0):
    """Build a polynomial from {index-tuple: coeff}; () keys not allowed here."""
    terms = {monomial([xvar(i) for i in mono]): c for mono, c in entries.items()}
    if const:
        terms[()] = const
    return Polynomial(n, terms)


def random_poly(rng, n, nterms, max_degree=4, allow_constant=True, coeff_range=8):
    terms = {}
    for _ in range(nterms):
        d = rng.randint(0 if allow_constant else 1, min(max_degree, n))
        if d == 0:
            terms[()] = rng.randint(-coeff_range, coeff_range)
            continue
        mono = monomial([xvar(i) for i in rng.sample(range(1, n + 1), d)])
        terms[mono] = rng.choice([c for c in range(-coeff_range, coeff_range + 1) if c])
    return Polynomial(n, terms)


def random_cubic_poly(rng, n, lam, coeff_range=8, quadratic_layer=False):
    """lam distinct cubic terms; optionally every quadratic term as well."""
    nonzero = [c for c in range(-coeff_range, coeff_range + 1) if c]
    triples = sorted(combinations(range(1, n + 1), 3))
    chosen = rng.sample(triples, lam)
    terms = {}
    if quadratic_layer:
        for pair in combinations(range(1, n + 1), 2):
            terms[monomial([xvar(i) for i in pair])] = rng.choice(nonzero)
    for t in sorted(chosen):
        terms[monomial([xvar(i) for i in t])] = rng.choice(nonzero)
    return Polynomial(n, terms)


def computational_assignments(n):
    for bits in product((0, 1), repeat=n):
        yield bits, {xvar(i + 1): bits[i] for i in range(n)}


def ancilla_table(reduced, x):
    """Value of the reduced quadratic at fixed x for every ancilla pattern.

    Entry `code` has ancilla slot s set to bit s of code.  With x fixed,
    each term becomes a constant, a linear or a pairwise term over the
    ancilla bits; the table doubles once per slot, adding that slot's
    linear coefficient and its couplings to the lower slots.
    """
    slots = len(reduced.registry)
    const = 0
    linear = [0] * slots
    coupling = {}
    for m, c in reduced.quadratic:
        if not all(x[v] for v in m if not v.is_ancilla):
            continue
        anc = [v.index for v in m if v.is_ancilla]
        if not anc:
            const += c
        elif len(anc) == 1:
            linear[anc[0]] += c
        else:
            coupling[tuple(anc)] = coupling.get(tuple(anc), 0) + c
    table = [const]
    for s in range(slots):
        row = [linear[s]]  # added when slot s is on, indexed by the lower slots
        for t in range(s):
            q = coupling.get((t, s), 0)
            row += [v + q for v in row]
        table += [v + r for v, r in zip(table, row)]
    return table


def min_over_ancilla(reduced, x):
    """Minimum of the reduced quadratic over all ancilla bits, x fixed."""
    return min(ancilla_table(reduced, x))


def pointwise_matches(original, reduced):
    """True iff min over ancilla equals the original value at every point."""
    for _, x in computational_assignments(original.n):
        if min_over_ancilla(reduced, x) != original.evaluate(x):
            return False
    return True


def strictly_dominant(reduced, x):
    """At fixed x: intended ancilla bits are the unique minimizer."""
    table = ancilla_table(reduced, x)
    code = sum(bit << v.index for v, bit in intended_ancilla_bits(reduced, x).items())
    return all(value > table[code] for other, value in enumerate(table) if other != code)


def random_quartic(rng, n, coeffs=(-2, -1, 1, 2)):
    """Random degree-4 instance: 1-3 quartic, 0-4 cubic, 0-6 quadratic terms."""
    terms = {}
    for d, count in ((4, rng.randint(1, 3)), (3, rng.randint(0, 4)), (2, rng.randint(0, 6))):
        subsets = list(combinations(range(1, n + 1), d))
        for t in rng.sample(subsets, min(count, len(subsets))):
            terms[monomial([xvar(v) for v in t])] = rng.choice(coeffs)
    return Polynomial(n, terms)


def chain_selection(rng, poly, instance):
    """Selectors that push each quartic term through a triple ancilla chain."""
    chosen = set()
    for term in poly.quartic_terms():
        triple = rng.choice(list(combinations(term, 3)))
        chosen.add(instance.index_of(triple))
        chosen.add(instance.index_of(rng.choice(list(combinations(triple, 2)))))
    for term in poly.cubic_terms():
        chosen.add(instance.index_of(rng.choice(list(combinations(term, 2)))))
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# Polynomial algebra, exhaustive minimization and plan measures that only the
# tests use; the compiler itself never needs them.
# ---------------------------------------------------------------------------


def poly_add(p: Polynomial, q: Polynomial) -> Polynomial:
    """p + q over the same declared variables."""
    if p.n != q.n:
        raise ValueError(f"cannot add polynomials over {p.n} and {q.n} variables")
    acc = dict(p)
    for m, c in q:
        acc[m] = acc.get(m, 0) + c
    return Polynomial(p.n, acc)


def poly_scale(k: int, p: Polynomial) -> Polynomial:
    """k * p for an integer k."""
    return Polynomial(p.n, {m: k * c for m, c in p})


@dataclass(frozen=True)
class BruteForceResult:
    """Full argmin of a polynomial over its variables.

    ``minimizers`` holds bit tuples aligned with ``variables`` (computational
    variables first, then referenced ancillas).
    """

    value: int
    minimizers: frozenset[tuple[int, ...]]
    variables: tuple[Var, ...]


def brute_force_minima(poly: Polynomial, cap: int = DEFAULT_ENUMERATION_CAP) -> BruteForceResult:
    """Minimum value and complete argmin set by exhaustive enumeration.

    The search space is 2**v over all declared computational variables plus
    referenced ancillas; ``cap`` bounds v to keep run time sane.
    """
    vs = tuple(xvar(i) for i in range(1, poly.n + 1)) + poly.referenced_ancillas()
    v = len(vs)
    if v > cap:
        raise CapExceededError(f"{v} variables exceed enumeration cap {cap}")
    position = {var: i for i, var in enumerate(vs)}
    table = value_table({sum(1 << position[var] for var in m): c for m, c in poly}, v)
    best = min(table)
    argmin = [code for code, total in enumerate(table) if total == best]
    bits = frozenset(tuple((code >> i) & 1 for i in range(v)) for code in argmin)
    return BruteForceResult(best, bits, vs)


def max_introduced_coefficient(plan: ReductionPlan, poly: Polynomial) -> int:
    """Largest |coefficient| among the terms a plan adds or modifies.

    Per pair these are the penalty coefficients (3*delta dominates) and the
    merged x_i*x_j coefficient (source alpha_ij plus the sum of deltas);
    the grouped product coefficients are always strictly below 3*delta.
    """
    best = 0
    for pair in plan.pairs():
        i, j = pair
        total_delta = 0
        for m in plan.copies():
            d = plan.deltas[(pair, m)]
            best = max(best, 3 * d)
            total_delta += d
        best = max(best, abs(poly.pair_coefficient(i, j) + total_delta))
    return best


def intended_ancilla_bits(reduced: ReducedInstance, x) -> dict[Var, int]:
    """The conjunction value each ancilla of ``reduced`` is meant to take under x."""
    out: dict[Var, int] = {}
    for slot, d in enumerate(reduced.registry):
        if isinstance(d, (PairAncilla, PairCopyAncilla)):
            out[avar(slot)] = x[xvar(d.i)] * x[xvar(d.j)]
        else:
            i, j, k = d.triple()
            out[avar(slot)] = x[xvar(i)] * x[xvar(j)] * x[xvar(k)]
    return out


# ---------------------------------------------------------------------------
# Slow reference implementations: planners that rescore (precision greedy)
# or recount (ReduceMin) every remaining term each round, and materializers
# that sum one scaled penalty polynomial per ancilla.  The incremental code
# in the package must match them exactly.
# ---------------------------------------------------------------------------


@dataclass
class GreedyState:
    """Remaining terms and the assignment built so far."""

    poly: Polynomial
    remaining: set[Triple]
    assignments: dict[Pair, set[int]] = field(default_factory=dict)
    cubic: dict[Triple, int] = field(init=False)

    def __post_init__(self) -> None:
        self.cubic = self.poly.cubic_terms()

    def group_coefficients(self, b: Pair) -> list[int]:
        return [
            self.cubic[tuple(sorted(b + (k,)))] for k in sorted(self.assignments.get(b, ()))
        ]


def cost_w(state: GreedyState, a: Triple, b: Pair) -> int:
    """Largest coefficient created around b's ancilla if term a joins the
    terms that the state already routes to b."""
    delta = delta_for_group(state.group_coefficients(b) + [state.cubic[a]])
    return max(3 * delta, abs(state.poly.pair_coefficient(*b) + delta))


def _best_pair(state: GreedyState, a: Triple) -> tuple[Pair, int]:
    """Cheapest pair for a; ties prefer rarer pairs, then lexicographic order."""
    scored = [(cost_w(state, a, b), b) for b in combinations(a, 2)]
    low = min(w for w, _ in scored)
    tied = [b for w, b in scored if w == low]
    if len(tied) > 1:
        occurrence = {
            b: sum(1 for t in state.remaining if set(b) <= set(t)) for b in tied
        }
        fewest = min(occurrence.values())
        tied = [b for b in tied if occurrence[b] == fewest]
    return min(tied), low


def reference_greedy_precision_plan(poly: Polynomial, mode: GadgetMode = GadgetMode.SINGLE) -> ReductionPlan:
    """Precision-aware grouping: hardest term first onto its cheapest pair."""
    state = GreedyState(poly, set(poly.cubic_terms()))
    while state.remaining:
        choices = {a: _best_pair(state, a) for a in sorted(state.remaining)}
        hardest = max(w for _, w in choices.values())
        d = min(a for a, (_, w) in choices.items() if w == hardest)
        pair = choices[d][0]
        third = (set(d) - set(pair)).pop()
        state.assignments.setdefault(pair, set()).add(third)
        state.remaining.remove(d)
    return ReductionPlan.from_assignment(poly, state.assignments, mode)


def reference_reduce_min_greedy(poly: Polynomial, mode: GadgetMode = GadgetMode.SINGLE) -> ReductionPlan:
    """ReduceMin: repeatedly give the most popular remaining pair an ancilla.

    Picks the pair contained in the most remaining cubic terms (ties to the
    lexicographically smallest pair), assigns those terms to it, and repeats.
    """
    remaining = set(poly.cubic_terms())
    assignments: dict[Pair, set[int]] = {}
    while remaining:
        counts: dict[Pair, int] = {}
        for t in remaining:
            for p in combinations(t, 2):
                counts[p] = counts.get(p, 0) + 1
        best_pair = min(p for p, c in counts.items() if c == max(counts.values()))
        claimed = {t for t in remaining if set(best_pair) <= set(t)}
        assignments[best_pair] = {(set(t) - set(best_pair)).pop() for t in claimed}
        remaining -= claimed
    return ReductionPlan.from_assignment(poly, assignments, mode)


def new_ancilla(defs: list[AncillaDef], definition: AncillaDef) -> Var:
    """Append a definition and return the ancilla variable of its slot."""
    defs.append(definition)
    return avar(len(defs) - 1)


def reference_apply_plan(poly: Polynomial, plan: ReductionPlan) -> ReducedInstance:
    """apply_plan as the sum of one scaled `penalty_s` polynomial per ancilla."""
    plan.validate(poly)
    cubic = poly.cubic_terms()
    acc: dict[Monomial, int] = {m: c for m, c in poly if len(m) < 3}
    defs: list[AncillaDef] = []
    penalties = Polynomial(poly.n, {})
    for pair in plan.pairs():
        i, j = pair
        ks = sorted(plan.assignments[pair])
        if plan.mode is GadgetMode.SINGLE:
            z = new_ancilla(defs, PairAncilla(i, j))
            for k in ks:
                alpha = cubic[tuple(sorted((i, j, k)))]
                m = monomial([z, xvar(k)])
                acc[m] = acc.get(m, 0) + alpha
            key = (pair, 1)
            penalties = poly_add(penalties, poly_scale(plan.deltas[key], penalty_s(xvar(i), xvar(j), z, poly.n)))
        else:
            copies = [new_ancilla(defs, PairCopyAncilla(i, j, m)) for m in (1, 2, 3)]
            for k in ks:
                betas = beta_split(cubic[tuple(sorted((i, j, k)))])
                for z, beta in zip(copies, betas):
                    if beta:
                        m = monomial([z, xvar(k)])
                        acc[m] = acc.get(m, 0) + beta
            for m_index, z in enumerate(copies, start=1):
                key = (pair, m_index)
                penalties = poly_add(penalties, poly_scale(plan.deltas[key], penalty_s(xvar(i), xvar(j), z, poly.n)))
    quadratic = poly_add(Polynomial(poly.n, acc), penalties)
    return ReducedInstance(quadratic, tuple(defs))


def reference_apply_quartic_plan(
    poly: Polynomial, instance: WmaxsatInstance, selection: frozenset[int]
) -> ReducedInstance:
    """apply_quartic_plan as the sum of one scaled `penalty_s` polynomial per ancilla."""
    selected_pairs, via = decode_ancilla_set(instance, selection)
    pair_set = set(selected_pairs)
    chained = sorted(via)

    acc: dict[Monomial, int] = {m: c for m, c in poly if len(m) < 3}
    pair_load: dict[Pair, list[int]] = {p: [] for p in selected_pairs}
    triple_load: dict[Triple, list[int]] = {t: [] for t in chained}

    defs: list[AncillaDef] = []
    pair_var = {p: new_ancilla(defs, PairAncilla(*p)) for p in selected_pairs}
    triple_var = {
        t: new_ancilla(defs, TripleAncilla(via[t], (set(t) - set(via[t])).pop()))
        for t in chained
    }

    def add(m: Monomial, coeff: int) -> None:
        acc[m] = acc.get(m, 0) + coeff

    for term, alpha in sorted(poly.cubic_terms().items()):
        options = [b for b in combinations(term, 2) if b in pair_set]
        base = min(options)
        k = (set(term) - set(base)).pop()
        add(monomial([pair_var[base], xvar(k)]), alpha)
        pair_load[base].append(alpha)

    for term, alpha in sorted(poly.quartic_terms().items()):
        i, j, k, l = term
        splits = (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)))
        split = next((s for s in splits if s[0] in pair_set and s[1] in pair_set), None)
        if split is not None:
            add(monomial([pair_var[split[0]], pair_var[split[1]]]), alpha)
            pair_load[split[0]].append(alpha)
            pair_load[split[1]].append(alpha)
            continue
        inner = [t for t in combinations(term, 3) if t in via]
        t = min(inner)
        rest = (set(term) - set(t)).pop()
        add(monomial([triple_var[t], xvar(rest)]), alpha)
        triple_load[t].append(alpha)
        pair_load[via[t]].append(alpha)

    penalties = Polynomial(poly.n, {})
    for p in selected_pairs:
        delta = delta_for_group(pair_load[p] or [0])
        penalties = poly_add(penalties, poly_scale(delta, penalty_s(xvar(p[0]), xvar(p[1]), pair_var[p], poly.n)))
    for t in chained:
        delta = delta_for_group(triple_load[t] or [0])
        extra = (set(t) - set(via[t])).pop()
        penalties = poly_add(
            penalties, poly_scale(delta, penalty_s(pair_var[via[t]], xvar(extra), triple_var[t], poly.n))
        )
    quadratic = poly_add(Polynomial(poly.n, acc), penalties)
    return ReducedInstance(quadratic, tuple(defs))


# ---------------------------------------------------------------------------
# Slow reference oracle: the verifier that evaluates both sides at every
# computational assignment, term by term, and minimizes each ancilla
# component by trying every ancilla pattern at every point.  The
# coefficient-comparing verifier must return equal reports.
# ---------------------------------------------------------------------------


def reference_computational_table(poly: Polynomial) -> list[int]:
    """Value of a computational-only polynomial at every assignment.

    Index code bit (i-1) holds the value of x_i.
    """
    if poly.referenced_ancillas():
        raise ValueError("original polynomial must not reference ancillas")
    masked = []
    for m, c in poly:
        mask = 0
        for v in m:
            mask |= 1 << (v.index - 1)
        masked.append((c, mask))
    table = []
    for code in range(1 << poly.n):
        total = 0
        for coeff, mask in masked:
            if code & mask == mask:
                total += coeff
        table.append(total)
    return table


def reference_min_over_ancilla_table(reduced: ReducedInstance) -> list[int]:
    """min over ancilla assignments of the reduced value, for every x.

    Exact joint minimization via connected components of the ancilla
    interaction graph.
    """
    n = reduced.quadratic.n
    comp_terms: list[tuple[int, int]] = []
    anc_terms: list[tuple[int, int, tuple[int, ...]]] = []
    for m, c in reduced.quadratic:
        comp_mask = 0
        slots = []
        for v in m:
            if v.is_ancilla:
                slots.append(v.index)
            else:
                comp_mask |= 1 << (v.index - 1)
        if slots:
            anc_terms.append((c, comp_mask, tuple(slots)))
        else:
            comp_terms.append((c, comp_mask))

    # Union-find over ancilla slots that co-occur in a term.
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for _, _, slots in anc_terms:
        for s in slots:
            parent.setdefault(s, s)
        if len(slots) == 2:
            ra, rb = find(slots[0]), find(slots[1])
            if ra != rb:
                parent[ra] = rb

    groups: dict[int, list[int]] = {}
    for s in parent:
        groups.setdefault(find(s), []).append(s)
    components = []
    for root in sorted(groups):
        slots = sorted(groups[root])
        local = {s: i for i, s in enumerate(slots)}
        terms = []
        for c, comp_mask, term_slots in anc_terms:
            if find(term_slots[0]) == root:
                anc_mask = 0
                for s in term_slots:
                    anc_mask |= 1 << local[s]
                terms.append((c, comp_mask, anc_mask))
        components.append((len(slots), terms))

    table = []
    for code in range(1 << n):
        total = 0
        for coeff, mask in comp_terms:
            if code & mask == mask:
                total += coeff
        for width, terms in components:
            best = None
            for acode in range(1 << width):
                value = 0
                for coeff, comp_mask, anc_mask in terms:
                    if code & comp_mask == comp_mask and acode & anc_mask == anc_mask:
                        value += coeff
                if best is None or value < best:
                    best = value
            assert best is not None
            total += best
        table.append(total)
    return table


def reference_verify_reduction(
    original: Polynomial,
    reduced: ReducedInstance,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> VerificationReport:
    """Pointwise and ground-state checks of a reduction, by enumeration."""
    if original.n != reduced.quadratic.n:
        raise ValueError(
            f"variable count mismatch: original has {original.n}, reduced declares {reduced.quadratic.n}"
        )
    total_vars = reduced.total_variables()
    if total_vars > cap:
        raise CapExceededError(f"{total_vars} total variables exceed enumeration cap {cap}")

    original_table = reference_computational_table(original)
    reduced_table = reference_min_over_ancilla_table(reduced)

    counterexample: dict[Var, int] | None = None
    pointwise_ok = True
    for code, (want, got) in enumerate(zip(original_table, reduced_table)):
        if want != got:
            pointwise_ok = False
            counterexample = {xvar(i): (code >> (i - 1)) & 1 for i in range(1, original.n + 1)}
            break

    ground_min = min(original_table) if original_table else 0
    reduced_min = min(reduced_table) if reduced_table else 0
    original_argmin = {c for c, v in enumerate(original_table) if v == ground_min}
    projected_argmin = {c for c, v in enumerate(reduced_table) if v == reduced_min}
    ground_state_ok = original_argmin == projected_argmin
    if not ground_state_ok and counterexample is None:
        code = min(original_argmin ^ projected_argmin)
        counterexample = {xvar(i): (code >> (i - 1)) & 1 for i in range(1, original.n + 1)}

    return VerificationReport(
        pointwise_ok,
        ground_state_ok,
        counterexample,
        control_precision(original) if original else None,
        control_precision(reduced.quadratic) if reduced.quadratic else None,
        reduced.ancilla_count(),
    )


# ---------------------------------------------------------------------------
# Slow reference cover planner: the cover as frozensets, a dense 0-1 ILP
# matrix turned back into bitmasks by the solver, and a greedy incumbent
# that rescans every candidate each round.  The bitmask cover must give
# equal covers, solver results, plans and LP text.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceSetCoverInstance:
    """Universe of cubic terms plus candidate pairs and their coverage sets."""

    universe: tuple[Triple, ...]
    candidates: tuple[Pair, ...]
    covers: tuple[frozenset[int], ...]  # per candidate: universe row indices


@dataclass(frozen=True)
class ReferenceIlpInstance:
    """0-1 ILP: minimize c.v subject to M v >= b, v binary."""

    c: tuple[int, ...]
    m: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]


def reference_build_set_cover(poly: Polynomial) -> ReferenceSetCoverInstance:
    """Set-cover view of a degree-<=3 polynomial's cubic terms."""
    if poly.degree() > 3:
        raise PuboError("set-cover planning handles degree <= 3; route degree-4 input through the quartic pipeline")
    universe = tuple(sorted(poly.cubic_terms()))
    pairs = sorted({p for t in universe for p in combinations(t, 2)})
    covers = tuple(
        frozenset(i for i, t in enumerate(universe) if set(p) <= set(t)) for p in pairs
    )
    return ReferenceSetCoverInstance(universe, tuple(pairs), covers)


def reference_set_cover_to_ilp(sc: ReferenceSetCoverInstance) -> ReferenceIlpInstance:
    """Explicit 0-1 ILP form of a cover instance."""
    nrows, ncols = len(sc.universe), len(sc.candidates)
    m = tuple(
        tuple(1 if i in sc.covers[j] else 0 for j in range(ncols)) for i in range(nrows)
    )
    return ReferenceIlpInstance((1,) * ncols, m, (1,) * nrows)


def reference_greedy_selection(cover_masks: list[int], full: int) -> list[int]:
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


def reference_solve_ilp_exact(ilp: ReferenceIlpInstance, node_budget: int = 10**6) -> IlpResult:
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

    greedy = reference_greedy_selection(cover_masks, full)
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


def reference_plan_from_cover(
    sc: ReferenceSetCoverInstance,
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


def reference_emit_lp(sc: ReferenceSetCoverInstance) -> str:
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


# ---------------------------------------------------------------------------
# Slow reference WMAXSAT solver: the dict-per-node branch-and-bound that
# rescans every clause literal by literal in propagation, in the bound and
# in branching.  The bitmask solver must search the same tree: equal node
# counts and proven flags at every budget, and equal results when proven.
# ---------------------------------------------------------------------------


def reference_solve_wmaxsat_exact(instance: WmaxsatInstance, node_budget: int = 10**6) -> WmaxsatResult:
    """Minimize the number of selected ancillas subject to the hard clauses.

    Branch and bound: branch on the free selector appearing in the most
    currently unsatisfied hard clauses, trying False first.  The bound
    adds, to the selections already made, a greedy packing of unsatisfied
    clauses over disjoint free variables; clauses with a free negative
    literal cost nothing (switch that selector off) and are skipped.
    Exhausting the node budget returns the incumbent unproven.
    """
    nvars = instance.num_vars
    if nvars == 0:
        return WmaxsatResult(frozenset(), 0, True, 0)
    hard = instance.hard
    best_true: frozenset[int] = frozenset(range(1, nvars + 1))
    best_cost = nvars
    nodes = 0
    exhausted = False

    def propagate(assignment: dict[int, bool]) -> bool:
        """Force unit hard clauses until fixpoint; False on conflict."""
        changed = True
        while changed:
            changed = False
            for clause in hard:
                satisfied = False
                free: list[int] = []
                for lit in clause:
                    value = assignment.get(abs(lit))
                    if value is None:
                        free.append(lit)
                    elif value == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not free:
                    return False
                if len(free) == 1:
                    lit = free[0]
                    assignment[abs(lit)] = lit > 0
                    changed = True
        return True

    def lower_bound(assignment: dict[int, bool], trues: int) -> int:
        used: set[int] = set()
        extra = 0
        for clause in hard:
            satisfied = False
            free: list[int] = []
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    free.append(lit)
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied or any(lit < 0 for lit in free):
                continue
            free_vars = {lit for lit in free}
            if free_vars & used:
                continue
            used |= free_vars
            extra += 1
        return trues + extra

    def branch_variable(assignment: dict[int, bool]) -> int | None:
        score: dict[int, int] = {}
        for clause in hard:
            satisfied = False
            free: list[int] = []
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    free.append(abs(lit))
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            for v in free:
                score[v] = score.get(v, 0) + 1
        if score:
            return min(score, key=lambda v: (-score[v], v))
        for v in range(1, nvars + 1):
            if v not in assignment:
                return v
        return None

    def dfs(assignment: dict[int, bool]) -> None:
        nonlocal best_true, best_cost, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if not propagate(assignment):
            return
        trues = sum(1 for v in assignment.values() if v)
        if lower_bound(assignment, trues) >= best_cost:
            return
        v = branch_variable(assignment)
        if v is None:
            if trues < best_cost:
                best_cost = trues
                best_true = frozenset(k for k, val in assignment.items() if val)
            return
        for value in (False, True):
            child = dict(assignment)
            child[v] = value
            dfs(child)

    dfs({})
    return WmaxsatResult(best_true, best_cost, not exhausted, nodes)
