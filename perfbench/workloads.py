"""Seeded inputs and operation schedules for the five benchmark workloads.

The generator here is the benchmark's own, not ``puboforge.bench.random_pubo``,
so that no change to the program can change what the benchmark feeds it.
Instance ``index`` of a workload depends only on (workload, seed, index),
through a string-seeded ``random.Random``, so the same seed always gives
byte-identical ``.pubo`` text.

Each workload is a closed loop: one client issues operation k+1 only after
operation k returned.  An operation is one ``puboforge`` command line, which
the runner passes to ``puboforge.cli.run`` in its own process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

COEFFS = [c for c in range(-8, 9) if c]


def pubo_text(n: int, terms: dict[tuple[int, ...], int]) -> str:
    """Canonical ``.pubo`` text: header, then one sorted term per line."""
    lines = [f"p pubo {n}"]
    for idx in sorted(terms, key=lambda t: (len(t), t)):
        lines.append(f"{terms[idx]} " + " ".join(map(str, idx)))
    return "\n".join(lines) + "\n"


def random_terms(
    rng: random.Random,
    n: int,
    cubic: int,
    quartic: int = 0,
    pair_share: float = 0.0,
) -> dict[tuple[int, ...], int]:
    """``cubic`` distinct cubic and ``quartic`` distinct quartic terms over
    x1..xn, plus each quadratic pair with probability ``pair_share``; every
    coefficient is uniform on the nonzero integers -8..8."""
    terms: dict[tuple[int, ...], int] = {}
    for pair in combinations(range(1, n + 1), 2):
        if pair_share >= 1.0 or rng.random() < pair_share:
            terms[pair] = rng.choice(COEFFS)
    for degree, count in ((3, cubic), (4, quartic)):
        for t in sorted(rng.sample(list(combinations(range(1, n + 1), degree)), count)):
            terms[t] = rng.choice(COEFFS)
    return terms


def disjoint_cubic_terms(rng: random.Random, n: int, cubic: int) -> dict[tuple[int, ...], int]:
    """Every quadratic pair over x1..xn plus ``cubic`` cubic terms on
    disjoint triples, so that no two cubic terms share a pair and every
    cubic term costs exactly one ancilla."""
    terms = {pair: rng.choice(COEFFS) for pair in combinations(range(1, n + 1), 2)}
    order = rng.sample(range(1, n + 1), 3 * cubic)
    for i in range(cubic):
        terms[tuple(sorted(order[3 * i : 3 * i + 3]))] = rng.choice(COEFFS)
    return terms


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``argv`` is the ``puboforge`` command line with ``{in}``/``{out}``
    placeholders resolved by the runner.  A verify operation names, in
    ``shift_of``, the earlier operation whose ``.qubo`` it checks after the
    benchmark has shifted that file's constant by +1.
    """

    kind: str  # "compile" or "verify"
    instance: int
    argv: tuple[str, ...]
    expect_exit: int = 0
    shift_of: int | None = None


class Workload:
    name = ""
    why = ""
    block = 1  # a run stops only after a whole block of operations
    tail_pct = 50  # fixed tail percentile, see measure.py
    # One latency sample per block (the mean of its compiles) instead of one
    # per compile: used where a block's compiles form separate latency
    # modes, whose mixture has an ill-conditioned median.
    latency_per_block = False

    def instance(self, seed: int, index: int) -> str:
        raise NotImplementedError

    def op(self, k: int) -> Op:
        raise NotImplementedError

    def warmup(self) -> tuple[str, tuple[str, ...]]:
        """A small fixed input and flags for the untimed warm-up compile."""
        raise NotImplementedError

    def rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"perfbench:{self.name}:{seed}:{index}")


def _compile(instance: int, *flags: str) -> Op:
    return Op("compile", instance, ("compile", "{in}", "-o", "{out}", "--json", *flags))


class CoverExact(Workload):
    name = "cover-exact"
    tail_pct = 95
    why = "cubic-only n=13 lambda=60 min-ancilla compiles; the exact cover branch-and-bound dominates"

    def instance(self, seed, index):
        return pubo_text(13, random_terms(self.rng(seed, index), 13, cubic=60))

    def op(self, k):
        return _compile(k, "--strategy", "min-ancilla")

    def warmup(self):
        return pubo_text(6, {(1, 2, 3): 3, (1, 2, 4): -2, (3, 5, 6): 5}), ("--strategy", "min-ancilla")


class PrecisionDense(Workload):
    name = "precision-dense"
    why = "n=11 lambda=40 with every quadratic term, min-precision, single and triple gadgets; the precision greedy dominates"
    block = 2
    latency_per_block = True

    def instance(self, seed, index):
        return pubo_text(11, random_terms(self.rng(seed, index), 11, cubic=40, pair_share=1.0))

    def op(self, k):
        return _compile(k // 2, "--strategy", "min-precision", "--gadget", ("single", "triple")[k % 2])

    def warmup(self):
        text = pubo_text(6, {(1, 2): 2, (1, 2, 3): 3, (1, 2, 4): -2, (3, 5, 6): 5})
        return text, ("--strategy", "min-precision", "--gadget", "triple")


class QuarticMaxsat(Workload):
    name = "quartic-maxsat"
    tail_pct = 95
    why = "degree-4 n=8 inputs with a fixed node budget; the WMAXSAT branch-and-bound dominates, with a heavy tail"
    budget = "20000"

    def instance(self, seed, index):
        terms = random_terms(self.rng(seed, index), 8, cubic=4, quartic=4, pair_share=0.3)
        return pubo_text(8, terms)

    def op(self, k):
        return _compile(k, "--emit-wcnf", "{out}.wcnf", "--ilp-budget", self.budget)

    def warmup(self):
        text = pubo_text(5, {(1, 2, 3, 4): 3, (2, 3, 4, 5): -2, (1, 2, 5): 4})
        return text, ("--emit-wcnf", "{out}.wcnf", "--ilp-budget", self.budget)


class ScaleGreedy(Workload):
    name = "scale-greedy"
    why = "n=30 lambda=300 with the quadratic layer, reduce-min, single and triple; parse, emit and materialize at scale"
    block = 2
    latency_per_block = True

    def instance(self, seed, index):
        return pubo_text(30, random_terms(self.rng(seed, index), 30, cubic=300, pair_share=1.0))

    def op(self, k):
        return _compile(k // 2, "--strategy", "reduce-min", "--gadget", ("single", "triple")[k % 2])

    def warmup(self):
        text = pubo_text(6, {(1, 2): 2, (1, 2, 3): 3, (1, 2, 4): -2, (3, 5, 6): 5})
        return text, ("--strategy", "reduce-min", "--gadget", "triple")


class VerifyOracle(Workload):
    """The enumeration oracle, through ``compile --verify`` and ``verify``.

    Operations run in blocks of four: three ``compile --verify`` runs on
    fresh instances, then one ``verify`` of the block's first output after
    its constant was shifted by +1, whose known verdict is exit 1.  Every
    third instance is a small degree-4 file, so the oracle also meets
    chained-ancilla components.  The other two have their four cubic terms
    on disjoint triples, so each compiles to exactly 18 variables and the
    oracle's cost does not vary from instance to instance.  One latency
    sample is the mean of a block's three compiles: the degree-4 compiles
    form a faster mode of their own.
    """

    name = "verify-oracle"
    why = "compile --verify at up to 18 total variables, and verify of a shifted .qubo; the enumeration oracle dominates"
    block = 4
    latency_per_block = True

    def instance(self, seed, index):
        rng = self.rng(seed, index)
        if index % 3 == 2:
            return pubo_text(11, random_terms(rng, 11, cubic=1, quartic=3, pair_share=0.5))
        return pubo_text(14, disjoint_cubic_terms(rng, 14, cubic=4))

    def op(self, k):
        block, pos = divmod(k, 4)
        if pos < 3:
            return _compile(3 * block + pos, "--verify")
        return Op("verify", 3 * block, ("verify", "{in}", "{out}", "--json"), 1, shift_of=4 * block)

    def warmup(self):
        return pubo_text(6, {(1, 2): 2, (1, 2, 3): 3, (1, 2, 4): -2, (3, 5, 6): 5}), ("--verify",)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CoverExact(), PrecisionDense(), QuarticMaxsat(), ScaleGreedy(), VerifyOracle())
}
