"""Correctness checks on the program's outputs, run outside the timed region.

These work from file text with the benchmark's own parsers, so they do not
depend on the compiler's bookkeeping.  `sampled_check` is the check for
outputs too large for the enumeration oracle: at seeded points x it
demands f(x) == g(x, z*(x)), where z* sets each ancilla to the conjunction
its ``a`` line declares, and that flipping any single ancilla away from
z*(x) never lowers g.  An exact reduction passes both at every x.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class Qubo:
    total: int
    n: int
    constant: int
    terms: list[tuple[int, int, int]]  # (coeff, i, j), i <= j, i == j is linear
    ancillas: dict[int, tuple[int, ...]]  # line index -> the x indices it conjoins


def parse_pubo(text: str) -> tuple[int, int, list[tuple[int, tuple[int, ...]]]]:
    """(n, constant, [(coeff, indices)]) from ``.pubo`` text."""
    n = None
    constant = 0
    terms = []
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "p":
            n = int(fields[2])
        elif fields[0] == "c":
            constant += int(fields[1])
        else:
            terms.append((int(fields[0]), tuple(int(f) for f in fields[1:])))
    if n is None:
        raise ValueError("missing pubo header")
    return n, constant, terms


def parse_qubo(text: str) -> Qubo:
    """A ``.qubo`` file's header, constant, terms and ancilla definitions."""
    q = None
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "p":
            q = Qubo(int(fields[2]), int(fields[3]), 0, [], {})
        elif q is None:
            raise ValueError("qubo line before header")
        elif fields[0] == "c":
            q.constant += int(fields[1])
        elif fields[0] == "a":
            idx, kind = int(fields[1]), fields[2]
            if kind == "pair":
                q.ancillas[idx] = (int(fields[3]), int(fields[4]))
            elif kind == "triple":
                q.ancillas[idx] = (int(fields[3]), int(fields[4]), int(fields[5]))
            else:
                raise ValueError(f"unknown ancilla kind {kind!r}")
        else:
            q.terms.append((int(fields[0]), int(fields[1]), int(fields[2])))
    if q is None:
        raise ValueError("missing qubo header")
    return q


def ancilla_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith("a "))


def term_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line and line[0] not in "pca#")


def shift_constant(text: str, by: int = 1) -> str:
    """The same ``.qubo`` with its ``c`` line moved by ``by`` (added after
    the header when the file has none).  The result is never exact."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("c "):
            lines[i] = f"c {int(line.split()[1]) + by}"
            break
    else:
        lines.insert(1, f"c {by}")
    return "\n".join(lines) + "\n"


def sampled_check(pubo_text: str, qubo_text: str, seed: str, points: int = 24) -> str | None:
    """None when the reduction passes at every sampled point, else why not."""
    n, constant, pterms = parse_pubo(pubo_text)
    q = parse_qubo(qubo_text)
    if q.n != n:
        return f"qubo declares {q.n} computational variables, pubo {n}"
    if sorted(q.ancillas) != list(range(n + 1, q.total + 1)):
        return "ancilla definitions do not cover indices n+1..total"
    linear = {a: 0 for a in q.ancillas}
    neighbours: dict[int, list[tuple[int, int]]] = {a: [] for a in q.ancillas}
    for c, i, j in q.terms:
        if not 1 <= i <= j <= q.total:
            return f"term ({i},{j}) outside 1..{q.total}"
        if i == j:
            if i in linear:
                linear[i] += c
        else:
            if i in neighbours:
                neighbours[i].append((j, c))
            if j in neighbours:
                neighbours[j].append((i, c))

    rng = random.Random(f"perfbench-check:{seed}")
    samples = [[0] * n, [1] * n] + [[rng.randint(0, 1) for _ in range(n)] for _ in range(points - 2)]
    for bits in samples:
        v = [0] + bits + [0] * (q.total - n)  # 1-based values
        for a in sorted(q.ancillas):
            v[a] = int(all(v[i] for i in q.ancillas[a]))
        f = constant + sum(c for c, idx in pterms if all(v[i] for i in idx))
        g = q.constant + sum(c for c, i, j in q.terms if v[i] and v[j])
        if f != g:
            return f"f(x) = {f} but g(x, z*) = {g} at x = {''.join(map(str, bits))}"
        for a in q.ancillas:
            field = linear[a] + sum(c for b, c in neighbours[a] if v[b])
            change = field if v[a] == 0 else -field
            if change < 0:
                return f"flipping ancilla {a} lowers g by {-change} at x = {''.join(map(str, bits))}"
    return None
