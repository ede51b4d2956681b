"""Exact multilinear pseudo-Boolean polynomials with integer coefficients.

A polynomial is stored as a sparse map from monomials to coefficients.  A
monomial is a sorted tuple of distinct variables; over {0,1} every power
``x**k`` collapses to ``x``, so multilinear monomials are simply variable
sets.  Coefficients are plain Python ints and therefore arbitrary precision;
nothing in this package ever rounds.

Variables come in two kinds: *computational* variables ``x1..xn`` (1-based,
``n`` is declared per polynomial) and *ancilla* variables introduced by
gadget reductions (0-based registry slots, owned by the reduction that
created them).  Computational variables sort before ancillas, which keeps
every serialization and iteration order deterministic.

This module also owns the ``.pubo`` text format, the subset-sum kernel
that turns multilinear coefficients into values at every point (and back),
which the verifier's enumeration runs on, and the control precision report
(max |coefficient| after dividing out the common gcd).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

MAX_DEGREE = 4
DEFAULT_ENUMERATION_CAP = 24


class PuboError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PuboError):
    """Malformed input text; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegreeError(PuboError):
    """A polynomial violates a degree bound for the requested operation."""


class CapExceededError(PuboError):
    """An exhaustive enumeration would exceed the configured variable cap."""


class Var(NamedTuple):
    """A variable reference: computational ``x<i>`` or ancilla ``a<j>``.

    The field order makes tuples sort computational-first, then by index.
    """

    is_ancilla: bool
    index: int

    def __str__(self) -> str:
        return f"a{self.index}" if self.is_ancilla else f"x{self.index}"


def xvar(i: int) -> Var:
    """The computational variable ``x<i>`` (1-based)."""
    return Var(False, i)


def avar(j: int) -> Var:
    """The ancilla variable in registry slot ``j`` (0-based)."""
    return Var(True, j)


Monomial = tuple[Var, ...]


def monomial(variables: Iterable[Var]) -> Monomial:
    """Canonical monomial over a set of variables: sorted, deduplicated.

    Duplicates collapse rather than error because x*x == x over {0,1}.
    """
    vs = tuple(sorted(set(variables)))
    if len(vs) > MAX_DEGREE:
        raise DegreeError(f"monomial degree {len(vs)} exceeds {MAX_DEGREE}")
    return vs


class Polynomial:
    """An immutable sparse pseudo-Boolean polynomial.

    ``n`` is the declared computational variable count; terms may reference
    any subset of ``x1..xn`` plus ancilla variables.  Zero coefficients are
    dropped on construction, and term iteration is lexicographic by
    monomial, so equal polynomials are structurally identical.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]]) -> None:
        if n < 0:
            raise ValueError(f"variable count must be >= 0, got {n}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, int] = {}
        for mono, coeff in items:
            mono = monomial(mono)
            for v in mono:
                if not v.is_ancilla and not 1 <= v.index <= n:
                    raise ValueError(f"variable {v} outside declared range 1..{n}")
                if v.is_ancilla and v.index < 0:
                    raise ValueError(f"ancilla slot must be >= 0, got {v.index}")
            acc[mono] = acc.get(mono, 0) + coeff
        self.n = n
        self._terms: dict[Monomial, int] = {m: c for m in sorted(acc) if (c := acc[m]) != 0}

    def coefficient(self, mono: Iterable[Var]) -> int:
        return self._terms.get(monomial(mono), 0)

    def constant(self) -> int:
        return self._terms.get((), 0)

    def degree(self) -> int:
        return max((len(m) for m in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return f"Polynomial({self.n}, 0)"
        parts = []
        for m, c in self:
            name = "*".join(str(v) for v in m) if m else "1"
            parts.append(f"{c:+d}*{name}")
        return f"Polynomial({self.n}, {' '.join(parts)})"

    def referenced_ancillas(self) -> tuple[Var, ...]:
        return tuple(sorted({v for m in self._terms for v in m if v.is_ancilla}))

    def terms_of_degree(self, d: int) -> Iterator[tuple[Monomial, int]]:
        return ((m, c) for m, c in self if len(m) == d)

    def cubic_terms(self) -> dict[tuple[int, int, int], int]:
        """Degree-3 terms keyed by computational index triple (i < j < k)."""
        out: dict[tuple[int, int, int], int] = {}
        for m, c in self.terms_of_degree(3):
            if any(v.is_ancilla for v in m):
                raise ValueError(f"degree-3 term {m} references an ancilla variable")
            out[tuple(v.index for v in m)] = c
        return out

    def quartic_terms(self) -> dict[tuple[int, int, int, int], int]:
        """Degree-4 terms keyed by computational index quadruple."""
        out: dict[tuple[int, int, int, int], int] = {}
        for m, c in self.terms_of_degree(4):
            if any(v.is_ancilla for v in m):
                raise ValueError(f"degree-4 term {m} references an ancilla variable")
            out[tuple(v.index for v in m)] = c
        return out

    def pair_coefficient(self, i: int, j: int) -> int:
        return self.coefficient((xvar(i), xvar(j)))

    def evaluate(self, assignment: Mapping[Var, int]) -> int:
        """Exact value at a 0/1 assignment covering every referenced variable."""
        total = 0
        for m, c in self._terms.items():
            value = c
            for v in m:
                if v not in assignment:
                    raise PuboError(f"assignment missing variable {v}")
                if not assignment[v]:
                    value = 0
                    break
            total += value
        return total


# ---------------------------------------------------------------------------
# .pubo text format
#
#   p pubo <n>
#   <coeff> <i> [<j> [<k> [<l>]]]     one term per line, 1-based indices
#   c <coeff>                         constant offset, at most one net value
#   # comment                         full-line or trailing
#
# Emission is byte-stable: terms sorted lexicographically, single spaces.
# ---------------------------------------------------------------------------


def parse_polynomial(text: str) -> Polynomial:
    """Parse ``.pubo`` text into a polynomial over computational variables."""
    n: int | None = None
    acc: dict[Monomial, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if fields[0] != "p":
                raise ParseError("expected header 'p pubo <n>' before terms", lineno)
            if len(fields) != 3 or fields[1] != "pubo":
                raise ParseError(f"malformed header {line!r}", lineno)
            try:
                n = int(fields[2])
            except ValueError:
                raise ParseError(f"variable count {fields[2]!r} is not an integer", lineno) from None
            if n < 0:
                raise ParseError(f"variable count must be >= 0, got {n}", lineno)
            continue
        if fields[0] == "p":
            raise ParseError("duplicate header", lineno)
        if fields[0] == "c":
            if len(fields) != 2:
                raise ParseError(f"malformed constant line {line!r}", lineno)
            try:
                offset = int(fields[1])
            except ValueError:
                raise ParseError(f"constant {fields[1]!r} is not an integer", lineno) from None
            acc[()] = acc.get((), 0) + offset
            continue
        try:
            numbers = [int(f) for f in fields]
        except ValueError:
            raise ParseError(f"malformed term line {line!r}", lineno) from None
        if len(numbers) < 2:
            raise ParseError("term line needs a coefficient and at least one index", lineno)
        if len(numbers) > 1 + MAX_DEGREE:
            raise ParseError(
                f"term {line!r} has {len(numbers) - 1} indices; degree is capped at {MAX_DEGREE}",
                lineno,
            )
        coeff, indices = numbers[0], numbers[1:]
        for i in indices:
            if not 1 <= i <= n:
                raise ParseError(f"index {i} outside declared range 1..{n}", lineno)
        mono = monomial(xvar(i) for i in indices)
        acc[mono] = acc.get(mono, 0) + coeff
    if n is None:
        raise ParseError("empty input: missing 'p pubo <n>' header")
    return Polynomial(n, acc)


def emit_polynomial(poly: Polynomial) -> str:
    """Serialize to canonical ``.pubo`` text (computational variables only)."""
    if poly.referenced_ancillas():
        raise ValueError("cannot emit .pubo for a polynomial referencing ancillas; use the .qubo format")
    lines = [f"p pubo {poly.n}"]
    offset = poly.constant()
    if offset:
        lines.append(f"c {offset}")
    for m, c in poly:
        if not m:
            continue
        lines.append(f"{c} " + " ".join(str(v.index) for v in m))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Value tables, control precision
# ---------------------------------------------------------------------------


def subset_sums(table: list[int], n: int, op: Callable[[int, int], int] = operator.add) -> list[int]:
    """In place over a table of 2**n: each entry becomes the sum of the
    entries at its submasks, which turns the coefficients of a multilinear
    polynomial (keyed by variable bitmask) into its value at every point.

    ``op=operator.sub`` gives the inverse (Moebius) transform, values back
    to coefficients.  Each bit adds either 2**bit strided slices or
    2**(n-bit-1) contiguous ones, whichever is fewer Python-level steps.
    """
    size = 1 << n
    for bit in range(n):
        half = 1 << bit
        step = half << 1
        if half <= size // step:
            for j in range(half):
                table[j + half :: step] = map(op, table[j + half :: step], table[j::step])
        else:
            for b in range(0, size, step):
                table[b + half : b + step] = map(op, table[b + half : b + step], table[b : b + half])
    return table


def value_table(coeffs: Mapping[int, int], n: int) -> list[int]:
    """Values at all 2**n points of the polynomial {bitmask: coefficient}."""
    table = [0] * (1 << n)
    for mask, c in coeffs.items():
        table[mask] += c
    return subset_sums(table, n)


@dataclass(frozen=True)
class PrecisionReport:
    """Coefficient resolution demanded by a polynomial.

    ``control_precision`` is max |coefficient| after dividing every
    coefficient by their collective gcd: the number of distinct magnitudes a
    device must resolve to represent the problem faithfully.
    """

    max_abs_coeff: int
    gcd_all: int
    control_precision: int


def control_precision(poly: Polynomial, include_offset: bool = True) -> PrecisionReport:
    """Control precision report; ``include_offset=False`` drops the constant
    term from the gcd and the maximum."""
    coeffs = [c for m, c in poly if m or include_offset]
    if not coeffs:
        raise ValueError("control precision is undefined for an empty polynomial")
    g = math.gcd(*coeffs)
    biggest = max(map(abs, coeffs))
    return PrecisionReport(biggest, g, biggest // g)
