"""A fixed pure-Python computation that measures the host's current speed.

The machines this benchmark runs on change speed by up to a factor of two
within minutes (shared cores), and a wall time taken alone measures that
drift as much as the program.  The runner therefore times this routine
between operations, all through a run, and reports each timing metric as a
multiple of its median time.  A change to puboforge cannot change this
routine: it uses nothing but the standard library, and it does the kind
of work the compiler does (tuple-keyed dictionaries, sorting, small
integer arithmetic), so a slower or faster host moves both alike.
"""

from __future__ import annotations

import random
import time

SIZE = 6000  # monomials per call; about 13-18 ms on a 2-core Xeon VM


def work(size: int = SIZE) -> int:
    """Multiply two fixed sparse polynomials over 30 variables, keeping
    multilinear monomials, and return a checksum of the sorted result."""
    rng = random.Random(20130731)
    a = {tuple(sorted(rng.sample(range(30), 2))): rng.randint(-8, 8) or 1 for _ in range(size // 40)}
    b = {tuple(sorted(rng.sample(range(30), 2))): rng.randint(-8, 8) or 1 for _ in range(40)}
    product: dict[tuple[int, ...], int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(sorted(set(ma) | set(mb)))
            product[key] = product.get(key, 0) + ca * cb
    return sum((i + 1) * c for i, (_, c) in enumerate(sorted(product.items())))


CHECKSUM = work()


def timed() -> float:
    """Seconds one call of ``work`` takes now."""
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    if result != CHECKSUM:
        raise RuntimeError("reference computation gave a different result")
    return elapsed
