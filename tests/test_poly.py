"""Polynomial core: representation, .pubo round trips, evaluation oracles."""

import random

import pytest

from puboforge.poly import (
    CapExceededError,
    DegreeError,
    ParseError,
    Polynomial,
    avar,
    control_precision,
    emit_polynomial,
    monomial,
    parse_polynomial,
    xvar,
)
from util import brute_force_minima, poly_add, poly_of, poly_scale


def random_poly(rng, n, nterms, max_degree=4, allow_constant=True):
    acc = {}
    for _ in range(nterms):
        d = rng.randint(0 if allow_constant else 1, min(max_degree, n))
        idxs = tuple(rng.sample(range(1, n + 1), d))
        acc[idxs] = rng.randint(-9, 9)
    return poly_of(n, acc)


# -- construction and canonical form ----------------------------------------


def test_monomial_dedupes_and_sorts():
    m = monomial([xvar(3), xvar(1), xvar(3)])
    assert m == (xvar(1), xvar(3))


def test_monomial_degree_cap():
    with pytest.raises(DegreeError):
        monomial([xvar(i) for i in range(1, 6)])


def test_zero_coefficients_dropped():
    p = Polynomial(3, {(xvar(1),): 2, (xvar(2),): 0})
    assert len(p) == 1
    assert p.coefficient([xvar(2)]) == 0


def test_duplicate_terms_merge():
    p = Polynomial(2, [((xvar(1), xvar(2)), 3), ((xvar(2), xvar(1)), -3)])
    assert not p


def test_out_of_range_variable_rejected():
    with pytest.raises(ValueError):
        Polynomial(2, {(xvar(3),): 1})


def test_iteration_is_lexicographic():
    p = poly_of(3, {(2, 3): 1, (1,): 1, (1, 2, 3): 1, (): 5})
    assert [m for m, _ in p] == [
        (),
        (xvar(1),),
        (xvar(1), xvar(2), xvar(3)),
        (xvar(2), xvar(3)),
    ]


def test_computational_vars_sort_before_ancillas():
    assert sorted([avar(0), xvar(2), xvar(1), avar(3)]) == [xvar(1), xvar(2), avar(0), avar(3)]


def test_add_and_scale():
    p = poly_of(2, {(1,): 2, (1, 2): 1})
    q = poly_of(2, {(1,): -2, (2,): 5})
    assert poly_add(p, q) == poly_of(2, {(1, 2): 1, (2,): 5})
    assert poly_scale(3, p) == poly_of(2, {(1,): 6, (1, 2): 3})


# -- evaluation --------------------------------------------------------------


def test_evaluate_simple_cubic():
    p = poly_of(3, {(1, 2, 3): 3})
    assert p.evaluate({xvar(1): 1, xvar(2): 1, xvar(3): 1}) == 3
    assert p.evaluate({xvar(1): 1, xvar(2): 0, xvar(3): 1}) == 0


def test_evaluate_missing_variable():
    p = poly_of(2, {(1, 2): 1})
    with pytest.raises(Exception):
        p.evaluate({xvar(1): 1})


def test_evaluate_is_linear():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 6)
        p = random_poly(rng, n, rng.randint(1, 8))
        q = random_poly(rng, n, rng.randint(1, 8))
        x = {xvar(i): rng.randint(0, 1) for i in range(1, n + 1)}
        assert poly_add(p, q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


# -- .pubo parsing and emission ----------------------------------------------


def test_parse_basic():
    p = parse_polynomial("p pubo 3\n2 1 2 3\n-1 1\n")
    assert p.n == 3
    assert p.coefficient([xvar(1), xvar(2), xvar(3)]) == 2
    assert p.coefficient([xvar(1)]) == -1


def test_parse_repeated_index_collapses():
    # x*x == x over {0,1}: a line like "2 1 1" is the linear term 2*x1.
    p = parse_polynomial("p pubo 2\n2 1 1\n")
    assert p == poly_of(2, {(1,): 2})


def test_parse_comments_and_blank_lines():
    text = "# full-line comment\np pubo 2\n\n1 1 2  # trailing\n"
    assert parse_polynomial(text) == poly_of(2, {(1, 2): 1})


def test_parse_duplicate_terms_sum():
    p = parse_polynomial("p pubo 2\n1 1 2\n2 2 1\n")
    assert p == poly_of(2, {(1, 2): 3})


def test_parse_constant_line():
    p = parse_polynomial("p pubo 2\nc 7\n1 1\n")
    assert p.constant() == 7


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_polynomial("p pubo 2\n1 1\nbogus line\n")
    assert "line 3" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_polynomial("p pubo 2\n1 1 2 3\n")
    assert "line 2" in str(e.value)  # index 3 out of range
    with pytest.raises(ParseError):
        parse_polynomial("1 1 2\n")  # missing header
    with pytest.raises(ParseError) as e:
        parse_polynomial("p pubo 3\n1 1 2 3 1 2\n")  # five indices
    assert "line 2" in str(e.value)


def test_emit_is_canonical():
    p = poly_of(3, {(2, 3): -1, (1,): 2, (): 4})
    assert emit_polynomial(p) == "p pubo 3\nc 4\n2 1\n-1 2 3\n"


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 8)
        p = random_poly(rng, n, rng.randint(0, 12))
        assert parse_polynomial(emit_polynomial(p)) == p


def test_emit_rejects_ancillas():
    p = Polynomial(2, {(xvar(1), avar(0)): 1})
    with pytest.raises(ValueError):
        emit_polynomial(p)


# -- brute-force minimization ------------------------------------------------


def test_minima_single_quadratic():
    res = brute_force_minima(poly_of(2, {(1, 2): 1}))
    assert res.value == 0
    assert res.minimizers == {(0, 0), (0, 1), (1, 0)}


def test_minima_negative_cubic():
    res = brute_force_minima(poly_of(3, {(1, 2, 3): -1}))
    assert res.value == -1
    assert res.minimizers == {(1, 1, 1)}


def test_minima_of_conjunction_penalty():
    # 3z + xy - 2xz - 2yz over (x, y, z) = (x1, x2, x3): zero exactly on the
    # four rows where z == x*y, positive elsewhere.
    s = poly_of(3, {(3,): 3, (1, 2): 1, (1, 3): -2, (2, 3): -2})
    res = brute_force_minima(s)
    assert res.value == 0
    assert res.minimizers == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)}


def test_minima_includes_unreferenced_variables():
    res = brute_force_minima(poly_of(3, {(1,): 1}))
    assert res.value == 0
    assert len(res.minimizers) == 4  # x2, x3 free


def test_minima_cap():
    p = poly_of(13, {(1,): 1})
    with pytest.raises(CapExceededError):
        brute_force_minima(p, cap=12)
    assert brute_force_minima(p, cap=13).value == 0


# -- control precision -------------------------------------------------------


def test_precision_divides_out_gcd():
    r = control_precision(poly_of(3, {(1,): 2, (2,): 4, (1, 2): 6}))
    assert (r.max_abs_coeff, r.gcd_all, r.control_precision) == (6, 2, 3)


def test_precision_coprime():
    r = control_precision(poly_of(2, {(1,): 3, (2,): -5}))
    assert (r.max_abs_coeff, r.gcd_all, r.control_precision) == (5, 1, 5)


def test_precision_scale_invariant():
    rng = random.Random(19)
    for _ in range(25):
        p = random_poly(rng, 5, rng.randint(1, 8))
        if not p:
            continue
        k = rng.choice([2, 3, 5, 7])
        assert control_precision(poly_scale(k, p)).control_precision == control_precision(p).control_precision


def test_precision_offset_flag():
    p = poly_of(2, {(): 3, (1,): 2, (2,): 4})
    assert control_precision(p).gcd_all == 1
    assert control_precision(p, include_offset=False).gcd_all == 2


def test_precision_empty_rejected():
    with pytest.raises(ValueError):
        control_precision(Polynomial(3, {}))
