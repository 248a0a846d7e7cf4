import gc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from srgo import invariant_polynomials
from srgo.go import _bracket_on_m, _m_vertical_field
from srgo.poly import Polynomial, monomials_of_degree, poly_from_string


def small_polys(nvars=3, max_terms=4):
    """Coefficients of every kind a caller may pass: ints, and Fractions
    that are integral or not."""
    mono = st.tuples(*[st.integers(0, 3) for _ in range(nvars)])
    coeff = st.one_of(
        st.integers(-4, 4),
        st.fractions(min_value=-4, max_value=4, max_denominator=3))
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda t: Polynomial(nvars, t)
    )


def _all_normalised(normalised, *polys):
    return all(normalised(c) for p in polys for c in p.terms.values())


def test_basic_arithmetic():
    p = poly_from_string("p1^2 + 2*p2", 3)
    q = poly_from_string("p1 - p3", 3)
    assert repr(p * q) == repr(poly_from_string("p1^3 - p1^2*p3 + 2*p1*p2 - 2*p2*p3", 3))
    assert (p - p).is_zero()
    assert (p + 0) == p
    assert (p * 1) == p
    assert p.degree() == 2


def test_diff_and_eval():
    p = poly_from_string("1/2*p1^2*p2 + p3", 3)
    assert p.diff(0) == poly_from_string("p1*p2", 3)
    assert p.diff(1) == poly_from_string("1/2*p1^2", 3)
    assert p([2.0, 3.0, 1.0]) == pytest.approx(0.5 * 4 * 3 + 1)
    assert oracles.eval_exact(p, [2, 3, 1]) == Fraction(7)


def test_parser():
    p = poly_from_string("0.5*p3^2 + p1*p5 - p2*p4", 5)
    assert p.terms[(0, 0, 2, 0, 0)] == Fraction(1, 2)
    assert p.terms[(1, 0, 0, 0, 1)] == 1
    assert p.terms[(0, 1, 0, 1, 0)] == -1
    with pytest.raises(ValueError):
        poly_from_string("__import__('os')", 2)
    with pytest.raises(ValueError):
        poly_from_string("p9", 2)
    with pytest.raises(ValueError):
        poly_from_string("q1 + 1", 2)


def test_parser_reads_integral_literals_as_ints(normalised):
    p = poly_from_string("2.0*p1 + 4/2*p2 - 6/4*p3 + 0.25 + p1^2/3", 3)
    assert p.terms == {(1, 0, 0): 2, (0, 1, 0): 2, (0, 0, 1): Fraction(-3, 2),
                       (0, 0, 0): Fraction(1, 4), (2, 0, 0): Fraction(1, 3)}
    assert _all_normalised(normalised, p)
    assert type(p.terms[1, 0, 0]) is int and type(p.terms[0, 1, 0]) is int
    assert oracles.eval_exact(p, [3, 1, Fraction(1, 6)]) == 11
    assert type(oracles.eval_exact(p, [3, 1, Fraction(1, 6)])) is int


@pytest.mark.parametrize("text, message", [
    ("p1^(1/2)", "non-integral exponent"),
    ("p1^p2", "non-constant exponent"),
    ("p1/0", "division by zero"),
    ("p1/(p2 - p2)", "division by zero"),
    ("p1/p2", "division by non-constant"),
])
def test_parser_rejects_what_is_not_a_polynomial(text, message):
    with pytest.raises(ValueError, match=message):
        poly_from_string(text, 2)


def test_monomials_of_degree():
    monos = monomials_of_degree(3, 2)
    assert len(monos) == 6
    assert all(sum(m) == 2 for m in monos)
    assert len(set(monos)) == 6
    assert monomials_of_degree(1, 4) == [(4,)]


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) == (q + p)
    assert (p * q) == (q * p)
    assert (p * (q + r)) == (p * q + p * r)
    assert ((p + q) + r) == (p + (q + r))


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys(),
       st.one_of(st.integers(-3, 3),
                 st.fractions(min_value=-3, max_value=3, max_denominator=4)),
       st.integers(0, 3))
def test_coefficients_stay_normalised(normalised, p, q, c, k):
    # An int when integral, a Fraction otherwise: never a float, never an
    # integral Fraction, whatever mix of the two went in.
    outs = [p, q, p + q, p - q, -p, p * q, p ** k, p * c, c * p, p + c,
            c - p, *(p.diff(i) for i in range(p.nvars))]
    if c:
        outs += [p / c, p / Fraction(c)]
    assert _all_normalised(normalised, *outs)
    assert all(0 not in f.terms.values() for f in outs)


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_eval_matches_exact(p):
    pt = [Fraction(1, 2), Fraction(-2), Fraction(3)]
    assert p([float(x) for x in pt]) == pytest.approx(
        float(oracles.eval_exact(p, pt)), abs=1e-9
    )


def _eval_per_term(poly, p):
    """Scalar evaluation term by term, and the sum of the terms' sizes."""
    total = scale = 0.0
    for m, c in poly.terms.items():
        v = float(c)
        for i, e in enumerate(m):
            if e:
                v *= p[i] ** e
        total += v
        scale += abs(v)
    return total, scale


def test_array_eval_matches_scalar_on_bundled_polynomials(models):
    polys = [(spec.structure.dim, f) for spec in models.values()
             for f in spec.casimirs.values()]
    for name in ["heisenberg", "free_step2_rank2", "so3_axisym", "cartan"]:
        s = models[name].structure
        polys += [(s.m.dim, f) for f in invariant_polynomials(s, 4).polynomials]
    rng = np.random.default_rng(0)
    for nvars, f in polys:
        pts = rng.uniform(-2.0, 2.0, size=(50, nvars))
        vals = f(pts)
        assert vals.shape == (50,)
        for x, v in zip(pts, vals):
            want, scale = _eval_per_term(f, x)
            assert abs(v - want) <= 1e-12 * max(scale, 1e-300)
            assert f(x) == v
        grid = f(pts.reshape(5, 10, nvars))
        assert np.array_equal(grid.ravel(), vals)


def test_evaluation_leaves_no_garbage_cycle():
    # The power arrays of one evaluation must be freed when it returns,
    # not held by a reference cycle until the cyclic collector runs.
    p = poly_from_string("p1^3*p2 + p2^2 - 2*p1", 2)
    pts = np.linspace(0.0, 1.0, 20).reshape(10, 2)
    gc.collect()
    gc.disable()
    try:
        p(pts)
        p(pts[0])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bundled_polynomials_hold_normalised_coefficients(models,
                                                          invariant_basis,
                                                          normalised):
    # Every polynomial the library builds on the bundled models: Casimirs as
    # parsed, H on g*, the degree-4 invariants on m*, their m*-brackets and
    # the Lie-Poisson brackets of H with the Casimirs and coordinates.
    for name, spec in models.items():
        s = spec.structure
        n = s.dim
        h = oracles.hamiltonian_polynomial(s)
        invariants = invariant_basis(name, 4).polynomials
        adot = _m_vertical_field(s)
        polys = [h, *spec.casimirs.values(), *invariants, *adot]
        polys += [_bracket_on_m(f, adot) for f in invariants]
        polys += [oracles.lie_poisson_bracket(h, f, s.algebra)
                  for f in spec.casimirs.values()]
        polys += [oracles.lie_poisson_bracket(Polynomial.coordinate(n, i), h,
                                      s.algebra) for i in range(min(n, 6))]
        assert _all_normalised(normalised, *polys), name
