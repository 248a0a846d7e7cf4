from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srgo import invariant_polynomials
from srgo.poly import Polynomial, monomials_of_degree, poly_from_string


def small_polys(nvars=3, max_terms=4):
    mono = st.tuples(*[st.integers(0, 3) for _ in range(nvars)])
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda t: Polynomial(nvars, t)
    )


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
    assert p.eval_exact([2, 3, 1]) == Fraction(7)


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


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_eval_matches_exact(p):
    pt = [Fraction(1, 2), Fraction(-2), Fraction(3)]
    assert p([float(x) for x in pt]) == pytest.approx(
        float(p.eval_exact(pt)), abs=1e-9
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
