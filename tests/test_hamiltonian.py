from fractions import Fraction

import numpy as np
import pytest

import srgo
from srgo import (
    Momentum,
    casimir_check,
    hamiltonian_polynomial,
    hamiltonian_value,
    lie_poisson_bracket,
    vertical_field,
)
from srgo.poly import Polynomial, poly_from_string


def test_momentum_must_annihilate_k(heisenberg):
    s = heisenberg.structure
    Momentum(np.array([1.0, 0, 1, 0]), s)
    with pytest.raises(ValueError, match="annihilate"):
        Momentum(np.array([1.0, 0, 1, 0.5]), s)
    with pytest.raises(ValueError, match="dimension"):
        Momentum(np.array([1.0, 0, 1]), s)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_momentum_must_be_finite(models, bad):
    # A NaN scale would let the annihilation test pass; check both a model
    # with isotropy and one without.
    for name, p in [("heisenberg", [1.0, 0, 1, 0]), ("so3_generic", [1.0, 0, 1])]:
        p = np.array(p)
        p[1] = bad
        with pytest.raises(ValueError, match="finite"):
            Momentum(p, models[name].structure)


def test_hamiltonian_axisym_value(so3_axisym):
    # B = diag(2, 2) on delta, so H(1, 0, p3) = 1/(2*2).
    s = so3_axisym.structure
    p = Momentum(np.array([1.0, 0.0, 0.7, 0.0]), s)
    assert hamiltonian_value(p) == pytest.approx(0.25)


def test_vertical_field_heisenberg(heisenberg):
    s = heisenberg.structure
    v = vertical_field(Momentum(np.array([1.0, 0, 1, 0]), s))
    assert np.allclose(v, [0, 1, 0, 0])
    # p3 = 0 is a fixed plane.
    v = vertical_field(Momentum(np.array([0.3, -0.8, 0.0, 0.0]), s))
    assert np.allclose(v, 0)


def test_vertical_field_rolling_sphere(models):
    # Rotational part evolves inside so3, translational part is frozen.
    s = models["rolling_sphere"].structure
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = rng.standard_normal(5)
        v = s.algebra.coad_apply(s.dH(p), p)
        assert v[3] == pytest.approx(0.0, abs=1e-12)
        assert v[4] == pytest.approx(0.0, abs=1e-12)


def test_vertical_field_annihilates_k(models):
    # Reductive invariant metric: the flow stays in the annihilator of k.
    for spec in models.values():
        s = spec.structure
        if not s.k.dim:
            continue
        rng = np.random.default_rng(11)
        p = srgo.sample_momenta(s, 3, rng)
        for row in p:
            v = s.algebra.coad_apply(s.dH(row), row)
            assert np.max(np.abs(s.k_basis_float.T @ v)) < 1e-10, spec.name


def test_hamiltonian_polynomial_matches_value(models):
    for spec in models.values():
        s = spec.structure
        h = hamiltonian_polynomial(s)
        rng = np.random.default_rng(2)
        for row in srgo.sample_momenta(s, 3, rng):
            assert h(row) == pytest.approx(s.hamiltonian_value(row), abs=1e-10)


def test_poisson_bracket_coordinates(heisenberg):
    g = heisenberg.structure.algebra
    p1 = Polynomial.coordinate(4, 0)
    p2 = Polynomial.coordinate(4, 1)
    assert lie_poisson_bracket(p1, p2, g) == Polynomial.coordinate(4, 2)


def test_poisson_bracket_axioms(cartan):
    g = cartan.structure.algebra
    n = g.dim
    f = poly_from_string("p1*p2 + p3^2", n)
    gg = poly_from_string("p4*p5 - p1", n)
    h = poly_from_string("p2 + p6*p3", n)
    br = lambda a, b: lie_poisson_bracket(a, b, g)
    assert (br(f, gg) + br(gg, f)).is_zero()
    leibniz = br(f, gg * h) - (br(f, gg) * h + gg * br(f, h))
    assert leibniz.is_zero()
    jacobi = br(f, br(gg, h)) + br(gg, br(h, f)) + br(h, br(f, gg))
    assert jacobi.is_zero()


def test_poisson_variable_mismatch(heisenberg):
    g = heisenberg.structure.algebra
    with pytest.raises(ValueError):
        lie_poisson_bracket(
            Polynomial.coordinate(3, 0), Polynomial.coordinate(3, 0), g
        )


def test_casimir_check_full_algebra(models):
    # These registered polynomials are Casimirs of the whole algebra.
    for name in ["heisenberg", "so3_axisym", "sl2_axisym", "so3_generic",
                 "biinvariant_compact", "rolling_sphere",
                 "free_step2_rank2", "free_step2_rank3"]:
        spec = models[name]
        g = spec.structure.algebra
        for cname, poly in spec.casimirs.items():
            assert casimir_check(poly, g), f"{name}:{cname}"


def test_cartan_conserved_are_not_full_casimirs(cartan):
    # The rotation direction breaks two of the three nilpotent-part
    # Casimirs, which is exactly why the model is not geodesic orbit.
    g = cartan.structure.algebra
    assert not casimir_check(cartan.casimirs["C2"], g)
    assert not casimir_check(cartan.casimirs["C3"], g)
