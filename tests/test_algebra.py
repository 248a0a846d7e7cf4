from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srgo
from srgo import LieAlgebra, Subspace, lie_closure, subspace_sum
from srgo import exactla


def _rand_vecs(rng, n, count):
    return [rng.standard_normal(n) for _ in range(count)]


def test_from_brackets_antisymmetry():
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    assert g.constants[0, 1, 2] == 1
    assert g.constants[1, 0, 2] == -1
    assert g.validate().ok


def test_validate_catches_jacobi_violation():
    # [e1,e2]=e3, [e1,e3]=e1 violates Jacobi.
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    report = g.validate()
    assert not report.ok
    assert any("Jacobi" in v for v in report.violations)


def test_bracket_matches_ad():
    g = srgo.load_model("cartan").structure.algebra
    rng = np.random.default_rng(1)
    x, y = _rand_vecs(rng, g.dim, 2)
    assert np.allclose(g.bracket(x, y), g.ad_matrix(x) @ y)


@pytest.mark.parametrize("name", ["heisenberg", "cartan", "so3_generic",
                                  "rolling_sphere", "free_step2_rank3"])
def test_jacobi_float(name, models):
    g = models[name].structure.algebra
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b, c = _rand_vecs(rng, g.dim, 3)
        total = (
            g.bracket(a, g.bracket(b, c))
            + g.bracket(b, g.bracket(c, a))
            + g.bracket(c, g.bracket(a, b))
        )
        scale = max(np.max(np.abs(v)) for v in (a, b, c)) ** 3
        assert np.max(np.abs(total)) < 1e-12 * (1 + scale)


@pytest.mark.parametrize("name", ["heisenberg", "cartan", "so3_axisym"])
def test_coad_pairing(name, models):
    g = models[name].structure.algebra
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, p, xi = _rand_vecs(rng, g.dim, 3)
        lhs = float(g.coad_apply(x, p) @ xi)
        rhs = float(p @ g.bracket(x, xi))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_killing_so3():
    g = srgo.load_model("so3_generic").structure.algebra
    k = g.killing_form()
    assert (k == exactla.fmat([[-2, 0, 0], [0, -2, 0], [0, 0, -2]])).all()
    assert g.killing_kernel().dim == 0


def test_killing_kernel_rolling_sphere(models):
    s = models["rolling_sphere"].structure
    ker = s.algebra.killing_kernel()
    assert ker == Subspace.from_vectors(
        5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    )


def test_killing_kernel_heisenberg_is_m(heisenberg):
    s = heisenberg.structure
    assert s.algebra.killing_kernel() == s.m


@pytest.mark.parametrize("name", ["so3_generic", "cartan"])
def test_killing_invariance(name, models):
    g = models[name].structure.algebra
    k = g.killing_form_float()
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y, z = _rand_vecs(rng, g.dim, 3)
        val = g.bracket(z, x) @ k @ y + x @ k @ g.bracket(z, y)
        assert abs(val) < 1e-10


def test_reductivity_exact(models):
    for spec in models.values():
        s = spec.structure
        g = s.algebra
        for a in range(s.k.dim):
            for b in range(s.m.dim):
                w = g.bracket_exact(s.k.basis[:, a], s.m.basis[:, b])
                assert s.m.contains(w), spec.name


def test_subspace_equality_and_membership():
    a = Subspace.from_vectors(3, [[1, 0, 0], [1, 1, 0]])
    b = Subspace.from_vectors(3, [[0, 1, 0], [2, 1, 0]])
    assert a == b
    assert a.contains([Fraction(5), Fraction(-3), Fraction(0)])
    assert not a.contains([Fraction(0), Fraction(0), Fraction(1)])
    assert a.contains_subspace(b)
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [[1, 0, 0], [2, 0, 0]])


def test_subspace_sum_and_closure(heisenberg):
    s = heisenberg.structure
    total = subspace_sum(4, [s.k, s.m])
    assert total.dim == 4
    closed = lie_closure(s.algebra, s.delta)
    assert closed == s.m  # e1, e2 generate e3 but not J


def test_structure_rejects_bad_metric(heisenberg):
    s = heisenberg.structure
    with pytest.raises(ValueError, match="positive definite"):
        srgo.HomogeneousSRStructure(
            s.algebra, s.k, s.m, s.delta, [[1, 0], [0, -1]]
        )


def test_structure_rejects_asymmetric_metric(heisenberg):
    # Positive definite in its lower triangle, which is all Cholesky reads.
    s = heisenberg.structure
    with pytest.raises(ValueError, match="not symmetric"):
        srgo.HomogeneousSRStructure(
            s.algebra, s.k, s.m, s.delta, [[1, 5], [0, 1]]
        )


def test_structure_rejects_nonreductive():
    # k = span(e1) with [e1, e2] = e1 pushes brackets back into k.
    g = LieAlgebra.from_brackets(2, {(0, 1): {0: 1}})
    with pytest.raises(ValueError, match="invalid structure"):
        srgo.HomogeneousSRStructure(
            g,
            Subspace.from_vectors(2, [[1, 0]]),
            Subspace.from_vectors(2, [[0, 1]]),
            Subspace.from_vectors(2, [[0, 1]]),
            [[1]],
        )


def test_structure_reports_each_violation_once():
    # so(3) with k = span(X1, X2): several pairs fail each check.
    g = LieAlgebra.from_brackets(
        3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}})
    with pytest.raises(ValueError) as exc:
        srgo.HomogeneousSRStructure(
            g,
            Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]]),
            Subspace.from_vectors(3, [[0, 0, 1]]),
            Subspace.from_vectors(3, [[0, 0, 1]]),
            [[1]],
        )
    assert str(exc.value) == (
        "invalid structure: k is not a subalgebra; "
        "decomposition is not reductive: [k, m] not in m"
    )


def test_grading_validation(cartan):
    s = cartan.structure
    assert s.grading is not None
    assert s.validate().ok


def test_representation_validation(models):
    for name in ["heisenberg", "so3_axisym", "sl2_kp", "rolling_sphere",
                 "so3_generic", "biinvariant_compact"]:
        s = models[name].structure
        assert s.representation is not None
        assert s.validate().ok, name
