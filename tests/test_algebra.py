from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
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
    assert np.allclose(oracles.bracket(g, x, y), oracles.ad_matrix(g, x) @ y)


@pytest.mark.parametrize("name", ["heisenberg", "cartan", "so3_generic",
                                  "rolling_sphere", "free_step2_rank3"])
def test_jacobi_float(name, models):
    g = models[name].structure.algebra
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b, c = _rand_vecs(rng, g.dim, 3)
        total = (
            oracles.bracket(g, a, oracles.bracket(g, b, c))
            + oracles.bracket(g, b, oracles.bracket(g, c, a))
            + oracles.bracket(g, c, oracles.bracket(g, a, b))
        )
        scale = max(np.max(np.abs(v)) for v in (a, b, c)) ** 3
        assert np.max(np.abs(total)) < 1e-12 * (1 + scale)


@pytest.mark.parametrize("name", ["heisenberg", "cartan", "so3_axisym"])
def test_coad_pairing(name, models):
    g = models[name].structure.algebra
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, p, xi = _rand_vecs(rng, g.dim, 3)
        lhs = float(oracles.coad_apply(g, x, p) @ xi)
        rhs = float(p @ oracles.bracket(g, x, xi))
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
        val = (oracles.bracket(g, z, x) @ k @ y
               + x @ k @ oracles.bracket(g, z, y))
        assert abs(val) < 1e-10


def test_reductivity_exact(models):
    for spec in models.values():
        s = spec.structure
        g = s.algebra
        for a in range(s.k.dim):
            for b in range(s.m.dim):
                w = g.bracket_exact(s.k.basis[:, a], s.m.basis[:, b])
                assert oracles.contains(s.m, w), spec.name


_entries = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subspace_equality_and_membership(data):
    a = Subspace.from_vectors(3, [[1, 0, 0], [1, 1, 0]])
    b = Subspace.from_vectors(3, [[0, 1, 0], [2, 1, 0]])
    assert a == b
    assert oracles.contains(a, [Fraction(5), Fraction(-3), Fraction(0)])
    assert not oracles.contains(a, [Fraction(0), Fraction(0), Fraction(1)])
    assert a.contains_subspace(b)
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [[1, 0, 0], [2, 0, 0]])

    # Random integer and Fraction spanning sets, dependent ones included:
    # membership read off the canonical form agrees with exactla.solve.
    n = data.draw(st.integers(1, 5))
    d = data.draw(st.integers(0, 4))
    vecs = data.draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                              min_size=d, max_size=d))
    cols = exactla.fmat(vecs).T if d else exactla.fzeros(n, 0)
    span = Subspace.span_of_columns(n, cols)
    assert span.dim == exactla.rank(cols)
    assert span == Subspace(n, span.basis)
    if span.dim:
        assert (span.canonical == exactla.column_echelon(cols)).all()
    coeffs = data.draw(st.lists(_entries, min_size=d, max_size=d))
    inside = exactla.matvec(cols, coeffs) if d else exactla.fzeros(n, 1)[:, 0]
    outside = data.draw(st.lists(_entries, min_size=n, max_size=n))
    for v in (inside, outside):
        expected = exactla.solve(cols, exactla.fmat([[x] for x in v])) is not None
        assert oracles.contains(span, v) == expected
        assert span.contains_all([{i: exactla._int_or_fraction(x)
                                   for i, x in enumerate(v) if x}]) == expected
    assert oracles.contains(span, inside)
    assert span.contains_subspace(span)
    line = Subspace.span_of_columns(n, exactla.fmat([[x] for x in outside]))
    assert span.contains_subspace(line) == oracles.contains(span, outside)


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


@pytest.mark.parametrize("scale, what", [
    (Fraction(10) ** 400, "the metric"),
    (Fraction(10) ** -310, "the inverse metric"),  # subnormal, inverse 1e310
])
def test_structure_rejects_metric_beyond_the_float_range(heisenberg, scale,
                                                         what):
    s = heisenberg.structure
    with pytest.raises(ValueError,
                       match=f"^{what} has entries beyond the float range"):
        srgo.HomogeneousSRStructure(
            s.algebra, s.k, s.m, s.delta, [[scale, 0], [0, scale]])


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


def test_invariant_metrics_pass_the_k_invariance_check(models, mixed,
                                                       so3_plus_center):
    # The k-pairings the check reads vanish on every bundled structure, on
    # its mixed m basis and on so3_plus_center (k central).
    for s in [*(spec.structure for spec in models.values()),
              *mixed.values(), so3_plus_center.structure]:
        assert s._dh_pairings(s.k.basis) == {}


def test_bracket_beyond_the_float_range_is_rejected():
    # The float layers (the Killing form of the existence route) would
    # raise OverflowError on it.
    with pytest.raises(ValueError,
                       match="^the bracket has non-finite coefficients$"):
        LieAlgebra.from_brackets(3, {(0, 1): {2: 10 ** 400}})


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


def test_exact_stores_hold_ints_or_proper_fractions(models, normalised):
    # An integral value is stored as an int, any other as a Fraction: a
    # float here is an int / int that slipped in, an integral Fraction a
    # value that missed exactla._int_or_fraction.
    for name, spec in models.items():
        s = spec.structure
        stores = {
            "by_i": [c for row in s.algebra.by_i for _, _, c in row],
            "vertical_terms_exact": [t[-1] for t in s.vertical_terms_exact],
            "k_action_exact": [t[-1] for t in s.k_action_exact],
            "dmat_exact": list(s.dmat_exact.flat),
            "metric": list(s.metric.flat),
            "metric_inv": list(s.metric_inv.flat),
            "m_dual_exact": list(s.m_dual_exact.flat),
        }
        for label, space in [("k", s.k), ("m", s.m), ("delta", s.delta)] + [
                (f"grading[{i}]", layer)
                for i, layer in enumerate(s.grading or ())]:
            stores[label + ".basis"] = list(space.basis.flat)
            stores[label + ".canonical"] = list(space.canonical.flat)
        assert stores["by_i"], name
        for label, values in stores.items():
            assert all(normalised(v) for v in values), (name, label)


def test_span_of_columns_reduces_once(monkeypatch):
    calls = []
    reduce = exactla._reduce

    def counted(rows):
        rows = list(rows)
        calls.append(len(rows))
        return reduce(rows)

    monkeypatch.setattr(exactla, "_reduce", counted)
    cols = exactla.fmat([[1, 2, 0], [0, 0, 1], [1, 2, 1]])
    span = Subspace.span_of_columns(3, cols)
    assert calls == [3]
    assert span.dim == 2 and span == Subspace(3, span.basis)
    assert (span.basis == span.canonical).all()
