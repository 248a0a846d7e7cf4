from fractions import Fraction

import numpy as np
import pytest

import srgo
from srgo import (
    HomogeneousSRStructure,
    LieAlgebra,
    Momentum,
    Subspace,
    carnot_skew_test,
    go_test_bracket,
    go_verdict,
    invariant_polynomials,
)
from srgo.go import (
    GO_AFFIRMED,
    GO_EVIDENCE,
    GO_REFUTED,
    _m_action_matrices,
    _tangency_witness,
    _verify_witness,
)
from srgo.poly import Polynomial, poly_from_string


@pytest.fixture(scope="module")
def verdicts(models):
    return {
        name: go_verdict(models[name].structure, samples=200)
        for name in [
            "heisenberg", "cartan", "so3_axisym", "sl2_axisym",
            "so3_generic", "rolling_sphere", "biinvariant_compact",
            "free_step2_rank2", "free_step2_rank3",
        ]
    }


def test_go_verdict_rejects_samples_before_the_bracket_test(cartan,
                                                           monkeypatch):
    def bracket_test(*args, **kwargs):
        raise AssertionError("bracket test ran")

    monkeypatch.setattr(srgo.go, "go_test_bracket", bracket_test)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be positive"):
            go_verdict(cartan.structure, degree_cap=6, samples=samples)


def test_invariant_basis_heisenberg(heisenberg):
    basis = invariant_polynomials(heisenberg.structure, 2)
    # Degree 1: only the central direction survives the rotation.
    assert [repr(p) for p in basis.by_degree[1]] == ["p3"]
    # Degree 2: p3^2, p1^2 + p2^2 (up to scaling/order).
    assert len(basis.by_degree[2]) == 2


def test_invariant_basis_closure(models):
    # Re-applying the infinitesimal action to each invariant is exactly 0.
    for name in ["heisenberg", "so3_axisym", "cartan", "free_step2_rank2"]:
        s = models[name].structure
        basis = invariant_polynomials(s, 3)
        actions = _m_action_matrices(s)
        for poly in basis.polynomials:
            for r in actions:
                out = Polynomial.zero(poly.nvars)
                for i in range(poly.nvars):
                    lin = {}
                    for k in range(poly.nvars):
                        if r[k, i]:
                            mono = [0] * poly.nvars
                            mono[k] = 1
                            lin[tuple(mono)] = r[k, i]
                    if lin:
                        out = out + Polynomial(poly.nvars, lin) * poly.diff(i)
                assert out.is_zero(), name


def test_trivial_isotropy_gives_all_monomials(models):
    s = models["so3_generic"].structure
    basis = invariant_polynomials(s, 2)
    assert len(basis.by_degree[1]) == 3
    assert len(basis.by_degree[2]) == 6


def test_bracket_witness_certifies(models):
    for name in ["heisenberg", "so3_axisym", "sl2_kp",
                 "free_step2_rank2", "free_step2_rank4"]:
        report = go_test_bracket(models[name].structure)
        assert report.all_vanish, name
        assert report.certified_all_degrees, name
        assert report.witness is not None, name


@pytest.fixture(scope="module")
def witnesses(models):
    return {name: _tangency_witness(spec.structure)
            for name, spec in models.items()}


def test_witness_exists_except_on_four_models(witnesses):
    # Trivial k (biinvariant_compact, rolling_sphere, so3_generic) has no
    # witness to look for; on cartan the exact system is inconsistent.
    missing = {name for name, w in witnesses.items() if w is None}
    assert missing == {"biinvariant_compact", "cartan", "rolling_sphere",
                       "so3_generic"}
    assert {"free_step2_rank5", "free_step2_rank6"} <= witnesses.keys()


def test_every_witness_passes_the_exact_identity(models, witnesses):
    for name, w in witnesses.items():
        if w is not None:
            s = models[name].structure
            assert w.shape == (s.k.dim, s.dim), name
            assert all(isinstance(v, Fraction) for v in w.flat), name
            assert _verify_witness(s, w), name


def test_verify_witness_rejects_a_changed_entry(models, witnesses):
    # The oracle is not vacuous: bumping any one nonzero entry breaks it.
    s = models["free_step2_rank3"].structure
    w = witnesses["free_step2_rank3"]
    entries = list(zip(*np.nonzero(w != 0)))
    assert entries
    for a, q in entries:
        changed = w.copy()
        changed[a, q] += 1
        assert not _verify_witness(s, changed), (a, q)


def test_bracket_refutes_cartan(cartan):
    report = go_test_bracket(cartan.structure)
    assert not report.all_vanish
    assert report.nonzero
    # The central m-invariant fails to commute with H off h4 = h5 = 0.
    inv_reprs = [f for f, _ in report.nonzero]
    assert "p3" in inv_reprs


def test_bracket_abelian_all_vanish():
    # Euclidean case: abelian algebra, trivial isotropy.
    g = LieAlgebra.from_brackets(3, {})
    ident = np.eye(3, dtype=int).tolist()
    s = srgo.HomogeneousSRStructure(
        g,
        Subspace.from_vectors(3, []),
        Subspace.from_vectors(3, ident),
        Subspace.from_vectors(3, ident),
        ident,
    )
    report = go_test_bracket(s, degree_cap=3)
    assert report.all_vanish


def test_skew_refutes_cartan(cartan):
    report = carnot_skew_test(cartan.structure)
    assert not report.is_skew
    assert report.max_asymmetry > 0.5
    assert report.failing_direction is not None


def test_skew_holds_on_step2(models):
    for name in ["heisenberg", "free_step2_rank2", "free_step2_rank3",
                 "free_step2_rank4"]:
        report = carnot_skew_test(models[name].structure)
        assert report.is_skew, name
        assert "step at most 2" in report.step_conclusion


def test_skew_decided_exactly():
    # Step-3 rank-2 Carnot algebra whose third-layer brackets are 1e-15:
    # the float asymmetry is below any float cutoff, the exact one is not.
    tiny = Fraction(1, 10 ** 15)
    g = LieAlgebra.from_brackets(
        5, {(0, 1): {2: 1}, (0, 2): {3: tiny}, (1, 2): {4: tiny}})
    ident = np.eye(5, dtype=int).tolist()
    s = HomogeneousSRStructure(
        g, Subspace.from_vectors(5, []), Subspace.from_vectors(5, ident),
        Subspace.from_vectors(5, ident[:2]), [[1, 0], [0, 1]],
        grading=[Subspace.from_vectors(5, ident[:2]),
                 Subspace.from_vectors(5, [ident[2]]),
                 Subspace.from_vectors(5, ident[3:])])
    report = carnot_skew_test(s)
    assert 0 < report.max_asymmetry < 1e-12
    assert not report.is_skew
    assert list(report.failing_direction) == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_skew_requires_grading_or_complement(so3_axisym):
    with pytest.raises(ValueError):
        carnot_skew_test(so3_axisym.structure)


def test_go_verdicts(verdicts):
    assert verdicts["heisenberg"].verdict == GO_AFFIRMED
    assert verdicts["so3_axisym"].verdict == GO_AFFIRMED
    assert verdicts["sl2_axisym"].verdict == GO_AFFIRMED
    assert verdicts["biinvariant_compact"].verdict == GO_AFFIRMED
    assert verdicts["free_step2_rank2"].verdict == GO_AFFIRMED
    assert verdicts["free_step2_rank3"].verdict == GO_AFFIRMED
    assert verdicts["cartan"].verdict == GO_REFUTED
    assert verdicts["so3_generic"].verdict == GO_EVIDENCE
    assert verdicts["rolling_sphere"].verdict == GO_EVIDENCE


def test_refutation_witness_content(verdicts):
    witness = verdicts["cartan"].refutation_witness
    assert witness is not None
    assert witness["counterexample_momenta"]


def test_rolling_sphere_evidence(verdicts):
    v = verdicts["rolling_sphere"]
    assert v.scan.n_not > 0
    assert any("incomplete" in n for n in v.notes)


def test_two_refutation_routes_agree(verdicts):
    v = verdicts["cartan"]
    assert not v.skew.is_skew
    assert not v.bracket.all_vanish


def test_verdict_serialization(verdicts):
    d = verdicts["cartan"].to_dict()
    assert d["verdict"] == GO_REFUTED
    assert d["skew"]["is_skew"] is False
    assert d["scan"]["samples"] == 200


def test_free_step2_vertical_splitting(models):
    # V-part: dp = rho p; wedge and so(V) parts constant.
    spec = models["free_step2_rank3"]
    s = spec.structure
    rng = np.random.default_rng(8)
    for p in srgo.sample_momenta(s, 5, rng):
        v = s.algebra.coad_apply(s.dH(p), p)
        assert np.max(np.abs(v[3:])) < 1e-12  # wedge + isotropy frozen
        # dp_a = sum_b q_ab p_b with q the wedge part as a skew matrix
        q = np.zeros((3, 3))
        q[0, 1], q[0, 2], q[1, 2] = p[3], p[4], p[5]
        rho = q.T - q  # wedge part as the rotation acting on the V-momenta
        assert np.allclose(v[:3], rho @ p[:3], atol=1e-12)
