from fractions import Fraction

import numpy as np
import pytest

import oracles
import srgo
from srgo import (
    HOMOGENEOUS,
    INCONCLUSIVE,
    NOT_HOMOGENEOUS,
    Momentum,
    check_homogeneous,
    integrate_vertical,
    invariant_polynomials,
    orbit_tangency_check,
    sample_momenta,
    scan_homogeneous,
)
from srgo import exactla
from srgo.homogeneity import (
    _float_verdicts,
    feasibility_residuals,
    feasibility_systems,
    homogeneity_verdicts,
)


def test_heisenberg_momenta_homogeneous(heisenberg):
    s = heisenberg.structure
    for coords in ([1.0, 0, 1, 0], [0.3, -0.7, 2.0, 0], [1.0, 0, 0, 0]):
        cert = check_homogeneous(Momentum(np.array(coords), s))
        assert cert.verdict == HOMOGENEOUS
        # The witness satisfies p([X, e_j]) = 0 for the whole basis.
        p = np.array(coords)
        residual = oracles.coad_apply(s.algebra, cert.witness, p)
        assert np.max(np.abs(residual)) < 1e-8


def test_cartan_split_verdicts(cartan):
    s = cartan.structure
    good = Momentum(np.array([1.0, 0.4, 0.8, 0.0, 0.0, 0.0]), s)
    assert check_homogeneous(good).verdict == HOMOGENEOUS
    bad = Momentum(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), s)
    cert = check_homogeneous(bad)
    assert cert.verdict == NOT_HOMOGENEOUS
    assert cert.residual > 1e-4


def test_trivial_isotropy_reduces_to_fixed_point(models):
    s = models["so3_generic"].structure
    fixed = Momentum(np.array([0.0, 0.0, np.sqrt(3.0)]), s)
    assert check_homogeneous(fixed).verdict == HOMOGENEOUS
    moving = Momentum(np.array([1.0, 0.5, 0.5]), s)
    assert check_homogeneous(moving).verdict == NOT_HOMOGENEOUS


def test_scan_heisenberg_all_homogeneous(heisenberg):
    summary = scan_homogeneous(heisenberg.structure, 300, seed=0)
    assert summary.n_homogeneous == 300
    assert summary.n_inconclusive == 0
    assert summary.fraction_homogeneous == 1.0
    assert summary.counterexamples == []


def test_scan_counterexamples_recorded(cartan):
    summary = scan_homogeneous(cartan.structure, 100, seed=0)
    assert summary.n_not > 0
    assert summary.counterexamples
    assert len(summary.counterexamples) <= 10
    d = summary.to_dict()
    assert d["samples"] == 100
    assert d["homogeneous"] + d["not_homogeneous"] + d["inconclusive"] == 100


def test_scan_deterministic(cartan):
    a = scan_homogeneous(cartan.structure, 50, seed=3)
    b = scan_homogeneous(cartan.structure, 50, seed=3)
    assert a.to_dict() == b.to_dict()


def test_scan_rejects_bad_samples(heisenberg):
    with pytest.raises(ValueError):
        scan_homogeneous(heisenberg.structure, 0)


def test_orbit_tangency_axisym(so3_axisym):
    s = so3_axisym.structure
    p0 = Momentum(np.array([1.0, 0.5, 0.6, 0.0]), s)
    traj = integrate_vertical(p0, 10.0, 1e-3)
    from srgo.poly import poly_from_string

    invs = [poly_from_string("p3", 3), poly_from_string("p1^2 + p2^2", 3)]
    report = orbit_tangency_check(traj, invs)
    assert report.passed
    assert report.max_gap < 1e-8


def test_orbit_tangency_detects_variation(cartan):
    s = cartan.structure
    p0 = Momentum(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), s)
    traj = integrate_vertical(p0, 10.0, 1e-3)
    invs = invariant_polynomials(s, 2).polynomials
    report = orbit_tangency_check(traj, invs)
    assert not report.passed
    assert report.max_gap > 0.1


def test_certificate_serialization(heisenberg):
    cert = check_homogeneous(
        Momentum(np.array([1.0, 0, 1, 0]), heisenberg.structure)
    )
    d = cert.to_dict()
    assert d["verdict"] == HOMOGENEOUS
    assert len(d["witness"]) == 4
    assert d["threshold"] == 1e-8


def _lstsq_reference(s, p):
    """Relative residual and z of one feasibility system by np.linalg.lstsq."""
    g = s.algebra
    b = -oracles.coad_apply(g, s.dH(p), p)
    bnorm = float(np.linalg.norm(b))
    if not s.k.dim:
        return bnorm / (1.0 + bnorm), np.zeros(0)
    a = np.stack([oracles.coad_apply(g, s.k_basis_float[:, j], p)
                  for j in range(s.k.dim)], axis=1)
    z, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(np.linalg.norm(a @ z - b)) / (1.0 + bnorm), z


def _band(relres, threshold=1e-8):
    return 0 if relres < threshold else 1 if relres < 10 * threshold else 2


@pytest.mark.parametrize("name", srgo.list_models())
def test_batched_residuals_match_per_row_lstsq(name, models, mixed):
    # The systems hold dim m rows paired with the m basis, weighted by
    # m_dual_r so that their residual is the reference's g-coordinate one,
    # on the bundled (standard) m basis and on the mixed one alike.
    for s in (models[name].structure, mixed[name]):
        momenta = sample_momenta(s, 1000, np.random.default_rng(17))
        if name == "cartan":  # half of them on the homogeneous set p4 = p5 = 0
            momenta[::2, 3:5] = 0.0
        a, b = feasibility_systems(s, momenta)
        assert a.shape == (1000, s.m.dim, s.k.dim) and b.shape == (1000, s.m.dim)
        relres, z = feasibility_residuals(s, momenta)
        assert relres.shape == (1000,) and z.shape == (1000, s.k.dim)
        for row, r, zr in zip(momenta, relres, z):
            ref, zref = _lstsq_reference(s, row)
            assert _band(r) == _band(ref)
            assert abs(r - ref) <= 1e-12
            if r < 1e-8:  # a certificate's witness: same z
                assert np.max(np.abs(zr - zref), initial=0.0) <= 1e-12 * (
                    1.0 + np.max(np.abs(zref), initial=0.0))


def _scaled_m(s, scale):
    """s with its m basis multiplied by the exact ``scale``."""
    m = srgo.Subspace(s.dim, exactla.matmul(
        s.m.basis, exactla.fmat(np.diag([scale] * s.m.dim).tolist())))
    return srgo.HomogeneousSRStructure(s.algebra, s.k, m, s.delta, s.metric)


@pytest.mark.parametrize("name", ["cartan", "so3_kp"])
def test_verdicts_do_not_depend_on_the_scale_of_the_m_basis(name, models):
    # A model file may write its m basis at any scale; the residual is the
    # g-coordinate one, so neither the verdicts nor the bands move.
    s = models[name].structure
    momenta = sample_momenta(s, 200, np.random.default_rng(8))
    if name == "cartan":  # a quarter on p4 = p5 = 0, a quarter in the band
        momenta[::4, 3:5] = 0.0
        momenta[1::4, 4] = 0.0
        momenta[1::4, 3] = 1e-6
        momenta[1::4, 3] *= 10 ** -7.5 / feasibility_residuals(
            s, momenta[1::4])[0]
    relres = feasibility_residuals(s, momenta)[0]
    verdicts = homogeneity_verdicts(s, momenta)
    if name == "cartan":
        assert {_band(r) for r in relres} == {0, 1, 2}
        assert set(verdicts) == {HOMOGENEOUS, NOT_HOMOGENEOUS}
    checks = [check_homogeneous(Momentum(p, s)).verdict for p in momenta]
    for scale in (Fraction(1, 10**7), 10**7):
        t = _scaled_m(s, scale)
        scaled = feasibility_residuals(t, momenta)[0]
        assert [_band(r) for r in scaled] == [_band(r) for r in relres]
        assert np.allclose(scaled, relres, rtol=1e-9, atol=1e-15)
        assert homogeneity_verdicts(t, momenta) == verdicts
        assert [check_homogeneous(Momentum(p, t)).verdict
                for p in momenta] == checks


def test_scan_matches_per_row_checks(models):
    for name in ("heisenberg", "cartan", "so3_generic", "free_step2_rank3"):
        s = models[name].structure
        summary = scan_homogeneous(s, 300, seed=2)
        momenta = sample_momenta(s, 300, np.random.default_rng(2))
        verdicts = [check_homogeneous(Momentum(p, s)).verdict for p in momenta]
        assert summary.n_homogeneous == verdicts.count(HOMOGENEOUS), name
        assert summary.n_not == verdicts.count(NOT_HOMOGENEOUS), name
        assert summary.n_inconclusive == verdicts.count(INCONCLUSIVE), name
        counter = [p for p, v in zip(momenta, verdicts) if v == NOT_HOMOGENEOUS]
        assert np.array_equal(summary.counterexamples, counter[:10]), name


def test_non_finite_systems_are_inconclusive(heisenberg, cartan):
    s = heisenberg.structure
    huge = Momentum(np.array([1e308, 1e308, 1e308, 0.0]), s)
    cert = check_homogeneous(huge)
    assert cert.verdict == INCONCLUSIVE
    assert cert.witness is None and np.isnan(cert.residual)
    rows = np.array([[1.0, 0.0, 1.0, 0.0], [np.nan, 0.0, 1.0, 0.0],
                     [1e308, 1e308, 1e308, 0.0], [0.3, -0.7, 2.0, 0.0]])
    relres, z = feasibility_residuals(s, rows)
    assert np.isnan(relres[1:3]).all() and np.isnan(z[1:3]).all()
    assert relres[0] < 1e-12 and relres[3] < 1e-12
    assert np.isfinite(z[[0, 3]]).all()


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
def test_threshold_must_be_finite_and_positive(heisenberg, threshold):
    s = heisenberg.structure
    p = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="finite and positive"):
        check_homogeneous(Momentum(p, s), threshold=threshold)
    with pytest.raises(ValueError, match="finite and positive"):
        homogeneity_verdicts(s, p[None], threshold=threshold)


def _svd_rows(monkeypatch):
    """Spy on feasibility_residuals: the row counts of its SVD calls."""
    calls = []
    real = feasibility_residuals

    def spy(structure, momenta, witness=None):
        if witness is None:
            calls.append(len(momenta))
        return real(structure, momenta, witness)

    monkeypatch.setattr(srgo.homogeneity, "feasibility_residuals", spy)
    return calls


@pytest.mark.parametrize("seed", range(5))
def test_witness_first_verdicts_equal_svd_verdicts(models, witnesses,
                                                   monkeypatch, seed):
    # Sampled momenta lie on k-circ, where L p closes every system; the
    # generic covectors after them mostly do not, and take the SVD route.
    found = {name: w for name, w in witnesses.items() if w is not None}
    assert len(found) == 10
    rng = np.random.default_rng(seed)
    calls = _svd_rows(monkeypatch)
    for name, w in found.items():
        s = models[name].structure
        momenta = np.concatenate([sample_momenta(s, 1000, rng),
                                  rng.standard_normal((50, s.dim))])
        svd = homogeneity_verdicts(s, momenta)
        calls.clear()
        assert homogeneity_verdicts(s, momenta, witness=w) == svd, name
        assert sum(calls) <= 50, name  # no sampled row reached the SVD


def test_wrong_witness_keeps_svd_verdicts(models, witnesses):
    cartan = models["cartan"].structure
    momenta = sample_momenta(cartan, 400, np.random.default_rng(5))
    momenta[::2, 3:5] = 0.0  # half on the homogeneous set p4 = p5 = 0
    # A quarter near it: the residual is linear in a small p4, so this p4
    # puts it in the middle of the exact band [1e-8, 1e-7).
    momenta[::4, 3] = 1e-6
    momenta[::4, 3] *= 10 ** -7.5 / feasibility_residuals(cartan,
                                                          momenta[::4])[0]
    assert {_band(r) for r in feasibility_residuals(cartan, momenta[::4])[0]
            } == {1}
    svd = homogeneity_verdicts(cartan, momenta)
    assert svd[1::2] == [NOT_HOMOGENEOUS] * 200
    assert svd[2::4] == [HOMOGENEOUS] * 100
    assert svd[::4] == [check_homogeneous(Momentum(p, cartan)).verdict
                        for p in momenta[::4]]
    assert svd[::4] == [NOT_HOMOGENEOUS] * 100  # escalated, exactly decided
    assert homogeneity_verdicts(
        cartan, momenta, witness=np.zeros((cartan.k.dim, cartan.dim))) == svd
    rng = np.random.default_rng(6)
    for name in ("free_step2_rank3", "so3_axisym"):
        s = models[name].structure
        w = exactla.to_float(witnesses[name])
        momenta = np.concatenate([sample_momenta(s, 200, rng),
                                  rng.standard_normal((50, s.dim))])
        svd = homogeneity_verdicts(s, momenta)
        for wrong in (np.zeros_like(w), w + 1e-3 * rng.standard_normal(w.shape)):
            assert homogeneity_verdicts(s, momenta, witness=wrong) == svd, name


def test_witness_leaves_overflowing_rows_inconclusive(models, witnesses):
    s = models["free_step2_rank3"].structure
    w = witnesses["free_step2_rank3"]
    momenta = sample_momenta(s, 20, np.random.default_rng(1))
    momenta[::3] *= 1e160  # b(p) = -f(p) is quadratic in p: beyond a float
    verdicts = homogeneity_verdicts(s, momenta, witness=w)
    assert verdicts == homogeneity_verdicts(s, momenta)
    assert verdicts[::3] == [INCONCLUSIVE] * 7
    assert set(verdicts[1::3] + verdicts[2::3]) == {HOMOGENEOUS}
    # A witness beyond the float range closes no row: the SVD decides.
    beyond = w.copy()
    beyond[0, 0] = Fraction(10) ** 400
    infinite = np.full(w.shape, np.inf)
    for wrong in (beyond, infinite):
        assert homogeneity_verdicts(s, momenta[1::3], witness=wrong) == (
            [HOMOGENEOUS] * 7)


def _float_verdict_reference(relres, threshold):
    """The per-value rule _float_verdicts vectorizes."""
    if not np.isfinite(relres):
        return INCONCLUSIVE
    if relres < threshold:
        return HOMOGENEOUS
    if relres >= 10.0 * threshold:
        return NOT_HOMOGENEOUS
    return None


def test_float_verdicts_match_the_per_value_rule():
    t = 1e-8
    relres = np.concatenate([
        [0.0, t, np.nextafter(t, 0), 10 * t, np.nextafter(10 * t, 0),
         np.nan, np.inf, -np.inf, 1e300],
        np.geomspace(1e-12, 1e-4, 500)])
    got = _float_verdicts(relres, t)
    assert got.dtype == object
    assert got.tolist() == [_float_verdict_reference(r, t) for r in relres]
