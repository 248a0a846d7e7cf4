"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance inline; together they pin down exact
validation, integrator fidelity, conservation, the homogeneity criterion,
both geodesic-orbit refutation routes, the fixed-point census, the
existence pipeline, orbit-tangency consistency, determinism, and the
paper's theorem that weakly commutative spaces are geodesic orbit.
"""

import json
import time
from collections import defaultdict

import numpy as np
import pytest

import srgo
import srgo.cli as cli
from srgo import (
    HOMOGENEOUS,
    NOT_HOMOGENEOUS,
    Momentum,
    Subspace,
    carnot_skew_test,
    check_homogeneous,
    closed_form_axisymmetric,
    construct_homogeneous_geodesic,
    factorize_by_ideal,
    find_fixed_points,
    go_test_bracket,
    go_verdict,
    integrate_vertical,
    integrate_vertical_batch,
    invariant_polynomials,
    orbit_tangency_check,
    sample_momenta,
    verify_eigenconstruction,
)
from srgo import exactla
from srgo.existence import ROUTE_SOLVABLE
from srgo.go import GO_AFFIRMED, GO_REFUTED
from srgo.homogeneity import homogeneity_verdicts
from srgo.poly import Polynomial


def test_01_structural_exactness(models):
    start = time.time()
    for name, spec in models.items():
        report = spec.structure.algebra.validate()
        assert report.ok, f"{name}: {report.violations[:3]}"
        report = spec.structure.validate()
        assert report.ok, f"{name}: {report.violations[:3]}"
    assert time.time() - start < 5.0


def test_02_dynamics_fidelity(heisenberg):
    s = heisenberg.structure
    p0 = Momentum(np.array([1.0, 0.0, 1.0, 0.0]), s)
    traj = integrate_vertical(p0, 1.0, 1e-3)
    exact = np.array([np.cos(1.0), np.sin(1.0), 1.0, 0.0])
    assert np.max(np.abs(traj.momenta[-1] - exact)) < 1e-8

    def endpoint_error(step):
        t = integrate_vertical(p0, 1.0, step)
        return np.max(np.abs(t.momenta[-1] - exact))

    factor = endpoint_error(0.1) / endpoint_error(0.05)
    assert 12.0 <= factor <= 20.0


def test_03_conservation(models, cartan):
    for name, spec in models.items():
        s = spec.structure
        rng = np.random.default_rng(0)
        p0 = Momentum(sample_momenta(s, 1, rng)[0], s)
        traj = integrate_vertical(p0, 10.0, 1e-3)
        assert not traj.aborted, name
        assert traj.h_drift() < 1e-8, name

    rng = np.random.default_rng(1)
    p0 = Momentum(sample_momenta(cartan.structure, 1, rng)[0], cartan.structure)
    traj = integrate_vertical(p0, 10.0, 1e-3, casimirs=cartan.casimirs)
    drifts = traj.casimir_drifts()
    assert set(drifts) == {"C1", "C2", "C3"}
    for name, drift in drifts.items():
        assert drift < 1e-8, (name, drift)


def test_04_closed_form_cross_check(so3_axisym):
    s = so3_axisym.structure
    p0 = Momentum(np.array([0.9, -0.4, 1.3, 0.0]), s)
    traj = integrate_vertical(p0, 10.0, 1e-3)
    worst = 0.0
    for i in range(0, traj.n_samples, 50):
        exact = closed_form_axisymmetric(p0, traj.times[i])
        worst = max(worst, np.max(np.abs(traj.momenta[i] - exact.coords)))
    assert worst < 1e-6


def test_05_homogeneity_criterion(models, cartan):
    for name in ["heisenberg", "free_step2_rank3"]:
        s = models[name].structure
        rng = np.random.default_rng(0)
        for p in sample_momenta(s, 1000, rng):
            cert = check_homogeneous(Momentum(p, s))
            assert cert.verdict == HOMOGENEOUS, name

    s = cartan.structure
    rng = np.random.default_rng(0)
    base = sample_momenta(s, 200, rng)
    for p in base[:100]:
        q = p.copy()
        q[3] = q[4] = 0.0
        cert = check_homogeneous(Momentum(q, s))
        assert cert.verdict == HOMOGENEOUS
    for p in base[100:]:
        q = p.copy()
        q[3], q[4] = 1.0, -0.5  # pairing with the second layer, norm > 0.1
        cert = check_homogeneous(Momentum(q, s))
        assert cert.verdict == NOT_HOMOGENEOUS
        assert cert.residual > 1e-4


def test_06_two_route_refutation_agreement(models, cartan):
    skew = carnot_skew_test(cartan.structure)
    assert not skew.is_skew
    bracket = go_test_bracket(cartan.structure)
    assert not bracket.all_vanish

    for rank in range(2, 7):
        s = models[f"free_step2_rank{rank}"].structure
        skew = carnot_skew_test(s)
        assert skew.is_skew, rank
        bracket = go_test_bracket(s)
        assert bracket.all_vanish, rank


def test_07_fixed_point_census(models, heisenberg):
    s = models["so3_generic"].structure
    points = find_fixed_points(s, 100, seed=0)
    assert len(points) == 6
    inertia = np.array([1.0, 2.0, 3.0])
    for pt in points:
        axis = int(np.argmax(np.abs(pt.coords)))
        expected = np.zeros(3)
        expected[axis] = np.sign(pt.coords[axis]) * np.sqrt(inertia[axis])
        assert np.max(np.abs(pt.coords - expected)) < 1e-8

    for pt in find_fixed_points(heisenberg.structure, 50, seed=0):
        assert abs(pt.coords[2]) < 1e-8


def test_08_existence_pipeline(models, cartan, heisenberg):
    for name in ["so3_kp", "sl2_kp", "heisenberg"]:
        s = models[name].structure
        result = construct_homogeneous_geodesic(s)
        assert result.success, name
        cert = check_homogeneous(Momentum(result.momentum, s))
        assert cert.verdict == HOMOGENEOUS, name
        audit = verify_eigenconstruction(s, result)
        assert audit["homogeneous"] and audit["residual"] < 1e-8, name
    assert construct_homogeneous_geodesic(
        heisenberg.structure
    ).route == ROUTE_SOLVABLE

    ideal = Subspace.from_vectors(6, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]])
    fact = factorize_by_ideal(cartan.structure, ideal)
    assert (
        fact.structure.algebra.constants
        == heisenberg.structure.algebra.constants
    ).all()
    result = construct_homogeneous_geodesic(fact.structure)
    assert result.success
    lifted = fact.lift(result.momentum)
    assert check_homogeneous(
        Momentum(lifted, cartan.structure)
    ).verdict == HOMOGENEOUS


def test_09_orbit_tangency_consistency(models, cartan):
    # Each model's momenta are certified by one batched residual call and
    # integrated as one batch.
    for name in ["heisenberg", "free_step2_rank2", "so3_axisym", "cartan"]:
        s = models[name].structure
        invs = invariant_polynomials(s, 4).polynomials
        rng = np.random.default_rng(0)
        momenta = sample_momenta(s, 100, rng)
        if name == "cartan":
            momenta[:, 3] = momenta[:, 4] = 0.0
        assert homogeneity_verdicts(s, momenta) == [HOMOGENEOUS] * 100, name
        for traj in integrate_vertical_batch(s, momenta, 10.0, 1e-3):
            sparse = srgo.Trajectory(
                s, traj.times[::100], traj.momenta[::100],
                diagnostics={"H": traj.diagnostics["H"][::100]},
            )
            report = orbit_tangency_check(sparse, invs)
            assert report.passed, (name, report.max_gap)

    s = cartan.structure
    invs = invariant_polynomials(s, 4).polynomials
    rng = np.random.default_rng(5)
    counter = sample_momenta(s, 10, rng)
    counter[:, 3] = 1.0
    assert homogeneity_verdicts(s, counter) == [NOT_HOMOGENEOUS] * 10
    for traj in integrate_vertical_batch(s, counter, 10.0, 1e-3):
        report = orbit_tangency_check(traj, invs)
        assert not report.passed
        assert report.max_gap > 0.1


def test_10_determinism(tmp_path):
    pairs = []
    for tag, args in [
        ("integrate", ["integrate", "--model", "cartan",
                       "--p0", "1,0.3,0.2,0.1,0.05", "--T", "5",
                       "--step", "0.001"]),
        ("portrait", ["integrate", "--model", "so3_axisym",
                      "--phase-portrait", "--samples", "12", "--T", "3",
                      "--step", "0.01", "--seed", "4"]),
        ("go", ["go", "--model", "cartan", "--samples", "100",
                "--seed", "11"]),
        ("exist", ["exist", "--model", "sl2_kp"]),
    ]:
        a, b = tmp_path / f"{tag}_a", tmp_path / f"{tag}_b"
        assert cli.main(args + ["--out", str(a)]) in (0, 1)
        assert cli.main(args + ["--out", str(b)]) in (0, 1)
        pairs.append((tag, a.read_bytes(), b.read_bytes()))
    for tag, blob_a, blob_b in pairs:
        assert blob_a == blob_b, tag

    out = tmp_path / "go_a_again"
    assert cli.main(["go", "--model", "cartan", "--samples", "100",
                     "--seed", "11", "--out", str(out)]) == 0
    assert out.read_bytes() == pairs[2][1]
    payload = json.loads(pairs[2][1])
    assert payload["verdict"] == "GO_refuted_with_witness"


def _m_poisson_bracket(s):
    """{F, G} on k-circ in m*-coordinates for K-invariant F and G:
    sum_rt p([m_r, m_t]) dF/da_r dG/da_t at p = m_dual a."""
    dm = s.m.dim
    mb = exactla.row_nonzeros(s.m.basis)  # i -> [(r, m_basis[i, r])]
    md = exactla.row_nonzeros(s.m_dual_exact)  # k -> [(u, m_dual[k, u])]
    forms = defaultdict(dict)  # (r, t) -> {monomial a_u: coefficient}
    for i, j, k, c in s.algebra.coo:
        for r, x in mb[i]:
            for t, y in mb[j]:
                for u, z in md[k]:
                    mono = tuple(int(v == u) for v in range(dm))
                    form = forms[r, t]
                    form[mono] = form.get(mono, 0) + c * x * y * z
    pi = [(r, t, Polynomial(dm, form)) for (r, t), form in forms.items()]

    def bracket(f, g):
        return sum((lin * f.diff(r) * g.diff(t) for r, t, lin in pi),
                   Polynomial.zero(dm))

    return bracket


def test_11_weakly_commutative_models_are_go(models, invariant_basis):
    # The paper's theorem: a weakly commutative space is geodesic orbit.
    # Weak commutativity to degree 4: the K-invariant polynomials on m* of
    # degree <= 4 Poisson-commute pairwise (pairs of total degree <= 6).
    noncommuting = {}
    for name, spec in models.items():
        s = spec.structure
        if s.k.dim == 0 or s.m.dim > 15:
            continue
        bracket = _m_poisson_bracket(s)
        invs = [(d, f) for d, fs in invariant_basis(name, 4).by_degree.items()
                for f in fs]
        pairs = [(f, g) for a, (d, f) in enumerate(invs)
                 for e, g in invs[a + 1:] if d + e <= 6]
        bad = sum(not bracket(f, g).is_zero() for f, g in pairs)
        verdict = go_verdict(s, degree_cap=4, samples=50).verdict
        if bad == 0:
            assert verdict == GO_AFFIRMED, name
        else:
            noncommuting[name] = (bad, len(pairs), verdict)
    assert noncommuting == {"cartan": (77, 139, GO_REFUTED)}
