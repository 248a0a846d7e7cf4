import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import srgo
from srgo import (
    Momentum,
    closed_form_axisymmetric,
    find_fixed_points,
    integrate_horizontal,
    integrate_vertical,
    integrate_vertical_batch,
    sample_momenta,
)
from srgo.integrate import CSV_BLOCK_ROWS, LIFT_CHUNK, Trajectory, _csv_rows
from srgo.kernels import (
    CHECK_EVERY,
    field_jacobian,
    field_rows,
    rk4_stage_points,
    vertical_rk4,
)


def _seed_momentum(structure, seed=0):
    rng = np.random.default_rng(seed)
    return Momentum(sample_momenta(structure, 1, rng)[0], structure)


def test_rejects_bad_time_parameters(heisenberg):
    p0 = Momentum(np.array([1.0, 0, 1, 0]), heisenberg.structure)
    with pytest.raises(ValueError):
        integrate_vertical(p0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        integrate_vertical(p0, 1.0, 2.0)
    with pytest.raises(ValueError):
        integrate_vertical(p0, 1.0, -1e-3)


def test_heisenberg_analytic_endpoint(heisenberg):
    s = heisenberg.structure
    p0 = Momentum(np.array([1.0, 0, 1, 0]), s)
    traj = integrate_vertical(p0, 1.0, 1e-3)
    expected = np.array([np.cos(1.0), np.sin(1.0), 1.0, 0.0])
    assert np.max(np.abs(traj.momenta[-1] - expected)) < 1e-8


def test_rk4_order_factor(heisenberg):
    s = heisenberg.structure
    p0 = Momentum(np.array([1.0, 0, 1, 0]), s)
    expected = np.array([np.cos(1.0), np.sin(1.0), 1.0, 0.0])

    def endpoint_error(step):
        traj = integrate_vertical(p0, 1.0, step)
        return np.max(np.abs(traj.momenta[-1] - expected))

    factor = endpoint_error(0.1) / endpoint_error(0.05)
    assert 12 <= factor <= 20


def test_energy_and_casimir_conservation(models):
    for spec in models.values():
        s = spec.structure
        p0 = _seed_momentum(s, seed=4)
        traj = integrate_vertical(p0, 10.0, 1e-3, casimirs=spec.casimirs)
        assert not traj.aborted, spec.name
        assert traj.h_drift() < 1e-8, spec.name
        for cname, drift in traj.casimir_drifts().items():
            assert drift < 1e-8, f"{spec.name}:{cname}"


def test_annihilator_preserved_along_flow(models):
    for spec in models.values():
        s = spec.structure
        if not s.k.dim:
            continue
        traj = integrate_vertical(_seed_momentum(s, seed=9), 10.0, 1e-3)
        pairings = traj.momenta @ s.k_basis_float
        assert np.max(np.abs(pairings)) < 1e-9, spec.name


def test_blowup_aborts_with_truncation(models):
    s = models["so3_generic"].structure
    p0 = Momentum(np.array([1e80, 2e80, 3e80]), s)
    traj = integrate_vertical(p0, 1.0, 1e-3)
    assert traj.aborted
    assert traj.n_samples < 1001
    assert np.all(np.isfinite(traj.momenta))


def test_drifts_of_a_non_finite_start_are_nan(models):
    # H(p0) overflows, so the trajectory keeps only its start; the drifts
    # are NaN, and computing them must not warn (warnings are errors here).
    spec = models["so3_generic"]
    p0 = Momentum([1e308, 1e308, 1e308], spec.structure)
    assert np.isnan(integrate_vertical(p0, 0.2, 1e-3).h_drift())
    traj = integrate_vertical(p0, 0.2, 1e-3, casimirs=spec.casimirs)
    assert not np.isfinite(traj.diagnostics["H"][0])
    drifts = traj.casimir_drifts()
    assert drifts and all(np.isnan(v) for v in drifts.values())


def test_closed_form_axisymmetric_models(models):
    # Every model whose derived kappa exists: the rotating flows and the
    # zero field of biinvariant_compact.
    for name in ["so3_axisym", "sl2_axisym", "so3_kp", "sl2_kp",
                 "heisenberg", "free_step2_rank2", "biinvariant_compact"]:
        s = models[name].structure
        p0 = Momentum(s.m_dual @ [1.0, 0.4, 0.8], s)
        traj = integrate_vertical(p0, 10.0, 1e-3)
        for i in range(0, traj.n_samples, 250):
            cf = closed_form_axisymmetric(p0, traj.times[i])
            assert np.max(np.abs(cf.coords - traj.momenta[i])) < 1e-6, name


def test_closed_form_spec_rotation(so3_axisym):
    s = so3_axisym.structure  # kappa = 1/2: the angle at t = pi is pi/2
    p0 = Momentum(np.array([1.0, 0.0, 1.0, 0.0]), s)
    out = closed_form_axisymmetric(p0, np.pi)
    assert np.allclose(out.coords, [0.0, 1.0, 1.0, 0.0], atol=1e-12)


def test_closed_form_rejects_other_models(cartan):
    p0 = Momentum(np.zeros(6), cartan.structure)
    with pytest.raises(ValueError):
        closed_form_axisymmetric(p0, 1.0)


def test_sample_momenta_on_level_set(models):
    for spec in models.values():
        s = spec.structure
        rng = np.random.default_rng(0)
        pts = sample_momenta(s, 20, rng)
        for p in pts:
            assert s.hamiltonian_value(p) == pytest.approx(0.5, abs=1e-12)
            if s.k.dim:
                assert np.max(np.abs(s.k_basis_float.T @ p)) < 1e-12


def test_sample_momenta_deterministic(heisenberg):
    s = heisenberg.structure
    a = sample_momenta(s, 10, np.random.default_rng(42))
    b = sample_momenta(s, 10, np.random.default_rng(42))
    assert np.array_equal(a, b)


class _DrawFails:
    """A Generator stand-in whose every draw raises MemoryError, as numpy's
    does when it cannot allocate the array; it allocates nothing."""

    def standard_normal(self, size):
        raise MemoryError


def test_sample_momenta_too_many_to_draw_is_a_value_error(cartan):
    with pytest.raises(ValueError, match="^1000000000000 samples need more "
                       "memory than can be allocated$"):
        sample_momenta(cartan.structure, 10 ** 12, _DrawFails())


def test_vertical_rk4_too_many_steps_to_store_is_a_value_error(monkeypatch,
                                                              cartan):
    # The samples array is the first allocation; it fails without being
    # attempted.
    def zeros(shape, *args, **kwargs):
        raise MemoryError

    terms = cartan.structure.vertical_terms
    vertical_rk4(terms, np.ones(6), 1e-3, 2)  # compile the block first
    monkeypatch.setattr(np, "zeros", zeros)
    with pytest.raises(ValueError, match="^1000000000000 steps need more "
                       "memory than can be allocated for their samples$"):
        vertical_rk4(terms, np.ones(6), 1e-3, 10 ** 12)


def _sample_momenta_per_row(s, nsamples, rng):
    """sample_momenta as one draw and one set of matvecs per row."""
    e_coef, *_ = np.linalg.lstsq(s.m_basis_float, s.delta_basis_float,
                                 rcond=None)
    rank = e_coef.shape[1]
    gram_inv = np.linalg.inv(e_coef.T @ e_coef)
    _, _, vt = np.linalg.svd(e_coef.T)
    null_dim = s.m.dim - rank
    fill = vt[rank:].T
    sqrt_b = np.linalg.cholesky(s.metric_float)
    out = np.empty((nsamples, s.dim))
    for i in range(nsamples):
        u = rng.standard_normal(rank)
        u /= np.linalg.norm(u)
        a = e_coef @ (gram_inv @ (sqrt_b @ u))
        if null_dim:
            a = a + fill @ rng.standard_normal(null_dim)
        out[i] = s.m_dual @ a
    return out


@pytest.mark.parametrize("name", srgo.list_models())
def test_sample_momenta_equals_per_row_draws_bitwise(models, name):
    # go scans and phase portraits keep their bytes only if the one-shot
    # draw reproduces the per-row stream and arithmetic exactly.
    s = models[name].structure
    for seed in (0, 777, 12345):
        got = sample_momenta(s, 300, np.random.default_rng(seed))
        want = _sample_momenta_per_row(s, 300, np.random.default_rng(seed))
        assert got.shape == want.shape
        assert np.array_equal(got, want), (name, seed)


# sha256 of sample_momenta(s, 64, default_rng(0)).tobytes(), taken when
# the delta coordinates E were found by a float least-squares solve.
SAMPLE_DIGESTS = {
    "biinvariant_compact":
        "4d35bd8541997a833c343593213e832ef22632760f42ba5dec66f0fcaaa2db5d",
    "cartan":
        "eeb988acb85f7a70759af77495d8b780685f69f3130257bb28654f10f6ae1a5c",
    "free_step2_rank2":
        "1957e455ceec4494d3797a1fab95085d446df10e4df6f5ef9c16a5f6e2c8ccd0",
    "free_step2_rank3":
        "d2389e44d8f77b44516cc158fbc3eeca033bee254b343edfa6044e9af82fda8f",
    "free_step2_rank4":
        "d924c33c890ab8df9da779190625410dc2eb8b9b0c54b0abad564d45b219cc29",
    "free_step2_rank5":
        "7479bb33cc0e8c0f84c5f7378cdfffbb690b0ff9c7eba4588d8cb7f7a86c3dc9",
    "free_step2_rank6":
        "e413a3bca1fc3163c9cd8f4ed01f1c124e3d36c636b2e8681746c42aa5079a98",
    "heisenberg":
        "1957e455ceec4494d3797a1fab95085d446df10e4df6f5ef9c16a5f6e2c8ccd0",
    "rolling_sphere":
        "6e3c80f0d195af3fc070f4307ec5571c1183624e3ca6434a87876894b0bdf0dc",
    "sl2_axisym":
        "45155ba48de812a2185aecfa29287c20a3e2d38e8bf565b359bf6eade33dcc21",
    "sl2_kp":
        "1957e455ceec4494d3797a1fab95085d446df10e4df6f5ef9c16a5f6e2c8ccd0",
    "so3_axisym":
        "45155ba48de812a2185aecfa29287c20a3e2d38e8bf565b359bf6eade33dcc21",
    "so3_generic":
        "af946a10817fd4c18dc70e4ab38cd447eec02974a33ef1320f1a139897733dbf",
    "so3_kp":
        "1957e455ceec4494d3797a1fab95085d446df10e4df6f5ef9c16a5f6e2c8ccd0",
}


@pytest.mark.parametrize("name", srgo.list_models())
def test_sample_momenta_bytes_are_pinned(models, name):
    got = sample_momenta(models[name].structure, 64, np.random.default_rng(0))
    assert hashlib.sha256(got.tobytes()).hexdigest() == SAMPLE_DIGESTS[name]


def test_fixed_points_so3_generic(models):
    s = models["so3_generic"].structure
    pts = find_fixed_points(s, 200, seed=0)
    assert len(pts) == 6
    inertia = np.sqrt([1.0, 2.0, 3.0])
    for p in pts:
        idx = int(np.argmax(np.abs(p.coords)))
        assert abs(np.abs(p.coords[idx]) - inertia[idx]) < 1e-8
        others = np.delete(p.coords, idx)
        assert np.max(np.abs(others)) < 1e-6


def test_fixed_points_heisenberg_plane(heisenberg):
    pts = find_fixed_points(heisenberg.structure, 50, seed=0)
    assert pts
    for p in pts:
        assert abs(p.coords[2]) < 1e-8


def test_fixed_points_rolling_sphere(models):
    s = models["rolling_sphere"].structure
    pts = find_fixed_points(s, 100, seed=0)
    assert pts
    for p in pts:
        rot = p.coords[:3]
        # dH in so3-coordinates must be collinear with the rotational part
        x = s.dH(p.coords)[:3]
        cross = np.cross(x, rot)
        assert np.max(np.abs(cross)) < 1e-7


def _fixed_points_per_seed(s, samples, seed):
    """Oracle: Gauss-Newton from one seed at a time with lstsq, then the
    greedy deduplication, one point at a time."""
    kb = s.k_basis_float
    terms = s.vertical_terms

    def residual(p):
        return np.concatenate([field_rows(terms, p[None])[0],
                               [s.hamiltonian_value(p) - 0.5], kb.T @ p])

    def jacobian(p):
        return np.concatenate(
            [field_jacobian(terms, p), s.dH(p)[None, :], kb.T], axis=0)

    found = []
    for p in sample_momenta(s, samples, np.random.default_rng(seed)):
        x = p.copy()
        for _ in range(60):
            r = residual(x)
            if np.linalg.norm(r, np.inf) < 1e-14:
                break
            dx, *_ = np.linalg.lstsq(jacobian(x), -r, rcond=None)
            step_len = np.linalg.norm(dx)
            if step_len > 1.0:
                dx = dx / step_len
            x = x + dx
            if not np.all(np.isfinite(x)):
                break
        if not np.all(np.isfinite(x)):
            continue
        r = residual(x)
        if np.max(np.abs(r[:s.dim])) < 1e-10 and abs(r[s.dim]) < 1e-9 \
                and np.all(np.abs(r[s.dim + 1:]) < 1e-9):
            found.append(x)
    found.sort(key=lambda v: tuple(np.round(v, 8)))
    unique = []
    for x in found:
        if all(np.linalg.norm(x - y) > 1e-6 for y in unique):
            unique.append(x)
    return unique


@pytest.mark.parametrize("name, samples", [
    ("so3_generic", 200), ("so3_axisym", 100), ("heisenberg", 100),
    ("cartan", 100)])
def test_fixed_points_equal_the_per_seed_loop(models, name, samples):
    s = models[name].structure
    got = np.array([p.coords for p in find_fixed_points(s, samples, seed=3)])
    want = np.array(_fixed_points_per_seed(s, samples, 3))
    assert got.shape == want.shape and len(got)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_fixed_points_on_a_continuum_match_the_per_seed_count(models):
    # rolling_sphere's fixed points form a continuum, on which rounding
    # moves each seed's landing point a little: compare the count, and
    # check each point against the conditions themselves.
    s = models["rolling_sphere"].structure
    got = np.array([p.coords for p in find_fixed_points(s, 100, seed=3)])
    assert len(got) == len(_fixed_points_per_seed(s, 100, 3)) > 0
    assert np.max(np.abs(field_rows(s.vertical_terms, got))) < 1e-10
    h = 0.5 * np.einsum("bi,ij,bj->b", got, s.dmat, got)
    assert np.max(np.abs(h - 0.5)) < 1e-9
    assert np.all(np.abs(got @ s.k_basis_float) < 1e-9)


def test_fixed_points_drop_non_finite_seeds_quietly(models, monkeypatch):
    # A NaN seed, an infinite one and a finite one whose residual and
    # Jacobian overflow leave the batch at once, with no RuntimeWarning (an
    # error here) and no LinAlgError; the other seeds give the points they
    # give alone.
    s = models["so3_kp"].structure
    seeds = sample_momenta(s, 40, np.random.default_rng(2))
    alone = find_fixed_points(s, 40, seed=2)
    bad = np.full((3, s.dim), 1.7e308)
    bad[0, 0], bad[1, 1] = np.nan, np.inf
    monkeypatch.setattr(srgo.integrate, "sample_momenta",
                        lambda *args: np.concatenate([bad, seeds]))
    got = find_fixed_points(s, 43, seed=2)
    assert len(got) == len(alone) > 0
    for p, q in zip(got, alone):
        assert np.array_equal(p.coords, q.coords)


def test_horizontal_lift(heisenberg):
    s = heisenberg.structure
    p0 = Momentum(np.array([1.0, 0, 1, 0]), s)
    traj = integrate_horizontal(integrate_vertical(p0, 1.0, 1e-3))
    assert traj.group_points is not None
    assert np.allclose(traj.group_points[0], np.eye(4))
    # G' = G rho(dH(p)) checked by central finite differences mid-run.
    rho = np.stack(s.representation)
    i = traj.n_samples // 2
    dt = traj.times[i + 1] - traj.times[i - 1]
    deriv = (traj.group_points[i + 1] - traj.group_points[i - 1]) / dt
    rhs = traj.group_points[i] @ np.einsum(
        "a,aij->ij", s.dH(traj.momenta[i]), rho
    )
    assert np.max(np.abs(deriv - rhs)) < 1e-5


def test_horizontal_requires_representation(cartan):
    s = cartan.structure
    p0 = Momentum(np.array([1.0, 0, 0, 0, 0, 0]), s)
    traj = integrate_vertical(p0, 0.1, 1e-3)
    with pytest.raises(ValueError):
        integrate_horizontal(traj)


REPRESENTED = [name for name in srgo.list_models()
               if srgo.load_model(name).structure.representation is not None]


def _lift_sequential(traj):
    """Oracle: the group points of the lift, with each RK4 propagator Phi_i
    built one step at a time and G_{i+1} = G_i Phi_i multiplied in order."""
    s = traj.structure
    rho = np.stack(s.representation)
    r = rho.shape[1]
    gpts = np.empty((traj.n_samples, r, r))
    gpts[0] = np.eye(r)
    for i in range(traj.n_samples - 1):
        h = traj.times[i + 1] - traj.times[i]
        a1, a2, a3, a4 = (
            np.einsum("a,aij->ij", s.dH(x[0]), rho)
            for x in rk4_stage_points(s.vertical_terms,
                                      traj.momenta[i:i + 1], h))
        k2 = a2 + 0.5 * h * (a1 @ a2)
        k3 = a3 + 0.5 * h * (k2 @ a3)
        k4 = a4 + h * (k3 @ a4)
        phi = np.eye(r) + h / 6.0 * (a1 + 2.0 * k2 + 2.0 * k3 + k4)
        gpts[i + 1] = gpts[i] @ phi
    return gpts


def _assert_lift_matches_oracle(traj):
    got = integrate_horizontal(traj).group_points
    want = _lift_sequential(traj)
    assert got.shape == want.shape
    assert np.array_equal(got[0], want[0])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# T = 2.537 crosses a block boundary and ends inside a chunk; T = 0.05 is
# shorter than one chunk.
@pytest.mark.parametrize("T", [10.0, 2.537, 0.05])
@pytest.mark.parametrize("name", REPRESENTED)
def test_lift_equals_the_sequential_product(models, name, T):
    s = models[name].structure
    p0 = Momentum(sample_momenta(s, 1, np.random.default_rng(11))[0], s)
    traj = integrate_vertical(p0, T, 1e-3)
    assert traj.n_samples == round(T / 1e-3) + 1
    _assert_lift_matches_oracle(traj)


def test_lift_of_one_sample_and_of_an_aborted_trajectory(models):
    s = models["heisenberg"].structure
    p0 = Momentum(sample_momenta(s, 1, np.random.default_rng(1))[0], s)
    traj = integrate_vertical(p0, 1.0, 1e-3)
    one = Trajectory(s, traj.times[:1], traj.momenta[:1],
                     diagnostics={"H": traj.diagnostics["H"][:1]})
    assert np.array_equal(integrate_horizontal(one).group_points,
                          np.eye(4)[None])
    # The momenta blow up after a few hundred steps, across several chunks.
    aborted = integrate_vertical(Momentum(1e4 * p0.coords, s), 1.0, 1e-3)
    assert aborted.aborted and 3 * LIFT_CHUNK < aborted.n_samples < 1001
    _assert_lift_matches_oracle(aborted)


def test_lift_ends_at_the_last_finite_group_point(models):
    # At |p| near 1e4 a step of 1e-3 puts the lift's RK4 far outside its
    # stability region: G overflows at t = 0.018, long before the momenta
    # do (t = 0.34). The lift ends at the last finite G, with no warning.
    spec = models["so3_kp"]
    s = spec.structure
    p0 = 1e4 * sample_momenta(s, 1, np.random.default_rng(1))[0]
    traj = integrate_vertical(Momentum(p0, s), 1.0, 1e-3,
                              casimirs=spec.casimirs)
    assert traj.aborted and traj.n_samples == 341
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lifted = integrate_horizontal(traj)
    keep = lifted.n_samples
    assert lifted.aborted and keep == 18
    assert np.isfinite(lifted.group_points).all()
    assert lifted.group_points.shape == (keep, 5, 5)
    assert lifted.times.tobytes() == traj.times[:keep].tobytes()
    assert lifted.momenta.tobytes() == traj.momenta[:keep].tobytes()
    assert list(lifted.diagnostics) == list(traj.diagnostics)
    for name, values in lifted.diagnostics.items():
        assert values.tobytes() == traj.diagnostics[name][:keep].tobytes()
    # The same trajectory cut before the overflow lifts to the same G.
    cut = Trajectory(s, traj.times[:keep], traj.momenta[:keep],
                     diagnostics={k: v[:keep]
                                  for k, v in traj.diagnostics.items()})
    again = integrate_horizontal(cut)
    assert not again.aborted
    assert again.group_points.tobytes() == lifted.group_points.tobytes()


def test_csv_format(heisenberg, tmp_path):
    s = heisenberg.structure
    p0 = Momentum(np.array([1.0, 0, 1, 0]), s)
    traj = integrate_vertical(p0, 0.01, 1e-3, casimirs=heisenberg.casimirs)
    path = tmp_path / "out.csv"
    oracles.to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p_1,p_2,p_3,p_4,H,C1,C2"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == pytest.approx(0.5)


def _rk4_einsum_reference(c, dmat, p0, dt, nsteps):
    """Single-trajectory RK4 with a three-operand einsum field."""
    q = np.einsum("ia,ijk->jak", dmat, c)

    def rhs(p):
        return np.einsum("jak,a,k->j", q, p, p)

    out = [p0]
    p = p0
    for _ in range(nsteps):
        k1 = rhs(p)
        k2 = rhs(p + 0.5 * dt * k1)
        k3 = rhs(p + 0.5 * dt * k2)
        k4 = rhs(p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(p)
    return np.array(out)


@pytest.mark.parametrize("name", srgo.list_models())
def test_vertical_terms_reproduce_the_field(models, name):
    s = models[name].structure
    terms = s.vertical_terms
    assert all(a <= k and coef != 0.0 for _, a, k, coef in terms)
    p = np.random.default_rng(4).standard_normal((20, s.dim))
    field = np.zeros_like(p)
    for j, a, k, coef in terms:
        field[:, j] += coef * p[:, a] * p[:, k]
    expected = np.array([oracles.coad_apply(s.algebra, s.dH(row), row)
                         for row in p])
    assert np.allclose(field, expected, rtol=1e-12, atol=1e-12)
    assert np.allclose(field_rows(terms, p), expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", srgo.list_models())
def test_field_jacobian_matches_central_differences(models, name):
    # The field is quadratic, so a central difference is exact up to rounding.
    s = models[name].structure
    p = np.random.default_rng(8).standard_normal(s.dim)
    h = 1e-3
    steps = p + h * np.eye(s.dim), p - h * np.eye(s.dim)
    diff = (field_rows(s.vertical_terms, steps[0])
            - field_rows(s.vertical_terms, steps[1])).T / (2 * h)
    assert np.allclose(field_jacobian(s.vertical_terms, p), diff,
                       rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("name", srgo.list_models())
def test_field_jacobian_of_a_batch_is_each_row_s(models, name):
    s = models[name].structure
    p = np.random.default_rng(9).standard_normal((7, s.dim))
    got = field_jacobian(s.vertical_terms, p)
    assert got.shape == (7, s.dim, s.dim)
    for row, jac in zip(p, got):
        assert np.array_equal(jac, field_jacobian(s.vertical_terms, row))


@pytest.mark.parametrize("name", srgo.list_models())
def test_kernel_batch_rows_match_single_runs_and_reference(models, name):
    s = models[name].structure
    c, d, terms = s.algebra.constants.astype(float), s.dmat, s.vertical_terms
    p0 = sample_momenta(s, 5, np.random.default_rng(1))
    trajs = integrate_vertical_batch(s, p0, 0.3, 1e-3)
    assert len(trajs) == 5
    for b, traj in enumerate(trajs):
        single, single_last = vertical_rk4(terms, p0[b], 1e-3, 300)
        assert single.shape == (301, s.dim) and single_last == 300
        assert not traj.aborted
        assert np.array_equal(traj.momenta, single)
        ref = _rk4_einsum_reference(c, d, p0[b], 1e-3, 300)
        assert np.max(np.abs(single - ref)) < 1e-12


def test_kernel_overflowing_rows_abort_alone(models):
    s = models["so3_generic"].structure
    terms = s.vertical_terms
    # Row 1 overflows in the first step; row 3 grows until it overflows
    # after the first finiteness check.
    p0 = np.array([[1.0, 0.3, 0.8], [1e308, 1e308, 1e308], [0.2, -1.0, 0.5],
                   [2724.9, 2 * 2724.9, 3 * 2724.9]])
    trajs = integrate_vertical_batch(s, p0, 0.2, 1e-3)
    assert [t.aborted for t in trajs] == [False, True, False, True]
    assert [t.n_samples for t in trajs[:3]] == [201, 1, 201]
    assert np.array_equal(trajs[1].momenta[0], p0[1])
    samples, last = vertical_rk4(terms, p0[1], 1e-3, 200)
    assert last == 0 and not np.any(samples[1:])
    late = trajs[3].n_samples - 1
    assert CHECK_EVERY < late < 200
    assert np.all(np.isfinite(trajs[3].momenta))
    assert vertical_rk4(terms, trajs[3].momenta[late], 1e-3, 1)[1] == 0
    single, single_last = vertical_rk4(terms, p0[3], 1e-3, 200)
    assert single_last == late
    assert np.array_equal(single[:late + 1], trajs[3].momenta)
    assert not np.any(single[late + 1:])
    for b in (0, 2):
        assert np.all(np.isfinite(trajs[b].momenta))
        single, _ = vertical_rk4(terms, p0[b], 1e-3, 200)
        assert np.array_equal(trajs[b].momenta, single)


def _rk4_block_source_full_state(n, terms):
    """The oracle's block: every term as coef * a * b with its coefficient
    written out, and each step recorded as the full n-tuple."""
    rows = {}
    for j, a, k, coef in terms:
        rows.setdefault(int(j), []).append((int(a), int(k), repr(float(coef))))
    moving = sorted(rows)
    state = ", ".join(f"p{j}" for j in range(n)) + ","

    def field(slope, x):
        for j in moving:
            sums = " + ".join(
                f"{coef} * {x(a)} * {x(k)}" for a, k, coef in rows[j])
            yield f"        {slope}{j} = {sums}"

    def stage(slope, scale):
        for j in moving:
            yield f"        x{j} = p{j} + {scale} * {slope}{j}"

    def at_x(i):
        return f"x{i}" if i in rows else f"p{i}"

    lines = ["def block(p, h, count):",
             f"    {state} = p",
             "    h2 = 0.5 * h",
             "    h6 = h / 6.0",
             "    rows = []",
             "    for _ in range(count):"]
    lines += field("k1_", lambda i: f"p{i}")
    lines += stage("k1_", "h2")
    lines += field("k2_", at_x)
    lines += stage("k2_", "h2")
    lines += field("k3_", at_x)
    lines += stage("k3_", "h")
    lines += field("k4_", at_x)
    lines += [f"        p{j} = p{j} + h6 * (k1_{j} + 2.0 * (k2_{j} + k3_{j})"
              f" + k4_{j})" for j in moving]
    lines += [f"        rows.append(({state}))", "    return rows", ""]
    return "\n".join(lines)


def _vertical_rk4_full_state(terms, p0, dt, nsteps):
    """vertical_rk4 stepping, storing and checking all n components."""
    namespace = {"__builtins__": {"range": range}}
    exec(_rk4_block_source_full_state(len(p0), terms), namespace)
    block = namespace["block"]
    p = tuple(float(v) for v in p0)
    out = np.zeros((nsteps + 1, len(p)))
    out[0] = p
    for start in range(0, nsteps, CHECK_EVERY):
        stop = min(start + CHECK_EVERY, nsteps)
        rows = block(p, float(dt), stop - start)
        out[start + 1:stop + 1] = rows
        bad = ~np.isfinite(out[start + 1:stop + 1]).all(axis=1)
        if bad.any():
            last = start + int(np.argmax(bad))
            out[last + 1:stop + 1] = 0.0
            return out, last
        p = rows[-1]
    return out, nsteps


def _assert_kernel_matches_full_state(terms, p0, dt, nsteps):
    got, last = vertical_rk4(terms, p0, dt, nsteps)
    want, want_last = _vertical_rk4_full_state(terms, p0, dt, nsteps)
    assert last == want_last
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return last


@pytest.mark.parametrize("name", srgo.list_models())
def test_kernel_equals_the_full_state_oracle(models, name):
    # Sampled momenta, a start whose momenta overflow after a few hundred
    # steps, one that overflows in the first step, and starts with a
    # non-finite moving or fixed component; runs that end inside, at and
    # just past a finiteness check.
    s = models[name].structure
    terms = s.vertical_terms
    moving = sorted({j for j, _, _, _ in terms})
    fixed = [i for i in range(s.dim) if i not in moving]
    p0 = sample_momenta(s, 3, np.random.default_rng(12))
    starts = list(p0) + [1e4 * p0[0], 1e200 * p0[1]]
    for i, bad in [(moving[:1], np.inf), (fixed[-1:], np.nan),
                   (fixed[:1], np.inf), (fixed[:1], -np.inf)]:
        p = p0[2].copy()
        p[i] = bad
        starts.append(p)
    for p in starts:
        finite = bool(np.isfinite(p).all())
        for nsteps in (0, 1, CHECK_EVERY - 1, CHECK_EVERY, CHECK_EVERY + 1,
                       300):
            last = _assert_kernel_matches_full_state(terms, p, 1e-2, nsteps)
            if not finite:
                assert last == 0
    if fixed:
        p = p0[0].copy()
        p[fixed[0]] = np.nan
        assert vertical_rk4(terms, p, 1e-2, 5)[1] == 0


def test_kernel_overflowing_rows_equal_the_full_state_oracle(models):
    terms = models["so3_generic"].structure.vertical_terms
    for p0 in ([1.0, 0.3, 0.8], [1e308, 1e308, 1e308], [0.2, -1.0, 0.5],
               [2724.9, 2 * 2724.9, 3 * 2724.9]):
        _assert_kernel_matches_full_state(terms, np.array(p0), 1e-3, 200)


def _random_terms(n):
    """Field terms (j, a, k, coef) with a <= k on n components."""
    term = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1),
        st.sampled_from([1.0, -1.0, 0.5, -2.5, 3.0]),
    ).map(lambda t: (t[0], min(t[1], t[2]), max(t[1], t[2]), t[3]))
    return st.lists(term, min_size=0, max_size=8).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    _random_terms(n),
    st.lists(st.floats(-3, 3), min_size=n, max_size=n))))
def test_kernel_equals_the_full_state_oracle_on_any_terms(case):
    # Terms in any order, a negative coefficient first or later; large
    # momenta blow up and must abort at the same sample.
    terms, p0 = case
    _assert_kernel_matches_full_state(terms, np.array(p0), 0.05, 70)


def test_model_file_structure_integrates_like_the_reference(tmp_path):
    # A metric no bundled model has, so its field compiles a step of its own.
    data = srgo.load_model("so3_generic").to_dict()
    data["metric"] = [["1", "0", "0"], ["0", "3/2", "0"], ["0", "0", "7/2"]]
    path = tmp_path / "so3_tilted.json"
    path.write_text(json.dumps(data))
    s = srgo.load_model_file(path).structure
    p0 = _seed_momentum(s, 5)
    traj = integrate_vertical(p0, 0.3, 1e-3)
    ref = _rk4_einsum_reference(s.algebra.constants.astype(float), s.dmat,
                                p0.coords, 1e-3, 300)
    assert not traj.aborted
    assert np.max(np.abs(traj.momenta - ref)) < 1e-12


def test_integrate_vertical_batch_matches_single(models):
    spec = models["so3_axisym"]
    s = spec.structure
    p0 = sample_momenta(s, 3, np.random.default_rng(2))
    trajs = integrate_vertical_batch(s, p0, 1.0, 1e-2, casimirs=spec.casimirs)
    for p, traj in zip(p0, trajs):
        single = integrate_vertical(Momentum(p, s), 1.0, 1e-2,
                                    casimirs=spec.casimirs)
        assert np.array_equal(traj.times, single.times)
        assert np.max(np.abs(traj.momenta - single.momenta)) < 1e-12
        assert set(traj.diagnostics) == set(single.diagnostics)


@pytest.mark.parametrize("name", ["heisenberg", "so3_generic"])
def test_horizontal_lift_is_fourth_order(models, name):
    s = models[name].structure
    p0 = Momentum(sample_momenta(s, 1, np.random.default_rng(3))[0], s)
    ends = [integrate_horizontal(integrate_vertical(p0, 2.0, h)).group_points[-1]
            for h in (0.1, 0.05, 0.025)]
    coarse = np.max(np.abs(ends[0] - ends[1]))
    fine = np.max(np.abs(ends[1] - ends[2]))
    assert np.log2(coarse / fine) >= 3.8


def _csv_text_per_value(traj):
    """CSV as formatted one value at a time over the concatenated columns."""
    n = traj.momenta.shape[1]
    cols = ["t"] + [f"p_{i + 1}" for i in range(n)] + ["H"]
    names = [k for k in traj.diagnostics if k != "H"]
    cols += names
    blocks = [traj.times.reshape(-1, 1), traj.momenta,
              traj.diagnostics["H"].reshape(-1, 1)]
    blocks += [traj.diagnostics[k].reshape(-1, 1) for k in names]
    if traj.group_points is not None:
        r = traj.group_points.shape[1]
        cols += [f"g_{i + 1}{j + 1}" for i in range(r) for j in range(r)]
        blocks.append(traj.group_points.reshape(traj.n_samples, r * r))
    data = np.concatenate(blocks, axis=1)
    lines = [",".join(cols)]
    for row in data:
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def test_csv_bytes_match_per_value_formatter(models, tmp_path):
    # Every model, lifted where it has a representation, past a block
    # boundary; two aborted trajectories; a column mixing 0.0 with -0.0,
    # a constant -0.0 column and a constant NaN column.
    trajs = []
    for name in srgo.list_models():
        spec = models[name]
        s = spec.structure
        p0 = Momentum(sample_momenta(s, 1, np.random.default_rng(6))[0], s)
        traj = integrate_vertical(p0, 0.6, 1e-3, casimirs=spec.casimirs)
        if s.representation is not None:
            traj = integrate_horizontal(traj)
        assert traj.n_samples > CSV_BLOCK_ROWS
        trajs.append(traj)
    s = models["cartan"].structure
    p0 = 1200 * sample_momenta(s, 1, np.random.default_rng(1))[0]
    trajs.append(integrate_vertical(Momentum(p0, s), 1.0, 1e-3))
    s = models["so3_generic"].structure
    trajs.append(integrate_vertical(Momentum(np.array([1e80, 2e80, 3e80]), s),
                                    1.0, 1e-3))
    assert trajs[-2].aborted and trajs[-2].n_samples > 10
    assert trajs[-1].aborted
    t = trajs[0]
    signed_zeros = np.where(np.arange(t.n_samples) % 3, 0.0, -0.0)
    trajs.append(Trajectory(
        t.structure, t.times, t.momenta,
        diagnostics={"H": signed_zeros, "neg0": np.full(t.n_samples, -0.0),
                     "nan": np.full(t.n_samples, np.nan)}))
    for traj in trajs:
        assert traj.to_csv_text() == _csv_text_per_value(traj)
    path = tmp_path / "traj.csv"
    oracles.to_csv(trajs[-1], path)
    assert path.read_bytes() == _csv_text_per_value(trajs[-1]).encode()
    assert b",-0,-0,nan\n" in path.read_bytes()


def _csv_rows_reference(block, lead=""):
    """The rows of ``block`` with each value printed by '%.17g', each row
    after ``lead``."""
    row = lead + ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row * block.shape[0]) % tuple(block.ravel().tolist())


def _assert_csv_rows_match(values, width=8):
    """_csv_rows against '%.17g' on ``values``, in blocks of ``width``
    columns and CSV_BLOCK_ROWS rows."""
    step = width * CSV_BLOCK_ROWS
    for start in range(0, len(values), step):
        block = values[start:start + step].reshape(-1, width)
        assert _csv_rows(block) == _csv_rows_reference(block)


def test_csv_rows_match_printf_on_a_million_values():
    # Two thirds of raw 64-bit patterns lie outside the power table and go
    # to '%.17g' itself, so they are the smaller share.
    rng = np.random.default_rng(2024)
    u = rng.uniform(-30, 30, 500_000)
    _assert_csv_rows_match(np.concatenate([
        rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(500_000) * 10.0 ** u,
        np.arange(150_000) / 1000,
        1e-3 * np.arange(150_000),  # the times of a trajectory
    ]))


def test_csv_rows_match_printf_on_edge_values():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    edges = [
        0.0, 5e-324, 1e-323, 4.9e-322, 2.2250738585072009e-308,  # subnormal
        2.2250738585072014e-308, np.inf, np.nan,
        1e16, 1e17, 9999999999999998.0, 99999999999999984.0,  # %g switches
        1e-5, 1e-4, 9.9999999999999991e-06, 9.9999999999999991e-05,
        1.5e100, 1.5e-100, 9.9999999999999997e99, 1e-99, 1e-100,  # 3 digits
        1.7976931348623157e308, 1000000000000000.25, 0.5, 2.5, 123.0,
    ]
    for p in powers:
        edges += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    values = np.array(edges + [-v for v in edges])
    _assert_csv_rows_match(np.concatenate([values, values[::-1]]), width=1)
    _assert_csv_rows_match(np.resize(values, 8 * (len(values) // 8 + 1)))


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_csv_rows_do_not_trust_log10(monkeypatch, shift):
    # The decimal exponent comes from np.log10, which numpy does not promise
    # to round correctly; one that is off by one must not change the text.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    rng = np.random.default_rng(5)
    _assert_csv_rows_match(rng.standard_normal(4096) * 10.0 ** rng.uniform(
        -20, 20, 4096))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_csv_rows_match_printf_on_any_floats(xs):
    # Two distinct values keep the column off the constant-column path.
    _assert_csv_rows_match(np.array(xs + [1.0, 2.0]), width=1)


_LEADS = ["", "arrow,", "trajectory,", "a lead of more than thirty-two bytes,"]


def _segment_block(pattern, nrow, rng):
    """A block with one column per letter of ``pattern``: ``c`` a constant
    column of random normal values, ``v`` a varied one."""
    cols = [np.full(nrow, rng.standard_normal()) if kind == "c"
            else rng.standard_normal(nrow) for kind in pattern]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("lead", _LEADS)
@pytest.mark.parametrize("pattern", [
    "ccvvv", "vvcccvv", "vvvcc",  # a constant run at the start, middle, end
    "cvcvc", "vcccccccv", "cccccc", "vvvvvv", "c", "v",
])
def test_csv_rows_lay_out_constant_runs_as_segments(pattern, lead):
    rng = np.random.default_rng(len(pattern))
    for nrow in (1, 2, 7):  # a 1-row block is all constant
        block = _segment_block(pattern, nrow, rng)
        assert _csv_rows(block, lead) == _csv_rows_reference(block, lead)


@pytest.mark.parametrize("lead", _LEADS)
def test_csv_rows_segments_of_special_values(lead):
    # Constant nan, inf, -inf, -0.0, 0.0 and the least subnormal, runs far
    # longer than 32 bytes of text, and a column holding both 0.0 and -0.0:
    # equal values but different bits, so it is varied.
    nrow = 9
    signed_zeros = np.where(np.arange(nrow) % 2, 0.0, -0.0)
    third = np.full(nrow, 1 / 3)
    cols = [np.full(nrow, v) for v in (np.nan, np.inf, -np.inf, -0.0, 0.0,
                                       5e-324, -5e-324)]
    cols += [signed_zeros] + [third] * 6 + [np.arange(nrow) / 7, third]
    block = np.stack(cols, axis=1)
    text = _csv_rows(block, lead)
    assert text == _csv_rows_reference(block, lead)
    assert text.startswith(lead + "nan,inf,-inf,-0,0,4.9406564584124654e-324,"
                           "-4.9406564584124654e-324,-0,")
    assert text.splitlines()[1].startswith(lead + "nan,inf,-inf,-0,0,"
                                           "4.9406564584124654e-324,"
                                           "-4.9406564584124654e-324,0,")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.floats()), min_size=1,
                max_size=12),
       st.integers(1, 6), st.sampled_from(_LEADS))
def test_csv_rows_match_printf_on_any_run_of_constant_columns(columns, nrow,
                                                              lead):
    # Each column is one value repeated, or that value and then 1.5.
    block = np.array([[x if constant or i == 0 else 1.5 for constant, x
                       in columns] for i in range(nrow)])
    assert _csv_rows(block, lead) == _csv_rows_reference(block, lead)
