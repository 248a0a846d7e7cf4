import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from srgo.integrate import CSV_BLOCK_ROWS, Trajectory, _csv_rows
from srgo.kernels import CHECK_EVERY, field_jacobian, field_rows, vertical_rk4


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
    for name in ["so3_axisym", "sl2_axisym", "so3_kp", "sl2_kp"]:
        spec = models[name]
        s = spec.structure
        p0 = Momentum(np.array([1.0, 0.4, 0.8, 0.0]), s)
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


def test_csv_format(heisenberg, tmp_path):
    s = heisenberg.structure
    p0 = Momentum(np.array([1.0, 0, 1, 0]), s)
    traj = integrate_vertical(p0, 0.01, 1e-3, casimirs=heisenberg.casimirs)
    path = tmp_path / "out.csv"
    traj.to_csv(path)
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
    expected = np.array([s.algebra.coad_apply(s.dH(row), row) for row in p])
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
def test_kernel_batch_rows_match_single_runs_and_reference(models, name):
    s = models[name].structure
    c, d, terms = s.algebra.c_float, s.dmat, s.vertical_terms
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


def test_model_file_structure_integrates_like_the_reference(tmp_path):
    # A metric no bundled model has, so its field compiles a step of its own.
    data = srgo.load_model("so3_generic").to_dict()
    data["metric"] = [["1", "0", "0"], ["0", "3/2", "0"], ["0", "0", "7/2"]]
    path = tmp_path / "so3_tilted.json"
    path.write_text(json.dumps(data))
    s = srgo.load_model_file(path).structure
    p0 = _seed_momentum(s, 5)
    traj = integrate_vertical(p0, 0.3, 1e-3)
    ref = _rk4_einsum_reference(s.algebra.c_float, s.dmat, p0.coords, 1e-3,
                                300)
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
    trajs[-1].to_csv(path)
    assert path.read_bytes() == _csv_text_per_value(trajs[-1]).encode()
    assert b",-0,-0,nan\n" in path.read_bytes()


def _csv_rows_reference(block):
    """The rows of ``block`` with each value printed by '%.17g'."""
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
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
