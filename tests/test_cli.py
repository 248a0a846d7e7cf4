import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

import srgo
import srgo.cli as cli
from srgo.homogeneity import INCONCLUSIVE, HomogeneityCertificate


def run(args):
    return cli.main(args)


def test_validate_ok(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(["validate", "--model", "heisenberg", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["valid"] is True
    assert payload["model"] == "heisenberg"
    assert "valid" in capsys.readouterr().err


def test_validate_unknown_model(capsys):
    assert run(["validate", "--model", "missing"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_validate_reports_jacobi_on_a_bundled_model(tmp_path, monkeypatch):
    # Bundled models skip the algebra checks at build time, so validate
    # must still run them: [e2, e3] = e1 and [e3, e1] = e1 break Jacobi.
    import srgo.models as models
    from srgo.algebra import HomogeneousSRStructure, LieAlgebra, Subspace

    def build():
        g = LieAlgebra.from_brackets(
            3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {0: 1}})
        s = HomogeneousSRStructure(
            g,
            Subspace.from_vectors(3, []),
            Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]]),
            [[1, 0], [0, 1]],
        )
        return models.ModelSpec("broken_jacobi", s)

    monkeypatch.setitem(models._REGISTRY, "broken_jacobi", build)
    monkeypatch.setattr(models, "_LOADED", {})
    out = tmp_path / "v.json"
    assert run(["validate", "--model", "broken_jacobi", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["valid"] is False
    assert "Jacobi identity violated at (1,2,3;3)" in payload["violations"]


def test_validate_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # [e1,e2] = e3 together with [e1,e3] = e1 violates Jacobi.
    bad.write_text(json.dumps({
        "dim": 3,
        "constants": [[1, 2, 3, 1, 1], [1, 3, 1, 1, 1]],
        "k_basis": [],
        "m_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "delta_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }))
    assert run(["validate", "--model", str(bad)]) == 2


def test_integrate_csv(tmp_path):
    out = tmp_path / "h.csv"
    code = run([
        "integrate", "--model", "heisenberg", "--p0", "1,0,1",
        "--T", "1", "--step", "0.001", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,p_1,p_2,p_3,p_4,H,C1,C2"
    assert len(lines) == 1002
    last = [float(x) for x in lines[-1].split(",")]
    assert last[1] == pytest.approx(np.cos(1.0), abs=1e-8)
    assert last[2] == pytest.approx(np.sin(1.0), abs=1e-8)


def test_integrate_heisenberg_period(tmp_path):
    out = tmp_path / "loop.csv"
    assert run([
        "integrate", "--model", "heisenberg", "--p0", "1,0,1",
        "--T", str(2 * np.pi), "--step", "0.001", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    row = [float(x) for x in lines[-1].split(",")]
    t_last, last = row[0], np.array(row[1:5])
    exact = np.array([np.cos(t_last), np.sin(t_last), 1.0, 0.0])
    assert np.max(np.abs(last - exact)) < 1e-8


def test_integrate_bad_parameters():
    assert run(["integrate", "--model", "heisenberg", "--p0", "1,0,1",
                "--T", "0", "--step", "0.001"]) == 2
    assert run(["integrate", "--model", "heisenberg", "--p0", "1,0",
                "--T", "1", "--step", "0.001"]) == 2


def test_integrate_blowup(tmp_path):
    out = tmp_path / "b.csv"
    code = run([
        "integrate", "--model", "so3_generic",
        "--p0", "1e80,2e80,3e80", "--T", "1", "--step", "0.001",
        "--out", str(out),
    ])
    assert code == 3


def test_integrate_overflowing_diagnostics_end_the_trajectory(tmp_path,
                                                              capsys):
    # At t = 0.017 the momentum is still finite but C1 (and H) overflow;
    # the CSV ends one sample earlier and every drift is finite. Pytest
    # makes a RuntimeWarning an error, so none may be printed.
    s = srgo.load_model("cartan").structure
    p0 = 1050 * srgo.sample_momenta(s, 1, np.random.default_rng(1))[0]
    out = tmp_path / "o.csv"
    code = run(["integrate", "--model", "cartan",
                "--p0=" + ",".join("%.17g" % x for x in p0), "--T", "1",
                "--out", str(out)])
    assert code == 3
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in out.read_text().splitlines()[1:]])
    assert len(rows) == 17 and rows[-1, 0] == 0.016
    assert np.isfinite(rows).all()
    err = capsys.readouterr().err
    assert "ABORTED" in err and "inf" not in err and "nan" not in err
    drift = float(err.split("H drift ")[1].split(",")[0])
    assert np.isfinite(drift)


def test_integrate_horizontal_ends_where_the_lift_overflows(tmp_path,
                                                          capsys):
    # The lift overflows at t = 0.018 and the momenta at t = 0.34: the CSV
    # ends at the last finite G, with no RuntimeWarning, and exits 3.
    s = srgo.load_model("so3_kp").structure
    p0 = 1e4 * srgo.sample_momenta(s, 1, np.random.default_rng(1))[0]
    out = tmp_path / "g.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["integrate", "--model", "so3_kp", "--horizontal",
                    "--p0=" + ",".join("%.17g" % x for x in p0),
                    "--T", "1", "--step", "0.001", "--out", str(out)])
    assert code == 3
    header, *lines = out.read_text().splitlines()
    assert header.split(",")[-25:] == [f"g_{i}{j}" for i in range(1, 6)
                                       for j in range(1, 6)]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines])
    assert len(rows) == 18 and rows[-1, 0] == 0.017
    assert np.isfinite(rows).all()
    err = capsys.readouterr().err
    assert "t reached 0.017" in err and "ABORTED" in err
    # Both stop, the lift first: the line names the lift and the time at
    # which the vertical flow itself blows up.
    assert "horizontal lift overflowed" in err
    assert "vertical flow blows up at t 0.34" in err


@pytest.mark.parametrize("step, code", [("0.001", 3), ("0.0001", 0)])
def test_integrate_says_when_only_the_lift_stopped(tmp_path, capsys, step,
                                                   code):
    # The momenta are constant (H drift 0) but at step 1e-3 the lift's RK4
    # step is unstable, h |rho(dH(p))| ~ 7.07 > 2 sqrt 2, and G overflows
    # at t = 0.155; at step 1e-4 the lift reaches T. Only stderr says
    # which one stopped: the CSV is the vertical flow's, up to the cut.
    s = srgo.load_model("biinvariant_compact").structure
    p0 = 1e4 * srgo.sample_momenta(s, 1, np.random.default_rng(1))[0]
    args = ["integrate", "--model", "biinvariant_compact",
            "--p0=" + ",".join("%.17g" % x for x in p0), "--T", "1",
            "--step", step]
    out, plain = tmp_path / "g.csv", tmp_path / "p.csv"
    assert run(args + ["--horizontal", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "H drift 0.000e+00" in err
    assert run(args + ["--out", str(plain)]) == 0
    lifted, vertical = (f.read_text().splitlines() for f in (out, plain))
    width = len(vertical[0].split(","))
    assert [line.split(",")[:width] for line in lifted] == \
        [line.split(",") for line in vertical[:len(lifted)]]
    if code:
        assert "t reached 0.155" in err
        assert ("ABORTED (the horizontal lift overflowed; a smaller --step "
                "may carry it)") in err
    else:
        assert "t reached 1," in err and "ABORTED" not in err
        assert len(lifted) == len(vertical)


def test_integrate_start_with_overflowing_h_exits_2(capsys):
    # At m*-coordinates (1e160, 0, 0, 0, 0), H is beyond the float range.
    assert run(["integrate", "--model", "cartan", "--p0=1e160,0,0,0,0",
                "--T", "1"]) == 2
    assert "beyond the float range" in capsys.readouterr().err


def test_integrate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["integrate", "--model", "cartan", "--p0", "1,0.3,0.2,0.1,0.05",
            "--T", "2", "--step", "0.001"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_integrate_horizontal_columns(tmp_path):
    out = tmp_path / "g.csv"
    assert run([
        "integrate", "--model", "heisenberg", "--p0", "1,0,1",
        "--T", "0.1", "--step", "0.01", "--out", str(out), "--horizontal",
    ]) == 0
    header = out.read_text().splitlines()[0]
    assert "g_11" in header and "g_44" in header


@pytest.mark.parametrize("name", [
    name for name in srgo.list_models()
    if srgo.load_model(name).structure.representation is not None])
def test_integrate_horizontal_adds_only_the_g_columns(tmp_path, name):
    # Past a CSV block boundary: the t, p, H and Casimir bytes of a lifted
    # run are those of the same run without the lift.
    s = srgo.load_model(name).structure
    p0 = srgo.sample_momenta(s, 1, np.random.default_rng(4))[0]
    args = ["integrate", "--model", name,
            "--p0=" + ",".join(map(repr, p0.tolist())),
            "--T", "0.6", "--step", "0.001"]
    plain, lifted = tmp_path / "plain.csv", tmp_path / "lifted.csv"
    assert run(args + ["--out", str(plain)]) == 0
    assert run(args + ["--out", str(lifted), "--horizontal"]) == 0
    plain_rows = plain.read_text().splitlines()
    lifted_rows = lifted.read_text().splitlines()
    assert len(plain_rows) == len(lifted_rows) == 602
    r = s.representation[0].shape[0]
    for a, b in zip(plain_rows, lifted_rows):
        head, *g = b.rsplit(",", r * r)
        assert head == a and len(g) == r * r


def test_phase_portrait(tmp_path):
    out = tmp_path / "pp.csv"
    assert run([
        "integrate", "--model", "so3_axisym", "--phase-portrait",
        "--samples", "10", "--T", "2", "--step", "0.01",
        "--seed", "1", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"arrow", "trajectory"}


def test_phase_portrait_bytes_match_per_row_templates(tmp_path):
    # 600 arrows span two blocks of rows; the per-row '%' templates below
    # are how the portrait's rows were printed one at a time.
    import srgo
    from srgo.kernels import field_rows

    out = tmp_path / "pp.csv"
    assert run([
        "integrate", "--model", "rolling_sphere", "--phase-portrait",
        "--samples", "600", "--T", "5", "--step", "0.01", "--seed", "5",
        "--out", str(out),
    ]) == 0
    s = srgo.load_model("rolling_sphere").structure
    n = s.dim
    points = srgo.sample_momenta(s, 600, np.random.default_rng(5))
    lines = ["kind,id,t," + ",".join(f"p_{i + 1}" for i in range(n)) + ","
             + ",".join(f"v_{i + 1}" for i in range(n))]
    values = ",".join(["%.17g"] * n)
    arrow = "arrow,%d,0," + values + "," + values
    for i, (p, v) in enumerate(zip(points,
                                   field_rows(s.vertical_terms, points))):
        lines.append(arrow % (i, *p, *v))
    trajectory = "trajectory,%d,%.17g," + values + "," + ",".join(["0"] * n)
    trajs = srgo.integrate_vertical_batch(s, points[:8], 5.0, 0.01)
    for i, traj in enumerate(trajs):
        stride = max(1, traj.n_samples // 200)
        for t, row in zip(traj.times[::stride], traj.momenta[::stride]):
            lines.append(trajectory % (i, t, *row))
    assert out.read_text() == "\n".join(lines) + "\n"


def test_phase_portrait_circles(tmp_path):
    # Trajectories close onto circles about the p3-axis.
    out = tmp_path / "pp.csv"
    assert run([
        "integrate", "--model", "so3_axisym", "--phase-portrait",
        "--samples", "8", "--T", "10", "--step", "0.001", "--out", str(out),
    ]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    by_id = {}
    for r in rows:
        if r[0] == "trajectory":
            by_id.setdefault(r[1], []).append([float(x) for x in r[3:7]])
    assert by_id
    for pts in by_id.values():
        pts = np.array(pts)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(radii - radii[0])) < 1e-6
        assert np.max(np.abs(pts[:, 2] - pts[0, 2])) < 1e-6


def test_check_exit_codes(tmp_path):
    out = tmp_path / "c.json"
    assert run(["check", "--model", "cartan", "--p0", "1,0.3,0,0,0",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "homogeneous"
    assert run(["check", "--model", "cartan", "--p0", "1,0,0,1,0"]) == 1
    assert run(["check", "--model", "cartan", "--p0", "1,0"]) == 2
    assert run(["check", "--model", "cartan", "--p0", "1,0,0,1,0,5"]) == 2


def test_check_inconclusive_exit(monkeypatch):
    cert = HomogeneityCertificate(INCONCLUSIVE, None, 1e-8, 1e-8)
    monkeypatch.setattr(cli, "check_homogeneous", lambda p, threshold: cert)
    assert run(["check", "--model", "heisenberg", "--p0", "1,0,1"]) == 4


def test_go_command(tmp_path):
    out = tmp_path / "go.json"
    assert run(["go", "--model", "free_step2_rank3", "--samples", "100",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "GO_affirmed_up_to_degree"
    assert payload["degree_cap"] == 4

    assert run(["go", "--model", "cartan", "--samples", "100",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "GO_refuted_with_witness"


def test_go_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["go", "--model", "cartan", "--samples", "50", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exist_command(tmp_path):
    out = tmp_path / "e.json"
    assert run(["exist", "--model", "so3_kp", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["success"] is True
    assert payload["route"] == "eigenvector"
    assert payload["audit"]["homogeneous"] is True


def test_exist_on_a_degenerate_killing_form_fails_cleanly(tmp_path, capsys,
                                                         so3_plus_center):
    model_file = tmp_path / "model.json"
    so3_plus_center.save(model_file)
    assert run(["exist", "--model", str(model_file)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["success"] is False
    assert captured.err == "so3_plus_center: FAILED\n"


def test_model_file_through_cli(tmp_path):
    import srgo

    spec = srgo.load_model("so3_axisym")
    model_file = tmp_path / "model.json"
    spec.save(model_file)
    out = tmp_path / "v.json"
    assert run(["validate", "--model", str(model_file), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["model"] == "so3_axisym"


def test_model_file_unknown_key_exits_2(tmp_path, capsys):
    import srgo

    data = srgo.load_model("heisenberg").to_dict()
    data["isotropy"] = "exact"
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(data))
    assert run(["validate", "--model", str(model_file)]) == 2
    assert "unknown model-file keys: isotropy" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "heisenberg", "--seed", "1"],
    ["check", "--model", "heisenberg", "--p0", "1,0,1", "--samples", "5"],
    ["exist", "--model", "heisenberg", "--tol", "1e-6"],
    ["go", "--model", "heisenberg", "--jobs", "2"],
])
def test_ignored_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("name, m_coords", [
    ("cartan", "1,0.3,0,0,0"),
    ("rolling_sphere", "0.3,-0.2,0.5,1,0.4"),
])
def test_check_lifts_m_coords_into_annihilator(tmp_path, name, m_coords):
    import srgo

    s = srgo.load_model(name).structure
    out = tmp_path / "c.json"
    assert run(["check", "--model", name, "--p0", m_coords,
                "--out", str(out)]) in (0, 1)
    p0 = np.array(json.loads(out.read_text())["p0"])
    a = np.array([float(x) for x in m_coords.split(",")])
    assert p0.shape == (s.dim,)
    assert np.allclose(s.m_basis_float.T @ p0, a, atol=1e-15)
    assert np.allclose(s.k_basis_float.T @ p0, 0.0, atol=1e-15)


def test_requires_p0(capsys):
    with pytest.raises(SystemExit):
        run(["check", "--model", "heisenberg"])


@pytest.mark.parametrize("extra, option", [
    (["--phase-portrait", "--p0=1,0,1"], "--p0"),
    (["--phase-portrait", "--horizontal"], "--horizontal"),
    (["--p0=1,0,1", "--samples", "5"], "--samples"),
    (["--p0=1,0,1", "--seed", "0"], "--seed"),
])
def test_integrate_rejects_options_its_mode_does_not_use(capsys, extra,
                                                          option):
    with pytest.raises(SystemExit) as exc:
        run(["integrate", "--model", "heisenberg", "--T", "0.01"] + extra)
    assert exc.value.code == 2
    assert f"does not use {option}" in capsys.readouterr().err


def test_check_rejects_non_finite_p0(capsys):
    assert run(["check", "--model", "heisenberg", "--p0=nan,0,1"]) == 2
    assert "finite" in capsys.readouterr().err
    assert run(["check", "--model", "heisenberg", "--p0=1,inf,1"]) == 2


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict parsers do."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


def test_check_inconclusive_output_is_strict_json(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run(["check", "--model", "heisenberg", "--p0=1e308,1e308,1e308",
                "--out", str(out)]) == 4
    payload = _strict_json(out.read_text())
    assert payload["verdict"] == "inconclusive"
    assert payload["residual"] is None
    assert "inconclusive (residual nan)" in capsys.readouterr().err


def test_check_overflowing_p0_is_inconclusive(tmp_path):
    out = tmp_path / "c.json"
    assert run(["check", "--model", "heisenberg", "--p0=1e308,1e308,1e308",
                "--out", str(out)]) == 4
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "inconclusive"
    assert payload["witness"] is None


@pytest.mark.parametrize("model, p0, tol", [
    ("heisenberg", "1,0,1", "nan"),  # would call it homogeneous, JSON NaN
    ("cartan", "1,0,1,1,0", "inf"),  # residual 0.507 would pass
    ("heisenberg", "1,0,1", "0"),  # residual 0 would fail
    ("heisenberg", "1,0,1", "-1"),
])
def test_check_rejects_threshold_not_finite_positive(tmp_path, capsys,
                                                     model, p0, tol):
    out = tmp_path / "c.json"
    assert run(["check", "--model", model, f"--p0={p0}", "--tol", tol,
                "--out", str(out)]) == 2
    assert "threshold must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("T, step", [("inf", "0.1"), ("1e300", "1e-300")])
def test_integrate_rejects_non_finite_step_count(tmp_path, capsys, T, step):
    out = tmp_path / "t.csv"
    assert run(["integrate", "--model", "heisenberg", "--p0=1,0,1",
                "--T", T, "--step", step, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert run(["integrate", "--model", "heisenberg", "--phase-portrait",
                "--samples", "4", "--T", T, "--step", step]) == 2


def test_integrate_rejects_step_count_too_large_to_store(tmp_path, capsys):
    # 1e13 samples of 4 floats (291 TiB) exceed the address space, so the
    # allocation fails at once, also for the portrait's first trajectory.
    out = tmp_path / "t.csv"
    assert run(["integrate", "--model", "heisenberg", "--p0=1,0,1",
                "--T", "1e10", "--step", "1e-3", "--out", str(out)]) == 2
    assert "10000000000000 steps" in capsys.readouterr().err
    assert not out.exists()
    assert run(["integrate", "--model", "heisenberg", "--phase-portrait",
                "--samples", "4", "--T", "1e10", "--step", "1e-3",
                "--out", str(out)]) == 2
    assert "10000000000000 steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["go", "--model", "cartan"],
    ["integrate", "--model", "heisenberg", "--phase-portrait"],
], ids=["go", "phase-portrait"])
def test_samples_too_many_to_draw_exit_2(monkeypatch, capsys, argv):
    # Each seeded generator's draw of more than 10^6 rows raises
    # MemoryError, as numpy's does when it cannot allocate them, so no
    # huge array is ever attempted. It was a traceback with exit 1.
    real = np.random.default_rng

    class Rng:
        def __init__(self, seed):
            self._rng = real(seed)

        def standard_normal(self, size):
            if size[0] > 10 ** 6:
                raise MemoryError
            return self._rng.standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", Rng)
    assert run(argv + ["--samples", "1000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 1000000000000 samples need more memory "
                            "than can be allocated\n")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_phase_portrait_rejects_non_positive_samples(tmp_path, capsys,
                                                     samples):
    out = tmp_path / "pp.csv"
    assert run(["integrate", "--model", "heisenberg", "--phase-portrait",
                "--samples", samples, "--out", str(out)]) == 2
    assert "samples must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["validate", "--model", "heisenberg"],
    ["integrate", "--model", "heisenberg", "--p0=1,0,1", "--T", "0.01",
     "--step", "0.001", "--horizontal"],
    ["check", "--model", "heisenberg", "--p0=1,0,1"],
    ["go", "--model", "heisenberg", "--samples", "20"],
    ["exist", "--model", "heisenberg"],
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "no_such_dir" / "x.out"
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "No such file or directory" in captured.err
    assert captured.err.count("\n") == 1  # no summary line after the error
    assert not out.parent.exists()


def _scaled_heisenberg(tmp_path, power):
    """heisenberg as a model file, its constants scaled by 10^power and its
    metric by 10^-power."""
    import srgo

    data = srgo.load_model("heisenberg").to_dict()
    data["constants"] = [[i, j, k, num * 10 ** power, den]
                         for i, j, k, num, den in data["constants"]]
    data["metric"] = [[f"{x}/1{'0' * power}" for x in row]
                      for row in data["metric"]]
    del data["representation"], data["casimirs"]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    return str(path)


_EVERY_SUBCOMMAND = pytest.mark.parametrize("argv", [
    ["validate"],
    ["integrate", "--p0=1,0,1", "--T", "0.01"],
    ["check", "--p0=1,0,1"],
    ["go", "--samples", "20"],
    ["exist"],
], ids=lambda argv: argv[0])


@_EVERY_SUBCOMMAND
def test_field_overflowing_a_float_exits_2(tmp_path, capsys, argv):
    # Scaled by 10^200: every entry is a float, the field's coefficients
    # (about 10^400) are not.
    assert run(argv + ["--model", _scaled_heisenberg(tmp_path, 200)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the vertical field has non-finite "
                            "coefficients\n")


@_EVERY_SUBCOMMAND
def test_constants_overflowing_a_float_exit_2(tmp_path, capsys, argv):
    # Scaled by 10^400: the structure constants themselves are beyond the
    # float range.
    assert run(argv + ["--model", _scaled_heisenberg(tmp_path, 400)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the bracket has non-finite "
                            "coefficients\n")


@pytest.mark.parametrize("name", ["cartan", "free_step2_rank3"])
def test_integrate_horizontal_needs_a_representation(tmp_path, capsys, name):
    # No representation, no group points: the option cannot be honoured,
    # and a CSV without g_ij columns would not say so.
    s = srgo.load_model(name).structure
    assert s.representation is None
    out = tmp_path / "h.csv"
    p0 = ",".join(["1"] + ["0"] * (s.dim - 1))
    assert run(["integrate", "--model", name, "--p0=" + p0, "--T", "0.01",
                "--horizontal", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --horizontal needs a model with a "
                            f"representation, and {name} has none\n")
    assert not out.exists()


def _heisenberg_file(tmp_path, edit):
    """heisenberg as a model file, ``edit`` applied to its dict first."""
    import srgo

    data = srgo.load_model("heisenberg").to_dict()
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


@_EVERY_SUBCOMMAND
def test_m_forms_overflowing_a_float_exit_2(tmp_path, capsys, argv):
    # The m basis scaled by 10^-400 leaves the vertical field as it is, but
    # m_dual, and with it the motion of the m*-coordinates, gets entries of
    # about 10^400.
    def shrink(data):
        data["m_basis"] = [[x if x == "0" else f"{x}/1{'0' * 400}"
                            for x in row] for row in data["m_basis"]]

    assert run(argv + ["--model", _heisenberg_file(tmp_path, shrink)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: m_dual has entries beyond the float "
                            "range\n")


@_EVERY_SUBCOMMAND
def test_malformed_model_file_exits_2(tmp_path, capsys, argv):
    # A Casimir expression that does not parse raised SyntaxError.
    path = _heisenberg_file(
        tmp_path, lambda data: data.update(casimirs={"C": "p1 +"}))
    assert run(argv + ["--model", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed polynomial 'p1 +': ")


@_EVERY_SUBCOMMAND
@pytest.mark.parametrize("edit", [
    lambda data: data.update(metric=[[1, 0], [0, 2]]),
    lambda data: data.update(delta_basis=[[1, 0, 0, 0], [0, 1, 1, 0]]),
], ids=["metric", "delta"])
def test_metric_not_invariant_under_k_exits_2(tmp_path, capsys, argv, edit):
    # The rotation J moves the metric diag(1, 2), and moves span(e1,
    # e2 + e3) off itself: neither defines a G-invariant structure on G/K.
    # Both printed valid, and go gave a definite verdict.
    assert run(argv + ["--model", _heisenberg_file(tmp_path, edit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid structure: the metric on delta "
                            "is not invariant under k\n")


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["integrate", "--p0=1,0,1", "--T", "0.01", "--horizontal"],
], ids=lambda argv: argv[0])
def test_nan_representation_exits_2(tmp_path, capsys, argv):
    # It validated, and the lift reported an overflow with exit 3.
    def poison(data):
        data["representation"][0][0][0] = float("nan")

    assert run(argv + ["--model", _heisenberg_file(tmp_path, poison)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid structure: representation matrices must be finite, "
        "square and of one shape\n")


@pytest.mark.parametrize("scale", ["1/10000000", "10000000"])
def test_check_does_not_depend_on_the_scale_of_the_m_basis(tmp_path, capsys,
                                                            scale):
    # The same momentum, with its m*-coordinates scaled as the m basis is.
    # The residual 0.0196 read about 2e-9 on the small basis, which printed
    # homogeneous.
    data = srgo.load_model("cartan").to_dict()
    data["m_basis"] = [[scale if x == "1" else x for x in row]
                       for row in data["m_basis"]]
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(data))
    s = float(Fraction(scale))
    p0 = ",".join(repr(s * x) for x in (1.0, 0.3, 0.0, 0.02, 0.0))
    assert run(["check", "--model", "cartan", "--p0", "1,0.3,0,0.02,0"]) == 1
    want = json.loads(capsys.readouterr().out)
    assert run(["check", "--model", str(model_file), "--p0", p0]) == 1
    got = json.loads(capsys.readouterr().out)
    assert want["verdict"] == got["verdict"] == "not_homogeneous"
    assert got["p0"] == pytest.approx(want["p0"], rel=1e-15)
    assert got["residual"] == pytest.approx(want["residual"], rel=1e-12)
