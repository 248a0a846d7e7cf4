"""The benchmark's workloads: seeded inputs, the ops that use them, and the
check that each op's output must pass.

An op is one CLI call, ``srgo.cli.main([...])`` with ``--out`` pointing at a
file, or one library call. Inputs come from the workload seed through numpy
alone; momenta are drawn in m*-coordinates, never through
``srgo.sample_momenta``, so a change to that sampler cannot change them.
"""

import contextlib
import io
import json

import numpy as np

import srgo
import srgo.cli

FLOW_MODELS = (
    "biinvariant_compact", "cartan", "free_step2_rank2", "heisenberg",
    "rolling_sphere", "sl2_axisym", "sl2_kp", "so3_axisym", "so3_generic",
    "so3_kp",
)  # every bundled model with n <= 6
EXACT_MODELS = FLOW_MODELS + ("free_step2_rank3", "free_step2_rank4")  # n <= 16
CENSUS_MODELS = ("heisenberg", "free_step2_rank2", "so3_axisym", "cartan")
RANK6 = "free_step2_rank6"

GO_VERDICTS = {
    "affirmed": "GO_affirmed_up_to_degree",
    "refuted": "GO_refuted_with_witness",
}
ESCALATION_BAND = (1e-8, 1e-7)  # check_homogeneous's exact-arithmetic band


class Op:
    """One operation: ``run(path)`` is timed; ``output`` and ``verify`` are not.

    ``output(result, path)`` returns the bytes the op produced; ``verify``
    returns None or a reason for failure. ``trace_check(tracer, label)``
    adds a check that needs the traced run.
    """

    def __init__(self, kind, label, run, verify, output=None,
                 trace_check=None):
        self.kind = kind
        self.label = label
        self.run = run
        self.verify = verify
        self.output = output or _file_bytes
        self.trace_check = trace_check


def _file_bytes(result, path):
    with open(path, "rb") as fh:
        return fh.read()


def cli_op(kind, label, argv, verify, trace_check=None):
    def run(path):
        with contextlib.redirect_stderr(io.StringIO()):
            return srgo.cli.main(argv + ["--out", path])

    return Op(kind, label, run, verify, trace_check=trace_check)


# -- inputs ---------------------------------------------------------------

def m_dual(structure):
    """Map from m*-coordinates to covectors on g annihilating k."""
    s = structure
    adapted = s.m_basis_float
    if s.k.dim:
        adapted = np.concatenate([adapted, s.k_basis_float], axis=1)
    return np.linalg.inv(adapted).T[:, : s.m.dim]


def draw_m_coords(rng, structure, zero=()):
    """Uniform m*-coordinates in [-1, 1], redrawn until the pairing with the
    distribution has norm >= 1/2, so that every geodesic moves."""
    lift = m_dual(structure)
    while True:
        a = rng.uniform(-1.0, 1.0, structure.m.dim)
        a[list(zero)] = 0.0
        if np.linalg.norm(structure.delta_basis_float.T @ (lift @ a)) >= 0.5:
            return a


def escalation_p4(a):
    """The p4 that puts cartan's relative residual at the middle of
    ESCALATION_BAND for m*-coordinates ``a`` with p4 = p5 = 0.

    From cartan's brackets, p4 = e (small) leaves a least-squares residual
    of e * sqrt(p1^2 + p3^2) against |b| = |p3| * |(p1, p2)|, so a fixed p4
    would fall below the band whenever p1 and p3 are both small.
    """
    p1, p2, p3 = a[:3]
    target = float(np.sqrt(ESCALATION_BAND[0] * ESCALATION_BAND[1]))
    return target * (1.0 + abs(p3) * np.hypot(p1, p2)) / np.hypot(p1, p3)


def p0_text(a):
    return ",".join("%.17g" % x for x in a)


def expected_check(spec, a):
    """Verdict implied by the model's facts for m*-coordinates ``a``."""
    if spec.name == "cartan":  # homogeneous iff p4 = p5 = 0
        homogeneous = a[3] == 0.0 and a[4] == 0.0
    else:
        homogeneous = spec.known_facts.get("go") == "affirmed"
    return srgo.HOMOGENEOUS if homogeneous else srgo.NOT_HOMOGENEOUS


def expected_go(spec):
    fact = spec.known_facts["go"]
    if fact.startswith("evidence_only"):
        return "evidence_only"
    return GO_VERDICTS[fact]


# -- checks ---------------------------------------------------------------

def _json_out(blob):
    return json.loads(blob.decode())


def check_validate(rc, blob):
    if rc != 0 or _json_out(blob)["valid"] is not True:
        return f"validate: exit {rc}, not valid"
    return None


def check_go(expected, cap):
    def verify(rc, blob):
        out = _json_out(blob)
        if rc != 0 or out["verdict"] != expected or out["degree_cap"] != cap:
            return f"go: exit {rc}, verdict {out['verdict']} != {expected}"
        return None
    return verify


def check_exist(route):
    def verify(rc, blob):
        out = _json_out(blob)
        if rc != 0 or not out["success"] or not out["audit"]["homogeneous"]:
            return f"exist: exit {rc}, not constructed and audited"
        if route is not None and out["route"] != route:
            return f"exist: route {out['route']} != {route}"
        return None
    return verify


def check_check(expected, band=None):
    want_rc = 0 if expected == srgo.HOMOGENEOUS else 1

    def verify(rc, blob):
        out = _json_out(blob)
        if rc != want_rc or out["verdict"] != expected:
            return f"check: exit {rc}, verdict {out['verdict']} != {expected}"
        if band and not band[0] <= out["residual"] < band[1]:
            return f"check: residual {out['residual']:.3e} outside {band}"
        return None
    return verify


def check_integrate(nsamples):
    def verify(rc, blob):
        if rc != 0:
            return f"integrate: exit {rc} (aborted or bad input)"
        lines = blob.decode().splitlines()
        if len(lines) != nsamples + 1:
            return f"integrate: {len(lines) - 1} samples != {nsamples}"
        col = lines[0].split(",").index("H")
        h = np.array([float(row.split(",")[col]) for row in lines[1:]])
        drift = float(np.max(np.abs(h - h[0])))
        if not drift < 1e-8:
            return f"integrate: H drift {drift:.3e}"
        return None
    return verify


def check_portrait(samples, trajectories):
    def verify(rc, blob):
        rows = blob.decode().splitlines()[1:]
        arrows = sum(1 for r in rows if r.startswith("arrow,"))
        ids = {r.split(",")[1] for r in rows if r.startswith("trajectory,")}
        if rc != 0 or arrows != samples or len(ids) != trajectories:
            return f"portrait: exit {rc}, {arrows} arrows, {len(ids)} trajectories"
        return None
    return verify


def escalation_traced(tracer, label):
    """The escalation must run exact linear algebra inside check_homogeneous."""
    if not tracer.has_child(label, "homogeneity.check_homogeneous",
                            "exactla."):
        return "check: no exactla call under check_homogeneous"
    return None


# -- library ops ----------------------------------------------------------

def census_op(spec, p, expect, label, T=10.0):
    """test_09's pattern on one momentum: degree-4 invariants, a certificate,
    a trajectory (10k steps by default) and the tangency check along all
    of it."""
    s = spec.structure

    def run(path):
        invariants = srgo.invariant_polynomials(s, 4).polynomials
        m = srgo.Momentum(p, s)
        cert = srgo.check_homogeneous(m)
        traj = srgo.integrate_vertical(m, T, 1e-3)
        return cert, srgo.orbit_tangency_check(traj, invariants), traj.aborted

    def output(result, path):
        cert, report, aborted = result
        return json.dumps({
            "verdict": cert.verdict, "residual": repr(cert.residual),
            "aborted": aborted,
            "gaps": {k: repr(v) for k, v in report.gaps.items()},
        }, sort_keys=True).encode()

    def verify(result, blob):
        cert, report, aborted = result
        if aborted or cert.verdict != expect:
            return f"census: verdict {cert.verdict} != {expect}"
        if expect == srgo.HOMOGENEOUS and not report.passed:
            return f"census: tangency gap {report.max_gap:.3e} on an orbit"
        if expect == srgo.NOT_HOMOGENEOUS and not report.max_gap > 0.1:
            return f"census: tangency gap {report.max_gap:.3e} <= 0.1"
        return None

    return Op("census", label, run, verify, output)


SO3_INERTIA = np.array([1.0, 2.0, 3.0])


def fixedpoints_op(spec, samples, seed, label):
    s = spec.structure

    def run(path):
        return srgo.find_fixed_points(s, samples, seed=seed)

    def output(result, path):
        return json.dumps([[repr(float(x)) for x in pt.coords]
                           for pt in result]).encode()

    def verify(result, blob):
        if len(result) != 6:
            return f"fixedpoints: {len(result)} points != 6"
        for pt in result:
            axis = int(np.argmax(np.abs(pt.coords)))
            want = np.zeros(3)
            want[axis] = np.sign(pt.coords[axis]) * np.sqrt(SO3_INERTIA[axis])
            if np.max(np.abs(pt.coords - want)) >= 1e-8:
                return "fixedpoints: point off the dual axes"
        return None

    return Op("fixedpoints", label, run, verify, output)


# -- workloads ------------------------------------------------------------

def _seed(rng):
    return int(rng.integers(0, 2 ** 31))


def integrate_op(spec, a, T, label):
    argv = ["integrate", "--model", spec.name, "--p0=" + p0_text(a),
            "--T", repr(T), "--step", "0.001"]
    if spec.structure.representation is not None:
        argv.append("--horizontal")
    return cli_op("integrate", label, argv,
                  check_integrate(int(round(T / 1e-3)) + 1))


def flow_small(rng, specs):
    ops = []
    for name in FLOW_MODELS:
        spec = specs[name]
        a = draw_m_coords(rng, spec.structure)
        ops.append(integrate_op(spec, a, 10.0, f"integrate:{name}"))
    portrait = ["integrate", "--model", "so3_axisym", "--phase-portrait",
                "--samples", "100", "--T", "5", "--step", "0.001",
                "--seed", str(_seed(rng))]
    ops.append(cli_op("integrate", "portrait:so3_axisym", portrait,
                      check_portrait(100, 8)))
    for name in CENSUS_MODELS:
        spec = specs[name]
        zero = (3, 4) if name == "cartan" else ()
        p = m_dual(spec.structure) @ draw_m_coords(rng, spec.structure, zero)
        ops.append(census_op(spec, p, srgo.HOMOGENEOUS, f"census:{name}"))
    cartan = specs["cartan"]
    a = draw_m_coords(rng, cartan.structure)
    a[3] = 1.0  # pairing with the second layer: not homogeneous
    ops.append(census_op(cartan, m_dual(cartan.structure) @ a,
                         srgo.NOT_HOMOGENEOUS, "census:cartan-counter"))
    ops.append(fixedpoints_op(specs["so3_generic"], 200, _seed(rng),
                              "fixedpoints:so3_generic"))
    return ops


def _exact_ops(spec, rng, checks):
    name = spec.name
    ops = [
        cli_op("validate", f"validate:{name}", ["validate", "--model", name],
               check_validate),
        cli_op("go", f"go:{name}",
               ["go", "--model", name, "--seed", str(_seed(rng))],
               check_go(expected_go(spec), 4)),
        cli_op("exist", f"exist:{name}", ["exist", "--model", name],
               check_exist(spec.known_facts.get("existence_route"))),
    ]
    for i in range(checks):
        zero = (3, 4) if name == "cartan" else ()
        a = draw_m_coords(rng, spec.structure, zero)
        ops.append(cli_op("check", f"check:{name}#{i}",
                          ["check", "--model", name, "--p0=" + p0_text(a)],
                          check_check(expected_check(spec, a))))
    return ops


def exact_small(rng, specs):
    ops = []
    for name in EXACT_MODELS:
        ops.extend(_exact_ops(specs[name], rng, 1))
    for name in ("cartan", "rolling_sphere"):  # witness fails: enumeration
        ops.append(cli_op("go", f"go6:{name}",
                          ["go", "--model", name, "--degree-cap", "6",
                           "--seed", str(_seed(rng))],
                          check_go(expected_go(specs[name]), 6)))
    cartan = specs["cartan"]
    a = draw_m_coords(rng, cartan.structure, zero=(3, 4))
    a[3] = escalation_p4(a)
    ops.append(cli_op("check", "check-escalate:cartan",
                      ["check", "--model", "cartan", "--p0=" + p0_text(a)],
                      check_check(srgo.NOT_HOMOGENEOUS, ESCALATION_BAND),
                      trace_check=escalation_traced))
    return ops


def rank6(rng, specs):
    spec = specs[RANK6]
    ops = _exact_ops(spec, rng, 8)
    a = draw_m_coords(rng, spec.structure)
    ops.append(integrate_op(spec, a, 1.0, f"integrate:{RANK6}"))
    return ops


WORKLOADS = {
    "flow_small": (FLOW_MODELS, flow_small),
    "exact_small": (EXACT_MODELS, exact_small),
    "rank6": ((RANK6,), rank6),
}


def load_specs(workload):
    return {name: srgo.load_model(name) for name in WORKLOADS[workload][0]}


def build(workload, seed, specs):
    """The op list of one pass; the same seed gives the same ops."""
    return WORKLOADS[workload][1](np.random.default_rng(seed), specs)


def warm_up(workdir, kinds):
    """One small op of each of ``kinds``, so first-call costs land in set-up."""
    heis = srgo.load_model("heisenberg")
    ops = [
        cli_op("validate", "warm", ["validate", "--model", "heisenberg"],
               check_validate),
        cli_op("integrate", "warm",
               ["integrate", "--model", "heisenberg", "--p0=1,0,1",
                "--T", "0.01", "--step", "0.001", "--horizontal"],
               check_integrate(11)),
        cli_op("check", "warm",
               ["check", "--model", "heisenberg", "--p0=1,0,1"],
               check_check(srgo.HOMOGENEOUS)),
        cli_op("go", "warm",
               ["go", "--model", "heisenberg", "--samples", "10"],
               check_go(expected_go(heis), 4)),
        cli_op("exist", "warm", ["exist", "--model", "heisenberg"],
               check_exist("solvable")),
        census_op(heis, m_dual(heis.structure) @ np.array([1.0, 0.0, 1.0]),
                  srgo.HOMOGENEOUS, "warm", T=0.01),
        fixedpoints_op(srgo.load_model("so3_generic"), 20, 1, "warm"),
    ]
    for i, op in enumerate(op for op in ops if op.kind in kinds):
        path = f"{workdir}/warm-{i}.out"
        result = op.run(path)
        error = op.verify(result, op.output(result, path))
        if error:
            raise RuntimeError(f"warm-up failed: {error}")
