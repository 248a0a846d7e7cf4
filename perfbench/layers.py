"""Per-layer metrics of a traced pass, one group per srgo module.

Times are ms per op (the pass's summed time divided by its op count)
unless the name says otherwise; the names, units and directions are those
of ``per_layer`` in BENCHMARK.json. ``ops.<kind>_p50_ms`` is an op kind's
median latency, measured on the untraced passes of a traced run.
"""

import statistics

from srgo.homogeneity import INCONCLUSIVE


def _nsteps(args, kwargs):
    return int(args[4] if len(args) > 4 else kwargs["nsteps"])


OBSERVERS = {
    "kernels.vertical_rk4": lambda a, kw, r, nested: {
        "rk4_steps": _nsteps(a, kw),
        "rk4_aborted": int(r[1] < _nsteps(a, kw)),
    },
    "integrate.integrate_horizontal": lambda a, kw, r, nested: {
        "hlift_steps": r.n_samples - 1,
    },
    "homogeneity.check_homogeneous": lambda a, kw, r, nested: {
        "inconclusive": int(r.verdict == INCONCLUSIVE),
    },
    # Called only when the exact test returned; a raise means inconclusive.
    "homogeneity._exact_feasible": lambda a, kw, r, nested: {
        "escalation_decided": 1,
    },
    "go._tangency_witness": lambda a, kw, r, nested: {
        "witness_hits": int(r is not None),
    },
    "go.invariant_polynomials": lambda a, kw, r, nested: {
        "invariants": len(r.polynomials),
    },
    "existence.construct_homogeneous_geodesic": lambda a, kw, r, nested: (
        {} if nested else {f"route_{r.route}": 1,
                           "construct_failed": int(not r.success)}
    ),
}

# Op kinds whose median latency is reported as ``ops.<kind>_p50_ms``.
KINDS = ("validate", "integrate", "check", "go", "exist", "census",
         "fixedpoints")


def _ratio(num, den):
    return num / den if den else 0.0


def compute(tracer, nops, untraced_ms, traced_ms, kinds):
    """All per-layer metrics from a traced pass of ``nops`` ops.

    ``untraced_ms`` and ``traced_ms`` are op times (ms) of the untraced
    passes and of the traced pass; ``kinds`` gives each untraced op's kind.
    """
    t = tracer
    ev = t.events
    ns = t.total_ns

    def per_op(total_ns):
        return total_ns / 1e6 / nops

    def counted(name):
        return t.counters.get(name, [0, 0])

    selfs = t.self_ns_by_name()
    ops_ns = ns("op")
    rk4_calls = t.calls("kernels.vertical_rk4")
    steps = ev.get("rk4_steps", 0)
    escalations = t.calls("homogeneity._exact_feasible")
    witness_tries = t.calls("go._tangency_witness")
    evals, eval_ns = counted("poly.Polynomial.__call__")
    checks = t.calls("homogeneity.check_homogeneous")
    m = {
        "kernels.rk4_calls": rk4_calls,
        "kernels.rk4_steps": steps,
        "kernels.rk4_us_per_step": _ratio(ns("kernels.vertical_rk4") / 1e3, steps),
        "kernels.rk4_share": _ratio(ns("kernels.vertical_rk4"), ops_ns),
        "kernels.aborted": ev.get("rk4_aborted", 0),
        "integrate.vertical_self_ms": per_op(selfs.get("integrate.integrate_vertical", 0)),
        "integrate.hlift_us_per_step": _ratio(
            ns("integrate.integrate_horizontal") / 1e3, ev.get("hlift_steps", 0)),
        "integrate.csv_ms": per_op(ns("integrate.Trajectory.to_csv_text")),
        "integrate.sample_momenta_ms": per_op(ns("integrate.sample_momenta")),
        "integrate.fixed_points_ms": per_op(ns("integrate.find_fixed_points")),
        "poly.eval_calls": evals,
        "poly.eval_us": _ratio(eval_ns / 1e3, evals),
        "poly.mul_calls": counted("poly.Polynomial.__mul__")[0],
        "hamiltonian.poisson_bracket_calls": t.calls("hamiltonian.lie_poisson_bracket"),
        "hamiltonian.poisson_bracket_ms": per_op(ns("hamiltonian.lie_poisson_bracket")),
        "hamiltonian.vertical_field_calls": (
            counted("hamiltonian.vertical_field")[0]
            + counted("hamiltonian.vertical_field_coords")[0]),
        "homogeneity.checks": checks,
        "homogeneity.check_us": _ratio(ns("homogeneity.check_homogeneous") / 1e3, checks),
        "homogeneity.escalations": escalations,
        "homogeneity.escalation_ratio": _ratio(ev.get("escalation_decided", 0), escalations),
        "homogeneity.inconclusive": ev.get("inconclusive", 0),
        "homogeneity.scan_ms": per_op(ns("homogeneity.scan_homogeneous")),
        "homogeneity.tangency_ms": per_op(ns("homogeneity.orbit_tangency_check")),
        "go.bracket_calls": t.calls("go.go_test_bracket"),
        "go.witness_hits": ev.get("witness_hits", 0),
        "go.witness_ratio": _ratio(ev.get("witness_hits", 0), witness_tries),
        "go.bracket_self_ms": per_op(selfs.get("go.go_test_bracket", 0)),
        "go.invariant_basis_ms": per_op(ns("go.invariant_polynomials")),
        "go.invariants": ev.get("invariants", 0),
        "go.skew_ms": per_op(ns("go.carnot_skew_test")),
        "existence.construct_ms": per_op(ns("existence.construct_homogeneous_geodesic")),
        "existence.route_solvable": ev.get("route_solvable", 0),
        "existence.route_eigenvector": ev.get("route_eigenvector", 0),
        "existence.quotients": t.calls("existence.factorize_by_ideal"),
        "existence.failed": ev.get("construct_failed", 0),
        "existence.audit_ms": per_op(ns("existence.verify_eigenconstruction")),
        "algebra.validate_ms": per_op(
            ns("algebra.LieAlgebra.validate")
            + ns("algebra.HomogeneousSRStructure.validate")),
        "algebra.bracket_exact_calls": counted("algebra.LieAlgebra.bracket_exact")[0],
        "algebra.killing_form_ms": per_op(ns("algebra.LieAlgebra.killing_form")),
        "exactla.rref_calls": counted("exactla.rref")[0],
        "exactla.rref_ms": per_op(counted("exactla.rref")[1]),
        "exactla.matmul_ms": per_op(counted("exactla.matmul")[1]),
        "models.load_calls": t.calls("models.load_model"),
        "models.load_ms": per_op(ns("models.load_model")),
        "cli.emit_ms": per_op(ns("cli._emit")),
        "cli.self_ms": per_op(sum(v for k, v in selfs.items()
                                  if k.startswith("cli.") and k != "cli._emit")),
        "trace.overhead_ratio": _ratio(sum(traced_ms) * len(kinds) / nops,
                                       sum(untraced_ms)),
    }
    for kind in KINDS:
        times = [ms for ms, k in zip(untraced_ms, kinds) if k == kind]
        m[f"ops.{kind}_p50_ms"] = statistics.median(times) if times else 0.0
    return m


def explain(tracer, label):
    """Self time of one op, summed per module, with the op's traced time."""
    op = next((s for s in tracer.ops() if s.op == label), None)
    if op is None:
        return None
    by_module = {}
    for name, self_ns in tracer.self_ns_by_name(label).items():
        module = "benchmark" if name == "op" else name.split(".")[0]
        by_module[module] = by_module.get(module, 0) + self_ns
    return {
        "op": label,
        "traced_ms": op.dur_ns / 1e6,
        "self_ms_by_module": {k: v / 1e6 for k, v in
                              sorted(by_module.items(), key=lambda kv: -kv[1])},
        "by_name_ms": {k: v / 1e6 for k, v in sorted(
            tracer.self_ns_by_name(label).items(), key=lambda kv: -kv[1])[:12]},
    }
