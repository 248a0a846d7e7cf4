"""Command-line front end.

Subcommands: validate, integrate, check, go, exist. Machine-readable
output (JSON or CSV) goes to --out or standard output; human summaries go
to standard error. Identical configuration and seed produce byte-identical
output files.

Each ``cmd_<name>(spec, args)`` does only its own work and returns
(output, summary, exit code): the JSON text or CSV chunks, and the stderr
text after "<model>: ". ``main`` loads the model, runs the command,
writes the output and prints the summary, and turns bad input into
``error: ...`` with exit 2.

``main`` builds the argument parser once per process, on its first call,
and reuses it; ``build_parser`` returns a fresh one. The parser holds no
command: ``main`` looks ``cmd_<subcommand>`` up in this module by name at
each call, so a rebinding of a ``cmd_*`` name (a test's monkeypatch, a
tracer's wrapper) takes effect on the next call.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .existence import construct_homogeneous_geodesic, verify_eigenconstruction
from .go import go_verdict
from .hamiltonian import Momentum
from .homogeneity import HOMOGENEOUS, NOT_HOMOGENEOUS, check_homogeneous
from .integrate import (
    CSV_BLOCK_ROWS,
    _csv_rows,
    integrate_horizontal,
    integrate_vertical,
    integrate_vertical_batch,
    sample_momenta,
)
from .kernels import field_rows
from .models import list_models, load_model, load_model_file

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_BLOWUP = 3
EXIT_INCONCLUSIVE = 4


def _load(name):
    if name in list_models():
        return load_model(name)
    if os.path.exists(name):
        return load_model_file(name)
    raise KeyError(f"unknown model {name!r} and no such file")


def _parse_p0(text, structure):
    vals = np.array([float(x) for x in text.split(",")])
    n, dm = structure.dim, structure.m.dim
    if len(vals) == n:
        return vals
    if len(vals) == dm:
        # m*-coordinates: lift into the annihilator of k. Momentum rejects
        # a non-finite component, so the lift need not warn about one.
        with np.errstate(invalid="ignore"):
            return structure.m_dual @ vals
    raise ValueError(
        f"p0 needs {n} components (or {dm} in m*-coordinates), got {len(vals)}"
    )


def _emit(text, out):
    """Write a string, or an iterable of string chunks, to out or stdout.

    An --out path that cannot be written raises OSError, which ``main``
    reports with exit 2.
    """
    chunks = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_validate(spec, args):
    # The structural checks passed when the structure was built: a
    # HomogeneousSRStructure that fails them cannot exist. What is left are
    # antisymmetry and Jacobi, which bundled models skip at build time.
    report = spec.structure.algebra.validate()
    output = _json({"model": spec.name, "dim": spec.structure.dim,
                    "valid": report.ok, "violations": report.violations})
    if report.ok:
        return output, "valid", EXIT_OK
    return output, f"INVALID ({len(report.violations)} violations)", EXIT_FAIL


def _phase_portrait_csv(spec, args):
    s = spec.structure
    n = s.dim
    rng = np.random.default_rng(args.seed)
    points = sample_momenta(s, args.samples, rng)
    header = ("kind,id,t," + ",".join(f"p_{i + 1}" for i in range(n)) + ","
              + ",".join(f"v_{i + 1}" for i in range(n)) + "\n")
    ids = np.arange(len(points), dtype=float)[:, None]
    arrows = np.hstack([ids, np.zeros_like(ids), points,
                        field_rows(s.vertical_terms, points)])
    chunks = [header] + [
        _csv_rows(arrows[start:start + CSV_BLOCK_ROWS], "arrow,")
        for start in range(0, len(arrows), CSV_BLOCK_ROWS)]
    trajs = integrate_vertical_batch(s, points[:8], args.T, args.step)
    for i, traj in enumerate(trajs):
        stride = max(1, traj.n_samples // 200)
        rows = traj.momenta[::stride]
        chunks.append(_csv_rows(np.hstack([
            np.full((len(rows), 1), float(i)), traj.times[::stride, None],
            rows, np.zeros_like(rows)]), "trajectory,"))
    return "".join(chunks)


def cmd_integrate(spec, args):
    s = spec.structure
    if args.phase_portrait:
        return (_phase_portrait_csv(spec, args),
                f"phase portrait with {args.samples} arrows", EXIT_OK)
    if args.horizontal and s.representation is None:
        raise ValueError("--horizontal needs a model with a representation, "
                         f"and {spec.name} has none")
    p0 = Momentum(_parse_p0(args.p0, s), s)
    traj = vertical = integrate_vertical(p0, args.T, args.step,
                                         casimirs=spec.casimirs)
    if not all(np.isfinite(v[0]) for v in traj.diagnostics.values()):
        raise ValueError("H or a Casimir of p0 is beyond the float range")
    if args.horizontal:
        traj = integrate_horizontal(traj)
    drifts = ", ".join(f"{k}={v:.3e}"
                       for k, v in sorted(traj.casimir_drifts().items()))
    if traj.n_samples < vertical.n_samples:
        # The lift's RK4 step can overflow G where the momenta stay finite
        # (an unstable step on a fast rotation), so say which one stopped.
        abort = ", ABORTED (the horizontal lift overflowed; " + (
            f"the vertical flow blows up at t {vertical.times[-1]:.6g})"
            if vertical.aborted else "a smaller --step may carry it)")
    else:
        abort = ", ABORTED (blow-up)" if traj.aborted else ""
    summary = (f"t reached {traj.times[-1]:.6g}, H drift {traj.h_drift():.3e}"
               + (f", {drifts}" if drifts else "") + abort)
    return traj.csv_chunks(), summary, EXIT_BLOWUP if traj.aborted else EXIT_OK


def cmd_check(spec, args):
    p0 = Momentum(_parse_p0(args.p0, spec.structure), spec.structure)
    cert = check_homogeneous(p0, threshold=args.tol)
    payload = cert.to_dict()
    payload["model"] = spec.name
    payload["p0"] = [float(x) for x in p0.coords]
    code = {HOMOGENEOUS: EXIT_OK, NOT_HOMOGENEOUS: EXIT_FAIL}.get(
        cert.verdict, EXIT_INCONCLUSIVE)
    return (_json(payload), f"{cert.verdict} (residual {cert.residual:.3e})",
            code)


def cmd_go(spec, args):
    verdict = go_verdict(spec.structure, degree_cap=args.degree_cap,
                         samples=args.samples, seed=args.seed)
    payload = verdict.to_dict()
    payload["model"] = spec.name
    return _json(payload), verdict.verdict, EXIT_OK


def cmd_exist(spec, args):
    result = construct_homogeneous_geodesic(spec.structure)
    payload = result.to_dict()
    payload["model"] = spec.name
    if not result.success:
        return _json(payload), "FAILED", EXIT_FAIL
    payload["audit"] = verify_eigenconstruction(spec.structure, result)
    return (_json(payload), f"constructed ({result.route} route)", EXIT_OK)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="srgo",
        description="Sub-Riemannian homogeneous-geodesic toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, p0=False, sampled=False):
        p.add_argument("--model", required=True,
                       help="registry name or JSON model file")
        p.add_argument("--out", help="output file (default: stdout)")
        if sampled:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--samples", type=int, default=1000)
        if p0:
            p.add_argument("--p0", help="comma-separated momentum "
                           "(full or m*-coordinates)")

    p = sub.add_parser("validate", help="exact structural checks")
    common(p)

    p = sub.add_parser("integrate", help="vertical flow to CSV")
    common(p, p0=True, sampled=True)
    # Unset until main has checked that only --phase-portrait got them.
    p.set_defaults(seed=None, samples=None)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--phase-portrait", action="store_true",
                   help="emit field arrows and trajectories on H = 1/2")
    p.add_argument("--horizontal", action="store_true",
                   help="include group points (the model needs a representation)")

    p = sub.add_parser("check", help="homogeneity of one momentum")
    common(p, p0=True)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="relative residual threshold")

    p = sub.add_parser("go", help="geodesic-orbit analysis")
    common(p, sampled=True)
    p.add_argument("--degree-cap", type=int, default=4)

    p = sub.add_parser("exist", help="construct a homogeneous geodesic")
    common(p)
    return parser


@functools.cache
def _parser():
    """The parser ``main`` uses, built on its first call and then reused."""
    return build_parser()


def main(argv=None):
    """Run one subcommand: load the model, run, write the output, then one
    summary line on stderr. Bad input, an unwritable --out included, prints
    ``error: ...`` instead and exits 2."""
    parser = _parser()
    args = parser.parse_args(argv)
    portrait = getattr(args, "phase_portrait", False)
    if args.command in ("integrate", "check") and args.p0 is None and not portrait:
        parser.error(f"{args.command} requires --p0")
    if args.command == "integrate":
        given = ({"--p0": args.p0 is not None, "--horizontal": args.horizontal}
                 if portrait else {"--samples": args.samples is not None,
                                   "--seed": args.seed is not None})
        for option in (o for o, used in given.items() if used):
            parser.error(f"integrate {'with' if portrait else 'without'} "
                         f"--phase-portrait does not use {option}")
        args.seed = 0 if args.seed is None else args.seed
        args.samples = 1000 if args.samples is None else args.samples
    command = globals()[f"cmd_{args.command}"]
    try:
        spec = _load(args.model)
        output, summary, code = command(spec, args)
        _emit(output, args.out)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(f"{spec.name}: {summary}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
