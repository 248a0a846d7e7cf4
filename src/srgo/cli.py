"""Command-line front end.

Subcommands: validate, integrate, check, go, exist. Machine-readable
output (JSON or CSV) goes to --out or standard output; human summaries go
to standard error. Identical configuration and seed produce byte-identical
output files.
"""

import argparse
import json
import os
import sys

import numpy as np

from .existence import construct_homogeneous_geodesic, verify_eigenconstruction
from .go import go_verdict
from .hamiltonian import Momentum
from .homogeneity import (
    HOMOGENEOUS,
    INCONCLUSIVE,
    NOT_HOMOGENEOUS,
    check_homogeneous,
)
from .integrate import (
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

    Returns False, after printing the error, when the write fails (an
    --out path that cannot be written); the caller then exits 2.
    """
    chunks = [text] if isinstance(text, str) else text
    try:
        if out:
            with open(out, "w") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_validate(args):
    try:
        spec = _load(args.model)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # The structural checks passed when the structure was built: a
    # HomogeneousSRStructure that fails them cannot exist. What is left are
    # antisymmetry and Jacobi, which bundled models skip at build time.
    report = spec.structure.algebra.validate()
    if not _emit(
        _json(
            {
                "model": spec.name,
                "dim": spec.structure.dim,
                "valid": report.ok,
                "violations": report.violations,
            }
        ),
        args.out,
    ):
        return EXIT_BAD_INPUT
    print(
        f"{spec.name}: {'valid' if report.ok else 'INVALID'}"
        + (f" ({len(report.violations)} violations)" if not report.ok else ""),
        file=sys.stderr,
    )
    return EXIT_OK if report.ok else EXIT_FAIL


def _phase_portrait_csv(spec, args):
    s = spec.structure
    n = s.dim
    rng = np.random.default_rng(args.seed)
    points = sample_momenta(s, args.samples, rng)
    lines = [
        "kind,id,t,"
        + ",".join(f"p_{i + 1}" for i in range(n))
        + ","
        + ",".join(f"v_{i + 1}" for i in range(n))
    ]
    values = ",".join(["%.17g"] * n)
    arrow = "arrow,%d,0," + values + "," + values
    arrows = field_rows(s.vertical_terms, points)
    for i, (p, v) in enumerate(zip(points, arrows)):
        lines.append(arrow % (i, *p, *v))
    trajectory = "trajectory,%d,%.17g," + values + "," + ",".join(["0"] * n)
    trajs = integrate_vertical_batch(s, points[:8], args.T, args.step)
    for i, traj in enumerate(trajs):
        stride = max(1, traj.n_samples // 200)
        for t, row in zip(traj.times[::stride], traj.momenta[::stride]):
            lines.append(trajectory % (i, t, *row))
    return "\n".join(lines) + "\n"


def cmd_integrate(args):
    try:
        spec = _load(args.model)
        s = spec.structure
        if args.phase_portrait:
            if not _emit(_phase_portrait_csv(spec, args), args.out):
                return EXIT_BAD_INPUT
            print(
                f"{spec.name}: phase portrait with {args.samples} arrows",
                file=sys.stderr,
            )
            return EXIT_OK
        p0 = Momentum(_parse_p0(args.p0, s), s)
        traj = integrate_vertical(p0, args.T, args.step, casimirs=spec.casimirs)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.horizontal and s.representation is not None:
        traj = integrate_horizontal(traj)
    if not _emit(traj.csv_chunks(), args.out):
        return EXIT_BAD_INPUT
    drifts = ", ".join(
        f"{k}={v:.3e}" for k, v in sorted(traj.casimir_drifts().items())
    )
    print(
        f"{spec.name}: t reached {traj.times[-1]:.6g}, "
        f"H drift {traj.h_drift():.3e}"
        + (f", {drifts}" if drifts else "")
        + (", ABORTED (blow-up)" if traj.aborted else ""),
        file=sys.stderr,
    )
    return EXIT_BLOWUP if traj.aborted else EXIT_OK


def cmd_check(args):
    try:
        spec = _load(args.model)
        p0 = Momentum(_parse_p0(args.p0, spec.structure), spec.structure)
        cert = check_homogeneous(p0, threshold=args.tol)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    payload = cert.to_dict()
    payload["model"] = spec.name
    payload["p0"] = [float(x) for x in p0.coords]
    if not _emit(_json(payload), args.out):
        return EXIT_BAD_INPUT
    print(f"{spec.name}: {cert.verdict} (residual {cert.residual:.3e})",
          file=sys.stderr)
    if cert.verdict == HOMOGENEOUS:
        return EXIT_OK
    if cert.verdict == NOT_HOMOGENEOUS:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def cmd_go(args):
    try:
        spec = _load(args.model)
        verdict = go_verdict(
            spec.structure,
            degree_cap=args.degree_cap,
            samples=args.samples,
            seed=args.seed,
        )
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    payload = verdict.to_dict()
    payload["model"] = spec.name
    if not _emit(_json(payload), args.out):
        return EXIT_BAD_INPUT
    print(f"{spec.name}: {verdict.verdict}", file=sys.stderr)
    return EXIT_OK


def cmd_exist(args):
    try:
        spec = _load(args.model)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    result = construct_homogeneous_geodesic(spec.structure)
    payload = result.to_dict()
    payload["model"] = spec.name
    if result.success:
        payload["audit"] = verify_eigenconstruction(spec.structure, result)
    if not _emit(_json(payload), args.out):
        return EXIT_BAD_INPUT
    print(
        f"{spec.name}: {'constructed (' + result.route + ' route)' if result.success else 'FAILED'}",
        file=sys.stderr,
    )
    return EXIT_OK if result.success else EXIT_FAIL


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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("integrate", help="vertical flow to CSV")
    common(p, p0=True, sampled=True)
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--phase-portrait", action="store_true",
                   help="emit field arrows and trajectories on H = 1/2")
    p.add_argument("--horizontal", action="store_true",
                   help="include group points when a representation exists")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("check", help="homogeneity of one momentum")
    common(p, p0=True)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="relative residual threshold")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("go", help="geodesic-orbit analysis")
    common(p, sampled=True)
    p.add_argument("--degree-cap", type=int, default=4)
    p.set_defaults(func=cmd_go)

    p = sub.add_parser("exist", help="construct a homogeneous geodesic")
    common(p)
    p.set_defaults(func=cmd_exist)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "p0", None) is None and args.command in ("integrate", "check") \
            and not getattr(args, "phase_portrait", False):
        parser.error(f"{args.command} requires --p0")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
