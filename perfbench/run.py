"""Run one srgo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flow_small --seed 1 --seconds 30 --trace 0

One process, one client, sequential ops (a closed loop). The op list of a
pass is drawn from the seed; passes repeat it until a workload's minimum
number have run and ``--seconds`` have passed. With ``--trace 0`` the last
line of standard output is the end-to-end metrics as JSON; with
``--trace 1`` one traced pass follows the untraced ones and the last line
holds the per-layer metrics, while the spans go to ``perfbench/out/``.
Earlier lines give the environment, the op kinds' medians, the end-to-end
metrics in plain wall time and, when traced, an op's breakdown.

Every time metric is given at a fixed host speed (``speed.py``): the host
this was built on flips between two speeds about 2x apart every few
seconds.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "out")
OPS_DIR = os.path.join(WORK, "ops")  # op outputs, removed when a run ends
SETUP_REPEATS = 7
# Passes every run makes at least, well inside a 30 s run on a 2-core VM.
# Their op count fixes the tail percentile of each workload; on exact_small
# four passes put it inside the third-slowest op's samples rather than on
# the edge of the two go --degree-cap 6 ops.
MIN_PASSES = {"flow_small": 2, "exact_small": 4, "rank6": 2}
TAIL_BEYOND = 10  # ops beyond the tail percentile at the minimum op count
EXPLAIN = "go6:cartan"

# One client with no helper threads: pin the BLAS pool before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("flow_small", "exact_small", "rank6"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)  # time one set-up and exit
    return p.parse_args(argv)


def setup(workload):
    """Import srgo, load the workload's models, warm its op kinds up."""
    import workloads

    specs = workloads.load_specs(workload)
    kinds = {op.kind for op in workloads.build(workload, 0, specs)}
    workloads.warm_up(OPS_DIR, kinds)
    return specs


def setup_in_child(workload):
    """Seconds one fresh process spends in ``setup``: wall time, and time
    at the fixed host speed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--setup-child"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["wall_s"], out["setup_s"]


def environment(seed):
    import numpy as np

    import srgo.kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "have_numba": bool(srgo.kernels.HAVE_NUMBA),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "seed": seed,
    }


def blas_threads():
    """Threads of the loaded OpenBLAS, or the pinned setting if unreadable."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower()}
    except OSError:  # no /proc: report the pinned setting
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


class Runner:
    """Runs passes over one op list and checks every attempt's output.

    The first output of each op is verified; every later output must be
    byte-identical to it (and exit with the same code). A pass returns each
    op's wall time and its time at the fixed host speed (ms); the traced
    pass probes the speed only around each op, not inside it.
    """

    def __init__(self, ops):
        self.ops = ops
        self.first = {}  # label -> (output key, verification error)
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None):
        import speed

        wall, scaled = [], []
        for i, op in enumerate(self.ops):
            path = os.path.join(OPS_DIR, f"op-{i}.out")
            error = None
            with speed.measure(periodic=tracer is None) as m:
                try:
                    if tracer is None:
                        result = op.run(path)
                    else:
                        result = tracer.run_op(op.label, op.run, path)
                except (Exception, SystemExit) as exc:  # raising fails the op
                    error = f"{type(exc).__name__}: {exc}"
            wall.append(m.wall_ms)
            scaled.append(m.scaled_ms)
            if error:
                self._fail(op, error)
            else:
                self._check(op, result, path, tracer)
        return wall, scaled

    def _check(self, op, result, path, tracer):
        self.attempted += 1
        try:
            blob = op.output(result, path)
            key = (hashlib.sha256(blob).hexdigest(),
                   result if isinstance(result, int) else None)
            if op.label not in self.first:
                self.first[op.label] = (key, op.verify(result, blob))
            ref_key, error = self.first[op.label]
            if key != ref_key:
                error = "output differs from the op's first output"
            if error is None and tracer is not None and op.trace_check:
                error = op.trace_check(tracer, op.label)
        except Exception as exc:  # unreadable output fails the op
            error = f"{type(exc).__name__}: {exc}"
        if error:
            self.failures.append(f"{op.label}: {error}")

    def _fail(self, op, reason):
        self.attempted += 1
        self.failures.append(f"{op.label}: {reason}")


def declared_metrics(group):
    """Name -> unit of the ``group`` metrics that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[group]}


def tail_percentile(workload, ops_per_pass):
    """Highest whole percentile with TAIL_BEYOND ops beyond it at the
    minimum op count of a run."""
    n = MIN_PASSES[workload] * ops_per_pass
    return max(50, int(100 * (n - TAIL_BEYOND) / n))


def timing_metrics(times, pass_s, ops_per_pass, tail_q):
    return {
        "ops_per_s": ops_per_pass / statistics.median(pass_s),
        "op_p50_ms": statistics.median(times),
        "op_tail_ms": statistics.quantiles(
            times, n=100, method="inclusive")[tail_q - 1],
    }


def kind_medians(times, kinds):
    out = {}
    for kind in dict.fromkeys(kinds):
        out[kind] = statistics.median(t for t, k in zip(times, kinds)
                                      if k == kind)
    return out


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "srgo", "__init__.py")):
        print(f"error: no srgo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OPS_DIR, exist_ok=True)
    if args.setup_child:
        import speed

        speed.probe()  # first call not timed
        with speed.measure() as m:
            setup(args.workload)
        print(json.dumps({"wall_s": m.wall_ms / 1e3,
                          "setup_s": m.scaled_ms / 1e3}))
        return 0

    setup_samples = [] if args.trace else [
        setup_in_child(args.workload) for _ in range(SETUP_REPEATS)]
    specs = setup(args.workload)
    import srgo
    import speed
    import workloads

    if not os.path.samefile(os.path.dirname(srgo.__file__),
                            os.path.join(SRC, "srgo")):
        print(f"error: srgo imported from {srgo.__file__}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    ops = workloads.build(args.workload, args.seed, specs)
    runner = Runner(ops)
    for _ in range(3):  # first calls of the probe are not timed
        speed.probe()
    wall_ms, times = [], []
    start = time.perf_counter()
    while (len(wall_ms) < MIN_PASSES[args.workload] * len(ops)
           or time.perf_counter() - start < args.seconds):
        pass_wall, pass_scaled = runner.run_pass()
        wall_ms.extend(pass_wall)
        times.extend(pass_scaled)
    passes = len(times) // len(ops)
    kinds = [op.kind for op in ops] * passes
    medians = kind_medians(times, kinds)
    tail_q = tail_percentile(args.workload, len(ops))
    print(f"ops {len(times)} in {passes} passes of {len(ops)}; "
          f"tail percentile p{tail_q}")
    print("kind_p50_ms " + json.dumps(
        {k: round(v, 3) for k, v in medians.items()}))

    record = {"workload": args.workload, "env": env, "passes": passes,
              "ops_per_pass": len(ops), "tail_percentile": tail_q,
              "kind_p50_ms": medians,
              "op_ms": {op.label: times[i::len(ops)]
                        for i, op in enumerate(ops)},
              "op_wall_ms": {op.label: wall_ms[i::len(ops)]
                             for i, op in enumerate(ops)}}
    if args.trace:
        metrics = traced_metrics(args, runner, ops, times, kinds, record)
    else:
        def pass_seconds(ms):
            return [sum(ms[i:i + len(ops)]) / 1e3
                    for i in range(0, len(ms), len(ops))]

        metrics = {
            "setup_s": statistics.median(s for _, s in setup_samples),
            **timing_metrics(times, pass_seconds(times), len(ops), tail_q),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_ratio": 1 - len(runner.failures) / runner.attempted,
        }
        wall = {
            "setup_s": statistics.median(w for w, _ in setup_samples),
            **timing_metrics(wall_ms, pass_seconds(wall_ms), len(ops),
                             tail_q),
        }
        print("wall " + json.dumps(wall))
        record.update(setup_samples_s=setup_samples, wall_metrics=wall)
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 2
    for failure in runner.failures[:20]:
        print("FAILED " + failure)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    record.update(result, failures=runner.failures)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(OPS_DIR)
    print(json.dumps(result))
    return 0


def traced_metrics(args, runner, ops, untraced_ms, kinds, record):
    """One traced pass of the same ops; returns the per-layer metrics."""
    import layers
    from tracer import Tracer

    tracer = Tracer(layers.OBSERVERS)
    with tracer:
        _, traced_ms = runner.run_pass(tracer)
    values = layers.compute(tracer, len(ops), untraced_ms, traced_ms, kinds)
    explained = layers.explain(tracer, EXPLAIN)
    if explained:
        print("explain " + json.dumps(explained))
    record["explain"] = explained
    tracer.dump(
        os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"),
        extra={"workload": args.workload, "env": record["env"],
               "explain": explained},
    )
    return values


if __name__ == "__main__":
    sys.exit(main())
