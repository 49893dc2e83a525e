"""oscwave benchmark: one workload, one seed, timed end to end or traced.

    python3 oscbench/run.py --workload direct_routes --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src`` directory.  One process and one client in a closed loop: each
operation is an in-process ``oscwave.cli.main([...])`` call that starts
when the previous one returns.  Set-up (imports, seeded inputs, oracle
references and, on direct_routes, one warm-up pass) is timed as
``setup_s``; then whole passes over the workload's fixed operation list run
until the next one would end past ``--seconds``.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics,
taken from spans around every call into an ``oscwave`` module (see
tracing.py), together with the tracing overhead.  Either way the last
line of standard output is one JSON object; the lines before it record
the machine, the sample counts and the gate ratios.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def percentile(values, q):
    """q-th percentile with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset (library default)")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
        "isolation": "shared machine; nothing pinned or isolated at the "
                     "system level (no CPU affinity, frequency or cgroup "
                     "settings)",
    }


def import_seconds(src):
    """Seconds to import oscwave and its CLI in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); "
            "sys.path.insert(0, sys.argv[1]); import oscwave.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def run_op(cli, op):
    """Run one operation; gives (seconds, exit status or exception,
    captured stdout, warnings raised)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            code = exc
        seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue(), len(caught)


class Pass:
    """Timings and check results of one pass over the operation list."""

    def __init__(self, traced):
        self.traced = traced
        self.latencies = []
        self.digests = []
        self.gates = {}
        self.near = set()
        self.attempted = self.failed = self.warnings = 0
        self.messages = []
        self.spans = (0, 0)   # span index range of a traced pass
        self.counts = {}      # work counts of a traced pass

    @property
    def wall(self):
        return sum(self.latencies)


def run_pass(cli, wl, ops, suite_map, package, tracer=None):
    """One pass over ops; the check registry records suite_map meanwhile
    and, for a traced pass, the tracer's wrappers are installed."""
    p = Pass(tracer is not None)
    with wl.recording_checks(package.verify, suite_map):
        if tracer is not None:
            tracer.install(package)
        try:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = i
                # a stale file from an earlier pass must not pass for this one's
                Path(op.output).unlink(missing_ok=True)
                seconds, code, stdout, n_warn = run_op(cli, op)
                outcome = wl.check(op, code, stdout, suite_map)
                p.latencies.append(seconds)
                p.digests.append(outcome.digest)
                p.warnings += n_warn
                p.attempted += outcome.attempted
                p.failed += outcome.failed
                p.near.update(outcome.near)
                p.messages += [f"op {i} ({op.argv[0]}): {m}"
                               for m in outcome.messages]
                for name, ratio in outcome.gates.items():
                    p.gates[name] = max(p.gates.get(name, 0.0), ratio)
        finally:
            if tracer is not None:
                tracer.uninstall()
    return p


def traced_pass(cli, wl, ops, suite_map, tracer, package):
    first, before = len(tracer.spans), dict(tracer.counts)
    p = run_pass(cli, wl, ops, suite_map, package, tracer)
    p.spans = (first, len(tracer.spans))
    p.counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    return p


def fail(message):
    print(f"oscbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def main():
    args = parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    src = ROOT / "src"
    if not (src / "oscwave" / "__init__.py").is_file():
        fail(f"no oscwave sources under {src}")

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import oscwave
    import oscwave.cli

    imports = [time.perf_counter() - t0]
    if Path(oscwave.__file__).resolve().parent != (src / "oscwave").resolve():
        fail(f"imported oscwave from {oscwave.__file__}, not from {src}")
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}")
    work_root = HERE / "_work"
    work = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        imports += [import_seconds(src) for _ in range(SETUP_REPEATS - 1)]
        measure(args, spec, oscwave, wl, work, work_root, imports)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, oscwave, wl, work, work_root, imports):
    cli = oscwave.cli
    build_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops = wl.build(args.workload, oscwave, work, args.seed)
        build_s.append(time.perf_counter() - t)
    suite_map = {}
    warm_s, warm = 0.0, []
    if args.workload in wl.WARM_UP:
        t = time.perf_counter()
        warm = [run_pass(cli, wl, ops, suite_map, oscwave)]
        warm_s = time.perf_counter() - t
    import_s = statistics.median(imports)
    setup_s = import_s + statistics.median(build_s) + warm_s

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            p = traced_pass(cli, wl, ops, suite_map, tracer, oscwave)
        else:
            p = run_pass(cli, wl, ops, suite_map, oscwave)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if len(passes) >= 1 + args.trace and elapsed + p.wall > args.seconds:
            break

    ran = warm + passes
    reference = ran[0].digests
    problems = []
    for k, p in enumerate(ran):
        problems += p.messages
        bad = sum(a != b for a, b in zip(p.digests, reference))
        if bad:
            kind = "traced" if p.traced else "untraced"
            problems.append(f"pass {k} ({kind}): {bad} output(s) differ byte "
                            "for byte from the first pass")
    attempted = sum(p.attempted for p in ran)
    failed = sum(p.failed for p in ran)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    print("# environment " + json.dumps(environment(args.seed)))
    print(f"# workload {args.workload}: {len(ops)} operation(s) per pass; "
          f"{len(untraced)} untraced and {len(traced)} traced pass(es) in "
          f"{time.perf_counter() - start:.1f} s after set-up")
    print(f"# setup_s {setup_s:.3f} s = import {import_s:.3f} s (median of "
          f"this process's and {SETUP_REPEATS - 1} fresh interpreters') + "
          f"inputs and oracle references {statistics.median(build_s):.3f} s "
          f"(median of {SETUP_REPEATS}) + warm-up pass {warm_s:.3f} s"
          + ("" if warm else " (none on this workload)"))
    # one latency per operation, its median over the untraced passes, so the
    # percentiles cover the same operations whatever the number of passes
    latencies = [statistics.median(p.latencies[i] for p in untraced)
                 for i in range(len(ops))]
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in untraced),
        "op_p50_s": percentile(latencies, 50),
        "op_p90_s": percentile(latencies, 90),
    }
    walls = [round(p.wall, 4) for p in untraced]
    print(f"# wall_s {e2e['wall_s']:.4f} s, median of the passes {walls}; "
          f"op_p50_s {e2e['op_p50_s']:.4f} s and op_p90_s "
          f"{e2e['op_p90_s']:.4f} s over {len(latencies)} operation(s), each "
          f"the median of its {len(untraced)} untraced pass(es)")
    if args.workload != "direct_routes":
        print("# here the operations are few and unlike each other: wall_s "
              "is the latency, and the percentiles are printed only because "
              "every run reports every end-to-end metric")
    ops_failed = failed / attempted
    print(f"# ops_failed {failed}/{attempted} = {ops_failed:g}"
          + (" (each registered check counts as one operation)"
             if args.workload == "verify_suite" else ""))
    gates = {}
    for p in ran:
        for name, ratio in p.gates.items():
            gates[name] = max(gates.get(name, 0.0), ratio)
    if gates:
        print("# gates, metric / tolerance (the metric itself where the "
              "tolerance is 0), worst over passes: "
              + json.dumps(gates, sort_keys=True))
    for name in sorted(set().union(*(p.near for p in ran))):
        print(f"# note: {name} sits at {gates[name]:.3f} of its tolerance; "
              "a small change to the numerics behind it can tip it over")

    if tracer is not None:
        metrics, extra = per_layer(spec, tracer, traced, untraced,
                                   reference, gates, ops_failed)
        problems += extra
        spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        print(f"# {len(tracer.spans)} spans written to "
              f"{spans_path.relative_to(ROOT)}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for m in problems:
        print(f"# FAILED {m}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _middle(xs):
    """Median; for counts, the lower middle one, so a count stays whole."""
    if all(isinstance(x, int) for x in xs):
        return statistics.median_low(xs)
    return statistics.median(xs)


def per_layer(spec, tracer, traced, untraced, reference, gates, ops_failed):
    """Per-layer metrics from the traced passes, and any problems found."""
    import tracing

    names = [m["name"] for m in spec["per_layer"]]
    problems = []
    runs = [tracing.layer_metrics(names, tracer.spans[lo:hi], lo, p.counts)
            for p in traced for lo, hi in [p.spans]]
    counts = [p.counts for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between traced passes")
    print("# work counts of one traced pass (computed) "
          + json.dumps(counts[0], sort_keys=True))
    values = {k: _middle([r[k] for r in runs]) for k in runs[0]}
    values.update(gates)
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["cli.warnings"] = _middle([p.warnings for p in traced])
    values["ops_failed"] = ops_failed
    same = all(p.digests == reference for p in traced)
    print(f"# tracing overhead {values['trace.overhead_s']:+.4f} s per pass "
          f"(traced wall {traced_wall:.4f} s minus untraced {untraced_wall:.4f} s); "
          f"traced outputs byte-identical to untraced: {'yes' if same else 'NO'}")
    absent = [n for n in names if n not in values]
    if absent:
        print("# not exercised by this workload, reported as 0: " + ", ".join(absent))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in spec["per_layer"]}
    return metrics, problems


if __name__ == "__main__":
    main()
