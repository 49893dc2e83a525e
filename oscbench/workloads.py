"""Seeded inputs, operation lists and output checks of the oscwave benchmark.

Every operation is one in-process call of ``oscwave.cli.main`` on CSV
files written here.  A workload's operation list and input sizes are
fixed; the seed changes only the data.  Reference outputs come from the
eigenfunction oracles (or the exact translate) and are computed here,
before anything is timed, so the checks after each operation only read
the program's output file and compare.
"""

import csv
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# oscillator data live on the grid of checks c04, c05 and c11, transport
# data on that of c07 and c10
OSC_SPAN = (-12.0, 12.0)
DIRAC_SPAN = (-16.0, 16.0)
ORACLE_MODES = 128
# modes of the random mixes: c05's "random 8-mode data" uses modes 0..7
MIX_MODES = 8

# tolerances the verification suite already grades
HEAT_TOL = 1.0e-5       # c05 heat_route_equivalence
SHIFT_TOL = 1.0e-10     # c07 dirac_heat_shift
DIRAC_WAVE_TOL = 0.1    # c10 dirac_wave_oracle_smallt
OSC_WAVE_TOL = 5.0e-2   # c11 oscillator_wave_smallt_row

# a graded ratio at or above this share of its tolerance is called out
NEAR_GATE = 0.9

# heat runs at c05's a*t = 0.4 on both couplings; the waves at the
# t = 1e-3 rows of c10 and c11; the shift is c07's
HEAT_AT = 0.4
WAVE_T = 1.0e-3
SHIFT_T = 0.7

# (subcommand, route, n, a): oscillator data through the substitution
# operator T; the large grid exposes per-point cost, the small ones any
# fixed per-call set-up
CONJUGATION = (
    ("heat-ho", "intertwine", 512, 0.5),
    ("heat-ho", "intertwine", 512, 1.0),
    ("wave-ho", "direct", 512, 0.5),
    ("wave-ho", "direct", 512, 1.0),
    ("heat-ho", "intertwine", 2048, 1.0),
)
# direct_routes: the counts place op_p50_s in the middle of the 2048-point
# short calls and op_p90_s in the middle of the wave-dirac --route direct
# calls, so neither percentile sits on a boundary between two kinds of call
# (where it would jump between them from run to run)
DIRECT_SIZES = (512, 1024, 2048)
DIRECT_COUPLINGS = (0.5, 1.0)
DIRECT_HEAT_ROUTES = ("kernel", "spectral", "oracle")
GAUSSIANS_PER_SIZE = 2     # each feeds heat-dirac and wave-dirac --route oracle
WAVE_DIRECT_N = 1024
WAVE_DIRECT_CALLS = 12
KERNEL_DUMPS = ((0.5, 80), (1.0, 80), (0.5, 112), (1.0, 112))   # (a, grid n)
GRUSHIN_DUMPS = (10, 12)                                         # grid n

WORKLOADS = ("verify_suite", "conjugation", "direct_routes")
# workloads whose set-up ends with a warm-up pass.  Only the short calls of
# direct_routes get one: the first pass of the other two, whose calls run
# for seconds, measured no slower than later ones, and a warm-up pass would
# double their runs
WARM_UP = ("direct_routes",)


@dataclass
class Op:
    """One CLI call and what its output must satisfy."""

    argv: list
    kind: str                 # "function", "matrix" or "suite"
    gate: str = ""            # gate.ops.<gate> that the op's error feeds
    reference: np.ndarray = None
    tolerance: float = 0.0
    max_abs: bool = False     # error is max |out - ref|, else relative L2
    rows: int = 0             # data rows a matrix dump must have

    @property
    def output(self):
        return self.argv[self.argv.index("--output") + 1]


@dataclass
class Outcome:
    """What the checks found in one operation's output."""

    attempted: int
    failed: int
    digest: str
    gates: dict
    messages: list
    near: list = ()           # graded gates at NEAR_GATE of their tolerance or more


def _num(v):
    return repr(float(v))


def _write_function(path, x, values):
    data = np.column_stack([x, values.real, values.imag])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="x,re,im",
               comments="")


class Builder:
    """Writes one workload's seeded inputs and computes its references."""

    def __init__(self, osc, workdir, seed):
        self.osc = osc
        self.work = workdir
        self.rng = np.random.default_rng(seed)
        self.files = 0

    def new_path(self, stem):
        self.files += 1
        return str(self.work / f"{self.files:03d}_{stem}.csv")

    def mix(self, n, a):
        """A random mix of 4..8 of the first 8 eigenfunctions at coupling a."""
        osc = self.osc
        g = osc.make_grid(*OSC_SPAN, n)
        k = int(self.rng.integers(4, MIX_MODES + 1))
        modes = self.rng.choice(MIX_MODES, size=k, replace=False)
        coeffs = self.rng.standard_normal(k)
        table = osc.hermite_table(MIX_MODES - 1, a, g.points)
        values = (coeffs @ table[modes]).astype(complex)
        path = self.new_path(f"mix_n{n}_a{a}")
        _write_function(path, g.points, values)
        f = osc.SampledFunction(g, values)
        return path, f, osc.expand(f, a, ORACLE_MODES)

    def gaussian(self, n):
        """exp(-(x - c)^2) with a seeded centre c in [-4, 4]."""
        g = self.osc.make_grid(*DIRAC_SPAN, n)
        c = float(self.rng.uniform(-4.0, 4.0))
        values = np.exp(-((g.points - c) ** 2)).astype(complex)
        path = self.new_path(f"gauss_n{n}")
        _write_function(path, g.points, values)
        return path, self.osc.SampledFunction(g, values), c

    def heat_op(self, route, path, f, coeffs, a):
        t = HEAT_AT / a
        ref = self.osc.heat_oracle(coeffs, t, f.grid).values
        return Op(["heat-ho", "--a", _num(a), "--t", _num(t), "--route", route,
                   "--input", path, "--output", self.new_path(f"heat_{route}")],
                  "function", "heat_vs_oracle", ref, HEAT_TOL)

    def wave_ho_op(self, route, path, f, coeffs, a):
        ref = self.osc.wave_oracle(coeffs, WAVE_T, f.grid).values
        return Op(["wave-ho", "--a", _num(a), "--t", _num(WAVE_T),
                   "--route", route, "--input", path,
                   "--output", self.new_path(f"wave_ho_{route}")],
                  "function", "wave_ho_vs_oracle", ref, OSC_WAVE_TOL)

    def wave_dirac_op(self, route, path, f):
        ref = self.osc.spectral_wave_oracle_dirac(f, WAVE_T).values
        return Op(["wave-dirac", "--t", _num(WAVE_T), "--route", route,
                   "--input", path,
                   "--output", self.new_path(f"wave_dirac_{route}")],
                  "function", "wave_dirac_vs_oracle", ref, DIRAC_WAVE_TOL)


def build(workload, osc, workdir, seed):
    """Write the inputs of a workload and return its operation list."""
    b = Builder(osc, workdir, seed)
    if workload == "verify_suite":
        # the registered checks fix their own data and seeds
        return [Op(["verify", "--suite", "all",
                    "--output", b.new_path("verify_report")], "suite")]
    ops = []
    if workload == "conjugation":
        for sub, route, n, a in CONJUGATION:
            path, f, coeffs = b.mix(n, a)
            make = b.heat_op if sub == "heat-ho" else b.wave_ho_op
            ops.append(make(route, path, f, coeffs, a))
        return ops
    if workload != "direct_routes":
        raise ValueError(f"unknown workload {workload!r}")
    for n in DIRECT_SIZES:
        for a in DIRECT_COUPLINGS:
            path, f, coeffs = b.mix(n, a)
            ops += [b.heat_op(r, path, f, coeffs, a) for r in DIRECT_HEAT_ROUTES]
            ops.append(b.wave_ho_op("oracle", path, f, coeffs, a))
        for _ in range(GAUSSIANS_PER_SIZE):
            path, f, c = b.gaussian(n)
            x = f.grid.points
            ops.append(Op(["heat-dirac", "--t", _num(SHIFT_T), "--input", path,
                           "--output", b.new_path("heat_dirac")],
                          "function", "heat_dirac_vs_shift",
                          np.exp(-((x + SHIFT_T - c) ** 2)), SHIFT_TOL, True))
            ops.append(b.wave_dirac_op("oracle", path, f))
    for _ in range(WAVE_DIRECT_CALLS):
        path, f, _ = b.gaussian(WAVE_DIRECT_N)
        ops.append(b.wave_dirac_op("direct", path, f))
    for a, n in KERNEL_DUMPS:
        ops.append(Op(["kernel", "--variant", "mehler", "--a", _num(a),
                       "--t", _num(HEAT_AT / a), "--grid", f"-4,4,{n}",
                       "--output", b.new_path("kernel")],
                      "matrix", rows=n * n))
    for n in GRUSHIN_DUMPS:
        dy = float(b.rng.uniform(0.1, 0.5))
        ops.append(Op(["grushin-heat", "--t", "0.5", "--grid", f"-1,1,{n}",
                       "--dy", _num(dy), "--output", b.new_path("grushin")],
                      "matrix", rows=n * n))
    return ops


def _digest(path, stdout):
    h = hashlib.sha256(stdout.encode())
    try:
        with open(path, "rb") as fh:
            h.update(fh.read())
    except OSError:
        h.update(b"<no output>")
    return h.hexdigest()


def _check_data(op):
    """(error ratio or None, message or None) for a function or matrix op."""
    data = np.loadtxt(op.output, delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(data)):
        return None, "non-finite output"
    if op.kind == "matrix":
        if data.shape != (op.rows, 3):
            return None, f"expected {op.rows} rows of 3 columns, got {data.shape}"
        return None, None
    values = data[:, 1] + 1j * data[:, 2]
    if values.shape != op.reference.shape:
        return None, f"expected {op.reference.size} samples, got {values.size}"
    diff = values - op.reference
    if op.max_abs:
        err = float(np.max(np.abs(diff)))
    else:
        err = float(np.linalg.norm(diff) / np.linalg.norm(op.reference))
    ratio = err / op.tolerance
    if not err <= op.tolerance:
        return ratio, f"error {err:.3e} above tolerance {op.tolerance:.1e}"
    return ratio, None


def read_report(path):
    """Rows of a verify report CSV as (name, metric, tolerance, verdict)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:4] != ["check", "metric", "tolerance", "verdict"]:
        raise ValueError("not a verify report")
    return [(r[0], float(r[1]), float(r[2]), r[3]) for r in rows[1:]]


def check(op, code, stdout, suite_map):
    """Grade one finished operation.

    code is the exit status, or the exception the call raised.  For the
    suite, each registered check is one attempted operation and fails when
    any of its graded reports fails; suite_map gives the reports of each
    check.
    """
    digest = _digest(op.output, stdout)
    if op.kind != "suite":
        if code != 0:
            return Outcome(1, 1, digest, {}, [f"exit status {code!r}"])
        try:
            ratio, msg = _check_data(op)
        except (OSError, ValueError) as err:
            ratio, msg = None, f"unreadable output: {err}"
        gates = {} if ratio is None else {f"gate.ops.{op.gate}": ratio}
        near = [g for g, r in gates.items() if NEAR_GATE <= r <= 1.0]
        return Outcome(1, 0 if msg is None else 1, digest, gates,
                       [] if msg is None else [msg], near)
    checks = len(suite_map)
    if code not in (0, 2):
        return Outcome(checks, checks, digest, {}, [f"exit status {code!r}"])
    try:
        rows = read_report(op.output)
    except (OSError, ValueError, IndexError) as err:
        return Outcome(checks, checks, digest, {}, [f"unreadable report: {err}"])
    by_name = {r[0]: r for r in rows}
    # metric / tolerance; a zero-tolerance report gives its metric as is
    gates = {f"gate.{name}": m / tol if tol > 0 else m for name, m, tol, _ in rows}
    near = [f"gate.{name}" for name, m, tol, verdict in rows
            if verdict != "informational" and tol > 0
            and NEAR_GATE <= m / tol <= 1.0]
    failed, messages = 0, []
    known = {name for names in suite_map.values() for name in names}
    if set(by_name) != known:
        messages.append("report names differ from those the checks returned: "
                        + ", ".join(sorted(set(by_name) ^ known)))
    for check_name, names in suite_map.items():
        bad = []
        for name in names:
            row = by_name.get(name)
            if row is None:
                bad.append(f"{name} missing")
            elif row[3] != "informational" and not row[1] <= row[2]:
                bad.append(f"{name} {row[1]:.3e} > {row[2]:.1e} ({row[3]})")
            elif row[3] == "fail":
                bad.append(f"{name} graded fail")
        if bad:
            failed += 1
            messages.append(f"{check_name}: " + "; ".join(bad))
    if (code == 2) != (failed > 0):
        messages.append(f"exit status {code} disagrees with the report")
        failed = max(failed, 1)
    return Outcome(checks, failed, digest, gates, messages, near)


@contextmanager
def recording_checks(verify, suite_map):
    """Wrap the check registry so that suite_map learns which reports each
    registered check returns; the map is complete when a run returns."""
    original = dict(verify.CHECKS)

    def recorder(name, fn):
        def run_check():
            reports = fn()
            suite_map[name] = [r.check_name for r in reports]
            return reports
        return run_check

    verify.CHECKS.update({k: recorder(k, fn) for k, fn in original.items()})
    try:
        yield suite_map
    finally:
        verify.CHECKS.update(original)
