import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscwave import (
    OscillatorParams,
    SampledFunction,
    ShiftCoverageWarning,
    SpectralCoefficients,
    VerificationReport,
    heat_dirac,
    heat_kernel,
    hermite_fn,
    make_grid,
    read_function_csv,
    reconstruct,
    wave_ho,
    write_function_csv,
)
import oscwave
from oscwave import verify
from oscwave.cli import main


def _write_gaussian(path, lo=-16.0, hi=16.0, n=512):
    g = make_grid(lo, hi, n)
    f = SampledFunction(g, np.exp(-g.points**2).astype(complex))
    write_function_csv(f, path)
    return g


def _write_ground_state(path, lo=-12.0, hi=12.0, n=1024):
    g = make_grid(lo, hi, n)
    f = SampledFunction(g, hermite_fn(0, 1.0, g.points).astype(complex))
    write_function_csv(f, path)
    return f


def test_heat_dirac_shifts_the_input(tmp_path):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    g = _write_gaussian(src)
    rc = main(["heat-dirac", "--t", "1.0", "--input", str(src), "--output", str(dst)])
    assert rc == 0
    out = read_function_csv(dst)
    target = np.exp(-((g.points + 1.0) ** 2))
    assert np.max(np.abs(out.values - target)) <= 1e-9


def test_kernel_dump_matches_direct_evaluation(tmp_path):
    dst = tmp_path / "k.csv"
    rc = main([
        "kernel", "--variant", "mehler", "--a", "1.0", "--t", "0.3",
        "--grid", "-2,2,16", "--output", str(dst),
    ])
    assert rc == 0
    with open(dst) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "xp", "value"]
    assert len(rows) == 1 + 16 * 16
    got = np.array([float(r[2]) for r in rows[1:]]).reshape(16, 16)
    x = make_grid(-2.0, 2.0, 16).points
    want = heat_kernel("mehler", OscillatorParams(1.0, 0.3), x[:, None], x[None, :])
    assert np.array_equal(got, want)


def test_kernel_dump_is_finite_at_tiny_coupling(tmp_path):
    dst = tmp_path / "k.csv"
    rc = main([
        "kernel", "--a", "1e-16", "--t", "0.1", "--grid", "-1,1,8",
        "--output", str(dst),
    ])
    assert rc == 0
    with open(dst) as fh:
        rows = list(csv.reader(fh))[1:]
    values = np.array([float(r[2]) for r in rows])
    assert values.size == 64 and np.all(np.isfinite(values))


def test_heat_ho_kernel_route(tmp_path):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    u0 = _write_ground_state(src, lo=-10.0, hi=10.0, n=512)
    rc = main([
        "heat-ho", "--route", "kernel", "--a", "1.0", "--t", "0.35",
        "--input", str(src), "--output", str(dst),
    ])
    assert rc == 0
    out = read_function_csv(dst)
    assert np.max(np.abs(out.values - np.exp(-0.35) * u0.values)) <= 1e-9


def test_heat_ho_literal_kernel_overflow_is_named(tmp_path, capsys):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    _write_gaussian(src, lo=-12.0, hi=12.0, n=512)
    with warnings.catch_warnings():
        # a numpy RuntimeWarning would escape main as an exception
        warnings.simplefilter("error")
        rc = main([
            "heat-ho", "--route", "kernel", "--variant", "paper_literal",
            "--a", "1", "--t", "0.05", "--input", str(src), "--output", str(dst),
        ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "paper_literal kernel overflows on this grid" in err
    assert not dst.exists()


@pytest.mark.parametrize("route", ["spectral", "intertwine", "oracle"])
def test_heat_ho_variant_outside_the_kernel_route_exits_one(tmp_path, capsys, route):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    _write_ground_state(src)
    rc = main([
        "heat-ho", "--route", route, "--variant", "mehler", "--a", "1.0",
        "--t", "0.35", "--input", str(src), "--output", str(dst),
    ])
    assert rc == 1
    assert f"--variant applies to the kernel route only, not --route {route}" \
        in capsys.readouterr().err
    assert not dst.exists()


def test_heat_ho_spectral_route(tmp_path):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    u0 = _write_ground_state(src)
    rc = main([
        "heat-ho", "--route", "spectral", "--a", "1.0", "--t", "0.35",
        "--input", str(src), "--output", str(dst),
    ])
    assert rc == 0
    out = read_function_csv(dst)
    assert np.max(np.abs(out.values - np.exp(-0.35) * u0.values)) <= 1e-5


def test_wave_ho_oracle_route(tmp_path):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    v0 = _write_ground_state(src)
    rc = main([
        "wave-ho", "--route", "oracle", "--a", "1.0", "--t", "0.7",
        "--input", str(src), "--output", str(dst),
    ])
    assert rc == 0
    out = read_function_csv(dst)
    assert np.max(np.abs(out.values - np.sin(0.7) * v0.values)) <= 1e-6


@pytest.mark.parametrize("sub", ["heat-ho", "wave-ho"])
def test_oracle_routes_build_one_hermite_table(tmp_path, hermite_builds, sub):
    """The expansion's table serves the synthesis on the input grid."""
    src = tmp_path / "in.csv"
    _write_ground_state(src, n=512)
    hermite_builds.clear()
    assert main([sub, "--route", "oracle", "--a", "1.0", "--t", "0.7", "--input",
                 str(src), "--output", str(tmp_path / "out.csv")]) == 0
    assert hermite_builds == [(128, 1.0, 512)]


def test_wave_ho_direct_route_matches_the_library(tmp_path):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    g = make_grid(-10.0, 10.0, 512)
    x = g.points
    write_function_csv(SampledFunction(
        g, (hermite_fn(0, 1.0, x) + 0.5j * hermite_fn(1, 1.0, x)).astype(complex)),
        src)
    rc = main([
        "wave-ho", "--route", "direct", "--a", "1.0", "--t", "0.3",
        "--input", str(src), "--output", str(dst),
    ])
    assert rc == 0
    want = wave_ho(read_function_csv(src), OscillatorParams(1.0, 0.3))
    assert np.array_equal(read_function_csv(dst).values, want.values)


def test_wave_ho_has_no_variant_flag(tmp_path):
    src = tmp_path / "in.csv"
    _write_ground_state(src)
    with pytest.raises(SystemExit) as exc:
        main(["wave-ho", "--variant", "paper_literal", "--a", "1.0", "--t", "0.3",
              "--input", str(src), "--output", str(tmp_path / "out.csv")])
    assert exc.value.code == 1


def test_wave_dirac_direct_route(tmp_path):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    _write_gaussian(src, lo=-8.0, hi=8.0, n=512)
    rc = main(["wave-dirac", "--t", "0.5", "--input", str(src), "--output", str(dst)])
    assert rc == 0
    out = read_function_csv(dst)
    assert np.all(np.isfinite(out.values))
    assert np.max(np.abs(out.values)) > 0.0


def test_grushin_dump(tmp_path):
    dst = tmp_path / "g.csv"
    rc = main([
        "grushin-heat", "--t", "0.5", "--grid", "-1,1,8", "--dy", "0.3",
        "--output", str(dst),
    ])
    assert rc == 0
    with open(dst) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 64
    vals = np.array([float(r[2]) for r in rows[1:]])
    assert np.all(np.isfinite(vals))


def _run_quietly(argv):
    """main(argv) with stderr and warnings captured: (status, stderr, warnings)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, err.getvalue(), [str(w.message) for w in caught]


def test_grushin_dump_refuses_aliased_offsets(tmp_path):
    dst = tmp_path / "g.csv"
    rc, err, caught = _run_quietly(["grushin-heat", "--t", "0.5", "--grid", "-1,1,16",
                                    "--dy", "30", "--output", str(dst)])
    assert (rc, caught) == (1, [])
    assert ("|y - y'| = 30 exceeds 25.1327 = pi (n_a - 1) / (2 a_max), half "
            "the quadrature's alias period at a_max = 64, n_a = 1025" in err)
    assert not dst.exists()


def test_grushin_dump_at_an_offset_that_once_aliased(tmp_path):
    # with a quarter-period guard and Simpson weights, dy = 25.13 returned
    # -0.163 here, where the kernel is ~2e-18; measured 5.6e-16 of the peak
    dst = tmp_path / "g.csv"
    assert main(["grushin-heat", "--t", "0.5", "--grid", "-1,1,16", "--dy", "25.13",
                 "--output", str(dst)]) == 0
    assert main(["grushin-heat", "--t", "0.5", "--grid", "-1,1,16", "--dy", "0",
                 "--output", str(tmp_path / "peak.csv")]) == 0
    values = np.loadtxt(dst, delimiter=",", skiprows=1)[:, 2]
    peak = np.max(np.loadtxt(tmp_path / "peak.csv", delimiter=",", skiprows=1)[:, 2])
    assert values.size == 256
    assert np.max(np.abs(values)) <= 1e-14 * peak


@pytest.mark.parametrize("args, message", [
    (["grushin-heat", "--t", "1e-300", "--grid", "-1,1,8", "--dy", "0"],
     "the kernel at t = 1e-300 leaves the double range"),
    (["kernel", "--a", "1", "--t", "1e-320", "--grid", "-1,1,8"],
     "closed-form kernels need a*t >= 1e-300, got 9.99989e-321"),
])
def test_kernel_dumps_refuse_times_past_the_double_range(tmp_path, args, message):
    dst = tmp_path / "k.csv"
    rc, err, caught = _run_quietly([*args, "--output", str(dst)])
    assert (rc, caught) == (1, [])
    assert message in err
    assert not dst.exists()


@pytest.mark.parametrize("args, message", [
    (["kernel", "--variant", "paper_literal", "--a", "1", "--t", "1e-17"],
     "the paper_literal kernel overflows on this grid at a = 1, t = 1e-17; "
     "its values are not finite"),
    (["kernel", "--a", "1e12", "--t", "1e-310"],
     "closed-form kernels need t >= 1e-308, got 1e-310"),
], ids=["literal-at-1e-17", "mehler-t-1e-310"])
def test_kernel_dumps_refuse_what_they_cannot_write_finitely(tmp_path, args, message):
    """The literal form at a*t = 1e-17 overflows off the diagonal (its
    diagonal is finite through expm1), and at t = 1e-310 the Gaussian rate
    ~1/(2t) leaves the double range: both exit 1 with one message, no
    warning and no file."""
    dst = tmp_path / "k.csv"
    rc, err, caught = _run_quietly([*args, "--grid", "-1,1,8", "--output", str(dst)])
    assert (rc, err, caught) == (1, f"oscwave: {message}\n", [])
    assert not dst.exists()


def test_kernel_route_refuses_t_where_the_gaussian_rate_overflows(tmp_path):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    _write_ground_state(src, n=64)
    rc, err, caught = _run_quietly(["heat-ho", "--route", "kernel", "--a", "1e12",
                                    "--t", "1e-310", "--input", str(src), "--output", str(dst)])
    assert (rc, err, caught) == (
        1, "oscwave: the kernel route needs t >= 1e-308, got 1e-310\n", [])
    assert not dst.exists()


def test_verify_selected_checks(tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc = main([
        "verify", "--suite", "dirac_heat_exactness,grushin_kernel",
        "--output", str(report),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "pass" in text and "metric=" in text
    with open(report) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "metric", "tolerance", "verdict", "notes"]
    assert all(r[3] in ("pass", "informational") for r in rows[1:])


def test_verify_runs_are_deterministic(tmp_path):
    p1 = tmp_path / "r1.csv"
    p2 = tmp_path / "r2.csv"
    assert main(["verify", "--suite", "dirac_heat_exactness", "--output", str(p1)]) == 0
    assert main(["verify", "--suite", "dirac_heat_exactness", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# The calls whose outputs two child interpreters compare (cross_process_files),
# by case id; the routes and the conjugated calls run on the seeded 8-mode
# mix on [-12, 12) at 512 and at 2048 points.
_ROUTE_CALLS = {
    "heat-ho": ("heat-ho", "oracle", "0.4"),
    "wave-ho": ("wave-ho", "oracle", "0.4"),
    "heat-ho-intertwine-t0.4": ("heat-ho", "intertwine", "0.4"),
    "heat-ho-intertwine-t1e-3": ("heat-ho", "intertwine", "1e-3"),
    "wave-ho-direct": ("wave-ho", "direct", "0.4"),
    "heat-ho-spectral": ("heat-ho", "spectral", "0.4"),
    "heat-ho-kernel": ("heat-ho", "kernel", "0.4"),
}
_CONJUGATED_2048_CALLS = {
    "heat-ho-intertwine-t0.4": ("heat-ho", "intertwine", "0.4"),
    "wave-ho-direct-t0.1": ("wave-ho", "direct", "0.1"),
}
_DUMP_CALLS = {
    "kernel": ("kernel", "--variant", "mehler", "--a", "1.0", "--t", "0.4",
               "--grid", "-4,4,112"),
    "grushin-dy0.3": ("grushin-heat", "--t", "0.5", "--grid", "-1,1,16", "--dy", "0.3"),
    "grushin-dy20": ("grushin-heat", "--t", "0.5", "--grid", "-1,1,16", "--dy", "20"),
}

# a child's work: one in-process main call per (output path, argv), in order
CROSS_PROCESS_CHILD = """
import json
import sys
from oscwave.cli import main

for path, argv in json.loads(sys.argv[1]):
    if main([*argv, "--output", path]) != 0:
        sys.exit("oscwave " + " ".join(argv) + " did not exit 0")
"""


@pytest.fixture(scope="module")
def cross_process_files(tmp_path_factory):
    """name -> the bytes of that output as two child interpreters wrote it.

    The two start at once, each under -W error::RuntimeWarning, and write
    every output the cross-process cases compare.  One runs at
    OPENBLAS_NUM_THREADS=1 and writes them in order; the other runs at
    OpenBLAS's default thread count and writes them in reverse order.  So a
    pair that matches depends neither on the thread count nor on what the
    process ran before."""
    tmp = tmp_path_factory.mktemp("cross_process")
    coeffs = SpectralCoefficients(1.0, np.random.default_rng(5).standard_normal(8))
    inputs = {}
    for n in (512, 2048):
        inputs[n] = tmp / f"osc{n}.csv"
        write_function_csv(reconstruct(coeffs, make_grid(-12.0, 12.0, n)), inputs[n])
    calls = {"report": ("verify", "--suite", "all")}
    for n, prefix, table in ((512, "route", _ROUTE_CALLS),
                             (2048, "n2048", _CONJUGATED_2048_CALLS)):
        for name, (sub, route, t) in table.items():
            calls[f"{prefix}-{name}"] = (sub, "--route", route, "--a", "1.0", "--t", t,
                                         "--input", str(inputs[n]))
    calls.update((f"dump-{name}", args) for name, args in _DUMP_CALLS.items())
    pkg_root = Path(oscwave.__file__).resolve().parents[1]
    # OpenBLAS reads its thread count from the first of these that is set
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(pkg_root)
    children = []
    for label, threads, order in (("one", {"OPENBLAS_NUM_THREADS": "1"}, 1),
                                  ("default", {}, -1)):
        (tmp / label).mkdir()
        jobs = [(str(tmp / label / f"{name}.csv"), argv) for name, argv in calls.items()]
        children.append(subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", CROSS_PROCESS_CHILD,
             json.dumps(jobs[::order])],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env={**env, **threads}))
    for child in children:
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
    return {name: tuple((tmp / label / f"{name}.csv").read_bytes()
                        for label in ("one", "default"))
            for name in calls}


def test_verify_report_is_byte_identical_across_processes(cross_process_files):
    """The whole report, every row of which a BLAS product, a phase sum or
    a quadrature feeds, is the same file in both children of
    cross_process_files: at one BLAS thread and at the default, each after
    other work."""
    first, second = cross_process_files["report"]
    assert first == second
    assert first.startswith(b"check,metric,tolerance,verdict,notes")


@pytest.mark.parametrize("name", list(_ROUTE_CALLS))
def test_oracle_routes_are_byte_identical_across_processes(cross_process_files, name):
    """The Hermite oracles project and synthesize through real BLAS
    products, and the routes through T sum their phases in real BLAS
    products too (a heat call at t = 1e-3 keeps the derived window and
    builds twice its rows); their output on a seeded 512-point input is the
    same file in both children of cross_process_files."""
    first, second = cross_process_files[f"route-{name}"]
    assert first == second
    assert len(first.splitlines()) == 1 + 512


@pytest.mark.parametrize("name", list(_CONJUGATED_2048_CALLS))
def test_conjugated_routes_on_2048_points_are_byte_identical_across_processes(
        cross_process_files, name):
    """On a seeded 2048-point input T's inverse sums a product of about
    1.7e6 multiply-adds over its high rows; as one BLAS call its bits
    followed the thread count, and both outputs differed between the
    children.  Summed in blocks, each is the same file in both."""
    first, second = cross_process_files[f"n2048-{name}"]
    assert first == second
    assert len(first.splitlines()) == 1 + 2048


@pytest.mark.parametrize("name", list(_DUMP_CALLS))
def test_matrix_dumps_are_byte_identical_across_processes(cross_process_files, name):
    """The kernel matrix and the Grushin kernel's lambda quadrature are the
    same file in both children of cross_process_files."""
    first, second = cross_process_files[f"dump-{name}"]
    assert first == second
    assert len(first.splitlines()) > 1


def test_verify_exit_code_two_on_failure(tmp_path):
    def _always_fails():
        return [VerificationReport("always_fails", 1.0, 1e-6, "fail", "synthetic")]

    verify.CHECKS["always_fails"] = _always_fails
    try:
        rc = main([
            "verify", "--suite", "always_fails",
            "--output", str(tmp_path / "r.csv"),
        ])
    finally:
        del verify.CHECKS["always_fails"]
    assert rc == 2


def test_unknown_check_is_a_precondition_error(tmp_path, capsys):
    rc = main([
        "verify", "--suite", "no_such_check", "--output", str(tmp_path / "r.csv"),
    ])
    assert rc == 1
    assert "unknown check" in capsys.readouterr().err


def test_bad_grid_spec_exits_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--a", "1", "--t", "0.3", "--grid", "oops",
              "--output", str(tmp_path / "k.csv")])
    assert exc.value.code == 1


def test_missing_input_file(tmp_path, capsys):
    rc = main([
        "heat-dirac", "--t", "1.0",
        "--input", str(tmp_path / "absent.csv"),
        "--output", str(tmp_path / "out.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err


def test_short_csv_rows_exit_one_without_traceback(tmp_path):
    src = tmp_path / "short.csv"
    src.write_text("x,re\n0.0\n0.1\n")
    pkg_root = Path(oscwave.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(pkg_root))
    done = subprocess.run(
        [sys.executable, "-m", "oscwave.cli", "heat-dirac", "--t", "1.0",
         "--input", str(src), "--output", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "short.csv: data row 1" in done.stderr


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    # one process: a --route given to the first call must not become the
    # second call's default
    src = tmp_path / "in.csv"
    _write_ground_state(src, n=256)
    runs = [["heat-ho", "--route", "spectral"], ["heat-ho"]]
    pkg_root = Path(oscwave.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(pkg_root))
    outputs = []
    for k, head in enumerate(runs):
        tail = ["--a", "1.0", "--t", "0.3", "--input", str(src)]
        here, fresh = tmp_path / f"here{k}.csv", tmp_path / f"fresh{k}.csv"
        assert main(head + tail + ["--output", str(here)]) == 0
        done = subprocess.run(
            [sys.executable, "-m", "oscwave.cli", *head, *tail, "--output", str(fresh)],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert here.read_bytes() == fresh.read_bytes()
        outputs.append(here.read_bytes())
    kernel = tmp_path / "kernel.csv"
    assert main(["heat-ho", "--route", "kernel", *tail, "--output", str(kernel)]) == 0
    assert outputs[1] == kernel.read_bytes() != outputs[0]


NO_SCIPY_RUN = """
import json
import sys
sys.modules["scipy"] = None   # any import of scipy now fails
import numpy as np
import oscwave.cli
from oscwave import SampledFunction, hermite_fn, make_grid, write_function_csv

tmp = sys.argv[1]
rng = np.random.default_rng(11)
g = make_grid(-10.0, 10.0, 256)
mix = sum(c * hermite_fn(k, 1.0, g.points) for k, c in enumerate(rng.standard_normal(4)))
write_function_csv(SampledFunction(g, mix.astype(complex)), tmp + "/mix.csv")
g = make_grid(-8.0, 8.0, 256)
bump = np.exp(-(g.points - rng.uniform(-1, 1)) ** 2)
write_function_csv(SampledFunction(g, bump.astype(complex)), tmp + "/bump.csv")
codes = [
    oscwave.cli.main(["heat-ho", "--route", "spectral", "--a", "1.0", "--t", "0.3",
                      "--input", tmp + "/mix.csv", "--output", tmp + "/heat.csv"]),
    oscwave.cli.main(["wave-dirac", "--route", "direct", "--t", "0.5",
                      "--input", tmp + "/bump.csv", "--output", tmp + "/wave.csv"]),
]
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "scipy" and mod is not None]
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""


def test_runs_without_scipy(tmp_path):
    pkg_root = Path(oscwave.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(pkg_root))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0, 0], "scipy_modules": []}
    assert (tmp_path / "heat.csv").stat().st_size > 0
    assert (tmp_path / "wave.csv").stat().st_size > 0


def test_domain_violation_exits_one(tmp_path, capsys):
    src = tmp_path / "in.csv"
    _write_ground_state(src)
    rc = main([
        "heat-ho", "--a", "-1.0", "--t", "0.3",
        "--input", str(src), "--output", str(tmp_path / "out.csv"),
    ])
    assert rc == 1
    assert "positive" in capsys.readouterr().err


def _assert_bad_time(tmp_path, command, t):
    src = tmp_path / "in.csv"
    _write_gaussian(src, lo=-8.0, hi=8.0, n=64)
    rc, err, caught = _run_quietly([*command.split(), "--t", t, "--input", str(src),
                                    "--output", str(tmp_path / "out.csv")])
    assert rc == 1
    assert err == "oscwave: time t must be non-negative and finite\n"
    assert caught == []


@pytest.mark.parametrize("command", [
    "heat-dirac", "wave-dirac",
    pytest.param("wave-dirac --route oracle", id="wave-dirac-oracle")])
@pytest.mark.parametrize("t", ["nan", "inf"])
def test_dirac_flows_reject_non_finite_time(tmp_path, command, t):
    _assert_bad_time(tmp_path, command, t)


@pytest.mark.parametrize("route", ["direct", "oracle"])
def test_wave_dirac_routes_reject_negative_time(tmp_path, route):
    _assert_bad_time(tmp_path, f"wave-dirac --route {route}", "-0.5")


def _finite_float(text):
    try:
        return bool(np.isfinite(float(text)))
    except ValueError:
        return False


_CSV_ROWS = [[repr(float(x)), repr(float(np.exp(-x * x))), "0.0"]
             for x in make_grid(-4.0, 4.0, 16).points]
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def malformed_calls(draw):
    """A propagation subcommand with exactly one malformed flag or input."""
    command = draw(st.sampled_from(["heat-dirac", "wave-dirac", "heat-ho", "wave-ho"]))
    routes = {"heat-ho": ["kernel", "spectral", "intertwine", "oracle"],
              "wave-ho": ["direct", "oracle"], "wave-dirac": ["direct", "oracle"]}
    defects = ["t", "empty", "header only", "short row", "bad field"]
    if command.endswith("-ho"):
        defects.append("a")
    defect = draw(st.sampled_from(defects))
    t, a = "0.3", "1.0"
    header, rows = ["x", "re", "im"], [list(r) for r in _CSV_ROWS]
    if defect == "t":
        t = repr(draw(_NON_FINITE))
    elif defect == "a":
        a = repr(draw(st.one_of(_NON_FINITE, st.floats(max_value=0.0))))
    elif defect == "empty":
        header, rows = None, []
    elif defect == "header only":
        header, rows = header[: draw(st.integers(2, 3))], []
    else:
        i = draw(st.integers(0, len(rows) - 1))
        if defect == "short row":
            rows[i] = rows[i][:1]
        else:
            field = draw(st.one_of(
                st.sampled_from(["nan", "inf", "-inf", ""]),
                st.text("abcxyz.-+eE ", max_size=5).filter(
                    lambda s: not _finite_float(s))))
            rows[i][draw(st.integers(0, 2))] = field
    text = "" if header is None else "\n".join(",".join(r) for r in [header] + rows) + "\n"
    argv = [command, "--t", t]
    if command.endswith("-ho"):
        argv += ["--a", a]
    if command in routes:
        argv += ["--route", draw(st.sampled_from(routes[command]))]
    return argv, text


@settings(max_examples=150)
@given(malformed_calls())
def test_malformed_input_exits_one_with_a_message(call):
    argv, text = call
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.csv"
        src.write_text(text)
        rc, err, caught = _run_quietly(
            argv + ["--input", str(src), "--output", str(Path(tmp) / "out.csv")])
    assert rc == 1, (argv, text)
    assert err.startswith("oscwave: "), (argv, text)
    assert caught == [], (argv, text)


@pytest.fixture(scope="module")
def oscillator_csv(tmp_path_factory):
    # CI's conjugated-route data: 8 seeded modes at a = 1 on [-12, 12)
    path = tmp_path_factory.mktemp("ho") / "osc.csv"
    g = make_grid(-12.0, 12.0, 512)
    coeffs = SpectralCoefficients(1.0, np.random.default_rng(5).standard_normal(8))
    write_function_csv(reconstruct(coeffs, g), path)
    return path


def test_wave_dirac_oracle_at_a_subnormal_time_writes_finite_values(oscillator_csv, tmp_path):
    # t sin(w)/w overflowed at a subnormal w, and the run exited 1 blaming
    # the data ("sampled values must be finite") after two RuntimeWarnings
    dst = tmp_path / "out.csv"
    rc, err, caught = _run_quietly(["wave-dirac", "--route", "oracle", "--t", "1.8707653374e-313",
                                    "--input", str(oscillator_csv), "--output", str(dst)])
    assert (rc, err, caught) == (0, "", [])
    values = np.loadtxt(dst, delimiter=",", skiprows=1)
    assert values.shape == (512, 3) and np.all(np.isfinite(values))


@pytest.mark.parametrize("dy, message", [
    ("1902692121.2080727", "|y - y'| = 1.90269e+09 exceeds 2.95656e-272 = pi (n_a - 1) / "
     "(2 a_max), half the quadrature's alias period at a_max = 5.44043e+274, n_a = 1025"),
    ("0", "the kernel at t = 1.47047e-274 leaves the double range at x = -2.5921e+71, "
     "x' = -2.5921e+71")])
def test_grushin_dump_far_out_at_a_tiny_time_is_refused_by_name(tmp_path, dy, message):
    """The coupling kernel's exponents left the double range in the cutoff
    search, with three RuntimeWarnings, before the alias guard refused."""
    rc, err, caught = _run_quietly([
        "grushin-heat", "--t", "1.4704723134816784e-274",
        "--grid", "-2.592100298055869e+71,2.592100298055869e+71,11", "--dy", dy,
        "--output", str(tmp_path / "g.csv")])
    assert (rc, err, caught) == (1, f"oscwave: {message}\n", [])


@pytest.mark.parametrize("variant", ["mehler", "paper_corrected"])
def test_kernel_dump_far_from_the_origin_writes_its_true_zeros(tmp_path, variant):
    """inf - inf in the printed exponent made this dump exit 1 with a false
    overflow message, after a RuntimeWarning."""
    t = "0.5" if variant == "mehler" else "1e-300"
    dst = tmp_path / "k.csv"
    rc, err, caught = _run_quietly(["kernel", "--variant", variant, "--a", "1", "--t", t,
                                    "--grid", "-1e200,1e200,8", "--output", str(dst)])
    assert (rc, err, caught) == (0, "", [])
    values = np.loadtxt(dst, delimiter=",", skiprows=1)[:, 2].reshape(8, 8)
    # the grid's fifth point is 0
    assert values[4, 4] == heat_kernel(variant, OscillatorParams(1.0, float(t)), 0.0, 0.0)
    values[4, 4] = 0.0
    assert np.all(values == 0.0)


@pytest.mark.parametrize("argv, message", [
    (["heat-dirac", "--t", "1e308"], None),
    (["wave-dirac", "--route", "oracle", "--t", "1e308"],
     "t*sqrt(R/2) = inf exceeds 25; the multiplier would amplify the band edge past 1e10")],
    ids=["heat-dirac", "wave-dirac-oracle"])
def test_dirac_flows_at_a_huge_time_are_refused_by_name(oscillator_csv, tmp_path, argv, message):
    """The shift's phase xi t overflowed, and the run blamed the data
    ("sampled values must be finite"); the oracle's growth t sqrt(R/2)
    overflowed before its refusal.  The shift now forms its phase from
    t mod n h, which is exact, so it writes that translate and warns that
    the data wraps, where the oracle is still refused."""
    dst = tmp_path / "out.csv"
    rc, err, caught = _run_quietly([*argv, "--input", str(oscillator_csv), "--output", str(dst)])
    assert not any("overflow" in w for w in caught)
    if message is not None:
        assert (rc, err) == (1, f"oscwave: {message}\n")
        return
    assert (rc, err) == (0, "")
    assert caught == ["shift by t=1e+308 moves live data past the grid start; "
                      "the result wraps around"]
    u0 = read_function_csv(oscillator_csv)
    shift = math.fmod(1e308, u0.grid.n * u0.grid.spacing)
    assert 0.0 < shift < 24.0
    ref = tmp_path / "ref.csv"
    with pytest.warns(ShiftCoverageWarning):
        write_function_csv(heat_dirac(u0, shift), ref)
    assert dst.read_bytes() == ref.read_bytes()


def test_grid_whose_span_overflows_is_refused_by_name(tmp_path):
    rc, err, caught = _run_quietly(["kernel", "--a", "1", "--t", "1", "--grid", "-1e308,1e308,8",
                                    "--output", str(tmp_path / "k.csv")])
    assert (rc, err, caught) == (1, "oscwave: the span of [-1e+308, 1e+308] leaves the double "
                                    "range\n", [])


@pytest.mark.parametrize("command, a, t, message", [
    ("wave-ho", "1e-316", "1", "coupling a = 1e-316 is too small"),
    ("heat-ho --route intertwine", "1e-316", "1", "coupling a = 1e-316 is too small"),
    ("heat-ho --route oracle", "8.4e306", "0", "coupling a = 8.4e+306 is too large for 129 modes"),
    ("wave-ho --route oracle", "8.4e306", "0", "coupling a = 8.4e+306 is too large for 129 modes"),
    ("heat-ho --route spectral", "8.4e306", "0", "not band-limited"),
    ("heat-ho --route intertwine", "8.4e306", "0", "exceeds the x-grid band")])
def test_couplings_past_the_double_range_are_refused_by_name(oscillator_csv, tmp_path,
                                                             command, a, t, message):
    """A subnormal a overflowed X_EXTENT / a in derive_params; at a = 8.4e306
    the damped data is one sample wide and the oracle's last rate (2n+1)a
    overflows.  Each ended in an overflow warning."""
    rc, err, caught = _run_quietly([*command.split(), "--a", a, "--t", t,
                                    "--input", str(oscillator_csv),
                                    "--output", str(tmp_path / "out.csv")])
    assert rc == 1 and err.startswith("oscwave: ") and message in err
    assert not any("overflow" in w for w in caught)


# every positive finite double, subnormals included, log-uniformly: a
# mantissa in [1, 2) times a power of two from 2^-1074 to 2^1023
_POSITIVE = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                      st.integers(-1074, 1023))


@pytest.mark.parametrize("command", [
    "heat-ho --route kernel", "heat-ho --route spectral", "heat-ho --route intertwine",
    "heat-ho --route oracle", "wave-ho --route direct", "wave-ho --route oracle"])
@given(a=_POSITIVE, t=st.one_of(st.just(0.0), _POSITIVE))
# faults this property found: overflow warnings in derive_params (subnormal
# a), in _damped and the oracle rates (huge a), in the final e^{ax^2/2}
# (a = 24) and in the spectral multiplier (tiny a, huge t)
@example(a=1e-316, t=1.0)
@example(a=2.0**1018, t=0.0)
@example(a=2.0**1017, t=0.0)
@example(a=24.0, t=0.0)
@example(a=2.1360709041669133e-306, t=1.4044477616111843e308)
def test_oscillator_routes_exit_cleanly_over_the_double_range(oscillator_csv, command, a, t):
    """Each call writes finite output (exit 0) or names its refusal on one
    line (exit 1); a numpy RuntimeWarning is an error."""
    _assert_exits_cleanly([*command.split(), "--a", repr(a), "--t", repr(t),
                           "--input", str(oscillator_csv)], rows=512)


def _assert_exits_cleanly(argv, rows):
    """main(argv) writes `rows` finite CSV rows (exit 0) or names its refusal
    on one line (exit 1), with numpy RuntimeWarnings raised as errors."""
    with tempfile.TemporaryDirectory() as tmp:
        dst = Path(tmp) / "out.csv"
        err = io.StringIO()
        with warnings.catch_warnings(record=True), redirect_stderr(err):
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([*argv, "--output", str(dst)])
        err = err.getvalue()
        if rc == 0:
            values = np.loadtxt(dst, delimiter=",", skiprows=1)
            assert values.shape == (rows, 3) and np.all(np.isfinite(values)), argv
        else:
            assert rc == 1, argv
            assert err.startswith("oscwave: ") and err.count("\n") == 1, (argv, err)


# every finite double of either sign, zero included, log-uniformly in size
_SIGNED = st.one_of(st.just(0.0), _POSITIVE, _POSITIVE.map(lambda v: -v))

_DUMPS_AND_DIRAC_FLOWS = (
    "kernel --variant mehler", "kernel --variant paper_literal",
    "kernel --variant paper_corrected", "grushin-heat", "heat-dirac",
    "wave-dirac --route direct", "wave-dirac --route oracle")


@settings(max_examples=150)
@given(command=st.sampled_from(_DUMPS_AND_DIRAC_FLOWS), a=_POSITIVE,
       t=st.one_of(st.just(0.0), _POSITIVE), lo=_SIGNED, hi=_SIGNED,
       n=st.integers(8, 16), dy=_SIGNED)
# faults this property pins: inf - inf in the Mehler and corrected
# exponents far from the origin, the shift's phase xi t and the oracle's
# growth t sqrt(R/2) at a huge t, sin(w)/w at a subnormal t, the Grushin
# cutoff search before its alias guard, a grid span past the double range
# and the Grushin alias bound at a huge t
@example(command="kernel --variant mehler", a=1.0, t=0.5, lo=-1e200, hi=1e200, n=8, dy=0.0)
@example(command="kernel --variant paper_literal", a=1.0, t=0.5, lo=-1e200, hi=1e200, n=8,
         dy=0.0)
@example(command="kernel --variant paper_corrected", a=1.0, t=1e-300, lo=-1e200, hi=1e200,
         n=8, dy=0.0)
@example(command="heat-dirac", a=1.0, t=1e308, lo=0.0, hi=1.0, n=8, dy=0.0)
@example(command="wave-dirac --route oracle", a=1.0, t=1e308, lo=0.0, hi=1.0, n=8, dy=0.0)
@example(command="wave-dirac --route oracle", a=1.0, t=1.8707653374e-313, lo=0.0, hi=1.0,
         n=8, dy=0.0)
@example(command="grushin-heat", a=1.0, t=1.4704723134816784e-274,
         lo=-2.592100298055869e+71, hi=2.592100298055869e+71, n=11, dy=1902692121.2080727)
@example(command="kernel --variant mehler", a=1.0, t=1.0, lo=-1e308, hi=1e308, n=8, dy=0.0)
@example(command="grushin-heat", a=1.0, t=3.410869852487107e+306, lo=0.0,
         hi=1.4237698195300295e+218, n=13, dy=-3.04389294e-316)
def test_dumps_and_dirac_flows_exit_cleanly_over_the_double_range(
        oscillator_csv, command, a, t, lo, hi, n, dy):
    """The matrix dumps and the first-order flows, with every numeric
    argument drawn over the doubles, under the property above."""
    argv = command.split() + ["--t", repr(t)]
    grid = ["--grid", f"{lo!r},{hi!r},{n}"]
    if command.startswith("kernel"):
        argv += ["--a", repr(a), *grid]
    elif command == "grushin-heat":
        argv += [*grid, "--dy", repr(dy)]
    else:
        argv += ["--input", str(oscillator_csv)]
    _assert_exits_cleanly(argv, rows=512 if "dirac" in command else n * n)
