"""Verification suite: every closed-form claim is checked against an
independent route (analytic identity, spectral oracle, finite differences,
or quadrature refinement), and every check yields a VerificationReport.

The registry maps check names to functions returning lists of reports;
``run_suite`` executes a selection in order.  All checks are deterministic:
random data always comes from seeded generators.
"""

import dataclasses
import math

import numpy as np

from .dirac import (heat_dirac, spectral_wave_oracle_dirac, wave_dirac,
                    wave_kernel_forms)
from .grids import (SampledFunction, make_grid, make_report, quadrature_weights,
                    rel_l2_error, residual_convergence_order)
from .grushin import GrushinPoint, grushin_heat_kernel
from .hermite import (SpectralCoefficients, expand, hermite_fn, hermite_table,
                      reconstruct, wave_energy, wave_oracle)
from .intertwine import IntertwineParams, intertwine_residuals
from .oscillator import (OscillatorParams, _log_corrected, _log_mehler,
                         _wave_ho_times, heat_kernel, heat_ho_kernel_route,
                         heat_ho_spectral_route, heat_via_intertwining)
from .special import SQRT_PI, erfc_paper, tricomi_u, tricomi_u_deriv

CHECKS = {}


def _register(name):
    def deco(fn):
        CHECKS[name] = fn
        return fn
    return deco


def run_suite(names=None):
    """Run the named checks (default: all) and return their reports."""
    # the checks run one after another: on two threads the whole suite took
    # 54-58 ms where one thread takes 50.8 ms (2 CPUs, numpy 2.4)
    if names is None:
        names = list(CHECKS)
    reports = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
        reports.extend(CHECKS[name]())
    return reports


def suite_failed(reports):
    return any(r.verdict == "fail" for r in reports)


@_register("heat_kernel_reconciliation")
def check_heat_kernel_reconciliation():
    """The reconciled kernel variant must equal Mehler; the literal one
    must miss by the predicted ratio."""
    rng = np.random.default_rng(20240811)
    n = 10_000
    a = rng.uniform(0.2, 3.0, n)
    t = rng.uniform(0.05, 2.0, n)
    x = rng.uniform(-4.0, 4.0, n)
    xp = rng.uniform(-4.0, 4.0, n)
    # heat_kernel takes one (a, t) per call; the closed forms it
    # evaluates broadcast over all four arrays, so all points take one call
    m = np.exp(_log_mehler(a, t, x, xp))
    c = np.exp(_log_corrected(a, t, x, xp))
    worst = float(np.max(np.abs(c - m) / np.abs(m)))
    reports = [make_report(
        "corrected_kernel_equals_mehler", worst, 1.0e-12,
        notes="relative error over 1e4 random (a,t,x,x')")]
    ratio_dev = 0.0
    for ai in (0.2, 1.0, 3.0):
        p = OscillatorParams(ai, 0.7)
        lit = heat_kernel("paper_literal", p, 0.0, 0.0)
        meh = heat_kernel("mehler", p, 0.0, 0.0)
        ratio_dev = max(ratio_dev, abs(lit / meh - np.sqrt(2.0 * ai)))
    reports.append(make_report(
        "literal_kernel_ratio_sqrt2a", ratio_dev, 1.0e-12, informational=True,
        notes="literal/mehler at x=x'=0 matches sqrt(2a): the printed "
              "prefactor and exponent do not reproduce the classical kernel"))
    return reports


@_register("heat_pde_residual")
def check_heat_pde_residual():
    """Mehler-propagated Gaussian satisfies the oscillator heat equation
    at second order under joint grid/step refinement.

    Each snapshot is the kernel route, heat_ho_kernel_route, applied to
    e^{-x^2} sampled on that level's own grid [-6, 6), where the data has
    decayed to e^{-36} at the ends.  On c02's three grids at t = 0.28, 0.3
    and 0.32 it is within 3.0e-15 (pointwise relative) of a long-double
    dense Mehler sum over the same nodes.
    """
    a = 1.0

    def solution(t, xs):
        g = make_grid(-6.0, 6.0, xs.size)
        u0 = SampledFunction(g, np.exp(-g.points ** 2).astype(complex))
        return heat_ho_kernel_route(u0, OscillatorParams(a, t)).values

    order = residual_convergence_order(
        solution, "heat_ho", 0.3, a, make_grid(-6.0, 6.0, 192), 0.02)
    return [make_report(
        "heat_pde_residual_order_deficit", max(0.0, 1.9 - order), 0.0,
        notes=f"measured residual order {order:.4f} under joint h and dt "
              "halving; must reach 1.9")]


@_register("semigroup_composition")
def check_semigroup_composition():
    """Kernel-level Chapman-Kolmogorov: K(0.2) composed with K(0.3)
    reproduces K(0.5)."""
    gy = make_grid(-8.0, 8.0 + 16.0 / 1024, 1025)
    wy = quadrature_weights(gy.n) * gy.spacing
    y = gy.points
    p2 = OscillatorParams(1.0, 0.2)
    p3 = OscillatorParams(1.0, 0.3)
    p5 = OscillatorParams(1.0, 0.5)
    rng = np.random.default_rng(7)
    xv, xpv = rng.uniform(-2.0, 2.0, (25, 2)).T
    lhs = np.sum(heat_kernel("mehler", p2, xv[:, None], y)
                 * heat_kernel("mehler", p3, y, xpv[:, None]) * wy, axis=-1)
    rhs = heat_kernel("mehler", p5, xv, xpv)
    worst = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    return [make_report(
        "semigroup_chapman_kolmogorov", worst, 1.0e-6,
        notes="trapezoid on [-8,8], 1025 nodes, 25 random point pairs")]


def _criterion4_params(a, x_grid):
    # short frequency window near the branch peak; pointwise window coverage
    # keeps the check independent of the far tail, and the residual accuracy
    # is set by the node spacing, not the window length
    return IntertwineParams(a, x_grid, make_grid(0.0, 0.3, 512))


@_register("intertwining_residual")
def check_intertwining_residual():
    """T turns the oscillator into the derivative operator on tested data.

    Per coupling, the four cases (the first three eigenfunctions and a
    random 6-mode mix) are graded in one intertwine_residuals call, which
    sums both sides of the identity for all four as one 8-column phase
    sum; each case keeps its own verdict.
    """
    g = make_grid(-12.0, 12.0, 2048)
    x = g.points
    rng = np.random.default_rng(11)
    reports = []
    for a in (0.5, 1.0):
        p = _criterion4_params(a, g)
        mix = reconstruct(SpectralCoefficients(a, rng.standard_normal(6)), g)
        cases = [("h0", hermite_fn(0, a, x).astype(complex)),
                 ("h1", hermite_fn(1, a, x).astype(complex)),
                 ("h2", hermite_fn(2, a, x).astype(complex)),
                 ("random", mix.values)]
        reps = intertwine_residuals([SampledFunction(g, vals) for _, vals in cases], p)
        for (label, _), rep in zip(cases, reps):
            reports.append(dataclasses.replace(
                rep, check_name=f"intertwining_residual_a{a}_{label}"))
    return reports


@_register("heat_route_equivalence")
def check_heat_route_equivalence():
    """Kernel quadrature, spectral factorization, and substitution-operator
    conjugation all produce the same heat flow."""
    a = 1.0
    g = make_grid(-12.0, 12.0, 2048)
    rng = np.random.default_rng(5)
    f0 = reconstruct(SpectralCoefficients(a, rng.standard_normal(8)), g)
    p = OscillatorParams(a, 0.4)
    uk = heat_ho_kernel_route(f0, p)
    us = heat_ho_spectral_route(f0, p)
    ui = heat_via_intertwining(f0, p)
    pairs = [("kernel_vs_spectral", uk, us),
             ("kernel_vs_intertwine", uk, ui),
             ("spectral_vs_intertwine", us, ui)]
    return [make_report(f"heat_routes_{label}", rel_l2_error(f, h), 1.0e-5,
                        notes="a=1, t=0.4, random 8-mode data")
            for label, f, h in pairs]


@_register("eigenfunction_decay")
def check_eigenfunction_decay():
    """Kernel-route propagation of the n-th eigenfunction is pure decay
    at the n-th rate."""
    g = make_grid(-12.0, 12.0, 1536)
    x = g.points
    reports = []
    for a in (0.5, 1.0):
        p = OscillatorParams(a, 0.4)
        worst = 0.0
        for n in range(5):
            hn = hermite_fn(n, a, x)
            u = heat_ho_kernel_route(SampledFunction(g, hn.astype(complex)), p)
            expect = SampledFunction(g, (np.exp(-(2 * n + 1) * a * p.t) * hn
                                         ).astype(complex))
            worst = max(worst, rel_l2_error(u, expect))
        reports.append(make_report(
            f"eigenfunction_decay_a{a}", worst, 1.0e-7,
            notes="worst relative L2 over modes 0..4"))
    return reports


@_register("dirac_heat_exactness")
def check_dirac_heat_exactness():
    """Transport solver equals the analytic shift and composes as a group."""
    g = make_grid(-16.0, 16.0, 1024)
    X = g.points
    U0 = SampledFunction(g, np.exp(-(X ** 2)).astype(complex))
    t = 0.7
    shifted = heat_dirac(U0, t)
    exact = np.exp(-((X + t) ** 2))
    shift_err = np.max(np.abs(shifted.values - exact))
    two = heat_dirac(heat_dirac(U0, 0.3), 0.4)
    group_err = np.max(np.abs(two.values - shifted.values))
    return [
        make_report("dirac_heat_shift", shift_err, 1.0e-10,
                    notes="Gaussian data, t=0.7, against the exact translate"),
        make_report("dirac_heat_group", group_err, 1.0e-10,
                    notes="0.3 then 0.4 equals 0.7 in one step"),
    ]


@_register("wave_kernel_identity")
def check_wave_kernel_identity():
    """The two printed wave-kernel forms agree, and the special-function
    identities behind them hold."""
    rng = np.random.default_rng(23)
    n = 1000
    t = rng.uniform(0.05, 2.0, n)
    gap = rng.uniform(0.05, 6.0, n)
    w_e, w_u = wave_kernel_forms(t, gap, 0.0)
    reports = [make_report(
        "wave_kernel_two_forms", float(np.max(np.abs(w_e - w_u))), 1.0e-10,
        notes="absolute gap between the erfc and Tricomi-U forms, 1e3 points")]

    z = np.linspace(0.05, 3.0, 60)
    e = erfc_paper(z)
    f1 = 0.5 * z * np.exp(-z * z) * tricomi_u(1.0, 1.5, z * z)
    f2 = 0.5 * np.exp(-z * z) * tricomi_u(0.5, 0.5, z * z)
    reports.append(make_report(
        "erfc_tricomi_identity", max(np.max(np.abs(e - f1)),
                                     np.max(np.abs(e - f2))), 1.0e-9,
        notes="both U-representations of the Gaussian tail integral"))

    step = 1.0e-5
    fd = (tricomi_u(1.0, 1.5, 1.0 + step)
          - tricomi_u(1.0, 1.5, 1.0 - step)) / (2.0 * step)
    reports.append(make_report(
        "tricomi_derivative_identity",
        abs(tricomi_u_deriv(1.0, 1.5, 1.0) - fd), 1.0e-6,
        notes="contiguous-relation derivative vs centered difference at z=1"))

    z0 = 1.0e-5
    ratio = tricomi_u(1.0, 1.5, z0) / (SQRT_PI / np.sqrt(z0))
    reports.append(make_report(
        "tricomi_small_z_asymptotic", abs(ratio - 1.0), 1.0e-2,
        notes="U(1,3/2,z) against its leading sqrt(pi/z) behavior"))
    return reports


@_register("dirac_wave_initial_conditions")
def check_dirac_wave_initial_conditions():
    """The windowed wave solution vanishes at t=0 and approaches velocity
    V0 at the documented square-root rate."""
    g = make_grid(-6.0, 6.0, 768)
    V0 = SampledFunction(g, np.ones(g.n, dtype=complex))
    zero = wave_dirac(V0, 0.0)
    reports = [make_report("dirac_wave_zero_start",
                           float(np.max(np.abs(zero.values))), 0.0,
                           notes="V(0,.) must be identically zero")]
    interior = np.abs(g.points) <= 5.0
    ts = (1.0e-2, 1.0e-3, 1.0e-4)
    deficits = []
    for t in ts:
        V = wave_dirac(V0, t)
        deficits.append(float(np.max(np.abs(V.values / t - 1.0)[interior])))
    rates = [np.log(deficits[i] / deficits[i + 1]) / np.log(10.0)
             for i in range(2)]
    for i, r in enumerate(rates):
        reports.append(make_report(
            f"dirac_wave_deficit_rate_{i}", abs(r - 0.5), 0.1,
            notes=f"measured rate {r:.4f}; sup deficit of V/t on constant "
                  f"data decays like sqrt(t); deficits "
                  + ", ".join(f"{d:.6f}" for d in deficits)))
    reports.append(make_report(
        "dirac_wave_deficit_constant", deficits[-1] / np.sqrt(ts[-1]),
        1.596, informational=True,
        notes="deficit / sqrt(t) at t=1e-4; the closed-form windowed-wave "
              "deficit D(t) = (2/sqrt(pi))[erf_p(c) + c e^{-c^2}] - "
              "(4/sqrt(pi)) c^2 erfc_paper(c), c = sqrt(t/2), erf_p(c) = "
              "int_0^c e^{-s^2} ds, gives D(1e-4)/sqrt(1e-4) = "
              f"{_wave_deficit(ts[-1]) / math.sqrt(ts[-1]):.4f}; "
              f"~{2.0 * math.sqrt(2.0 / math.pi):.3f} is its t -> 0 limit "
              "2 sqrt(2/pi)"))
    gap = max(abs(d / _wave_deficit(t) - 1.0) for t, d in zip(ts, deficits))
    # the gaps read 9.2e-11, 4.4e-7 and 1.57e-5 at t = 1e-2, 1e-3 and 1e-4
    # (sigma-Simpson's error in the boundary layer at sigma ~ sqrt(t/2)),
    # so the tolerance leaves a 3.2x margin over the worst
    reports.append(make_report(
        "dirac_wave_deficit_closed_form", gap, 5.0e-5,
        notes="worst relative gap between the measured interior deficits "
              "and the closed form D(t) at t = 1e-2, 1e-3, 1e-4"))
    return reports


def _wave_deficit(t):
    """The closed-form deficit D(t) = 1 - V(t)/t of wave_dirac's exact
    sigma-integral on constant data V0 = 1, with c = sqrt(t/2):
    (2/sqrt(pi))[erf_p(c) + c e^{-c^2}] - (4/sqrt(pi)) c^2 erfc_paper(c),
    erf_p(c) = int_0^c e^{-s^2} ds."""
    c = math.sqrt(t / 2.0)
    erf_p = 0.5 * SQRT_PI * math.erf(c)
    return ((2.0 / SQRT_PI) * (erf_p + c * math.exp(-c * c))
            - (4.0 / SQRT_PI) * c * c * erfc_paper(c))


@_register("dirac_wave_vs_oracle")
def check_dirac_wave_vs_oracle():
    """Deviation table of the printed windowed kernel against the
    spectral-multiplier oracle; it must shrink as t -> 0."""
    g = make_grid(-16.0, 16.0, 1024)
    V0 = SampledFunction(g, np.exp(-(g.points ** 2)).astype(complex))
    rows = []
    for t in (1.0e-3, 0.1, 0.5, 1.0):
        V = wave_dirac(V0, t)
        W = spectral_wave_oracle_dirac(V0, t)
        rows.append((t, rel_l2_error(V, W)))
    reports = [make_report(
        f"dirac_wave_vs_oracle_t{t:g}", dev, 0.0, informational=True,
        notes="relative L2 deviation of the printed solution from the "
              "spectral oracle"
              + (f"; the windowed-wave deficit D(1e-3) = {_wave_deficit(t):.6f} "
                 "(see dirac_wave_deficit_constant)" if t == 1.0e-3 else ""))
        for t, dev in rows]
    reports.append(make_report(
        "dirac_wave_oracle_smallt", rows[0][1], 0.1,
        notes="the t=1e-3 row of the deviation table must be near zero"))
    monotone = all(a < b for (_, a), (_, b) in zip(rows, rows[1:]))
    reports.append(make_report(
        "dirac_wave_oracle_monotone", 0.0 if monotone else 1.0, 0.0,
        notes="deviation grows with t: "
              + ", ".join(f"t={t:g}: {d:.4f}" for t, d in rows)))
    return reports


@_register("oscillator_wave")
def check_oscillator_wave():
    """Oscillator wave: oracle conservation and residual order, then the
    corrected route's deviation table against the oracle.

    The data is h_0 + h_1, rows 0 and 1 of one Hermite table.  The oracle's
    coefficients keep their projection table, so the energy and deviation
    rows synthesize on g without building another.  The three deviation
    rows share one transform window and one forward transform
    (_wave_ho_times); only wave_dirac and the inverse run per time.
    """
    a = 1.0
    g = make_grid(-12.0, 12.0, 2048)

    def data(grid):
        h = hermite_table(1, a, grid.points)
        return SampledFunction(grid, (h[0] + h[1]).astype(complex))

    f0 = data(g)
    c = expand(f0, a, 64)

    E0 = wave_energy(c, 0.0, g)
    drift = max(abs(wave_energy(c, t, g) - E0) / abs(E0)
                for t in (0.1, 0.5, 1.0, 2.0))
    reports = [make_report("oscillator_wave_energy", drift, 1.0e-8,
                           notes="oracle energy drift over t <= 2")]

    # each level's three snapshots share one projection of the data
    projections = {}

    def osc_solution(t, xs):
        gg = make_grid(xs[0], xs[-1] + (xs[1] - xs[0]), len(xs))
        if gg not in projections:
            projections[gg] = expand(data(gg), a, 64)
        return wave_oracle(projections[gg], t, gg).values

    order = residual_convergence_order(
        osc_solution, "wave_ho", 0.4, a, make_grid(-10.0, 10.0, 256), 0.02)
    reports.append(make_report(
        "oscillator_wave_residual_order_deficit", max(0.0, 1.9 - order), 0.0,
        notes=f"measured order {order:.4f}; the oracle must satisfy the "
              "wave equation at second order"))

    times = (1.0e-3, 0.1, 0.5)
    for t, v in zip(times, _wave_ho_times(f0, a, times)):
        dev = rel_l2_error(v, wave_oracle(c, t, g))
        if t == 1.0e-3:
            reports.append(make_report(
                "oscillator_wave_smallt_row", dev, 5.0e-2,
                notes="corrected route vs oracle at t=1e-3; the windowed "
                      "kernel's sqrt(t) deficit dominates: D(1e-3) = "
                      f"{_wave_deficit(t):.6f} (see dirac_wave_deficit_constant)"))
        else:
            reports.append(make_report(
                f"oscillator_wave_vs_oracle_t{t:g}", dev, 0.0,
                informational=True,
                notes="inherited deviation of the windowed kernel, amplified "
                      "by the e^{+ax^2/2} factor at the domain edges"))
    return reports


@_register("grushin_kernel")
def check_grushin_kernel():
    """Degenerate-operator kernel: realness, point symmetry, and quadrature
    self-convergence."""
    p = GrushinPoint(0.3, 0.7, -0.2, 0.1, 0.5)
    # the real kernel at p, on the default 1025 dual nodes, is z.real
    z = grushin_heat_kernel(p, as_complex=True)
    swapped = GrushinPoint(-0.2, 0.1, 0.3, 0.7, 0.5)
    sym = abs(z.real - grushin_heat_kernel(swapped))
    v1 = grushin_heat_kernel(p, n_a=513)
    v2 = z.real
    return [
        make_report("grushin_imag_part", abs(z.imag), 1.0e-10,
                    notes="even integrand must produce a real kernel"),
        make_report("grushin_point_symmetry", sym, 1.0e-10,
                    notes="(x,y) and (x',y') interchange"),
        make_report("grushin_self_convergence", abs(v2 - v1) / abs(v2), 1.0e-8,
                    notes="relative change under doubling the dual nodes"),
    ]
