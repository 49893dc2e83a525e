import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscwave import (
    HEAT_KERNEL_VARIANTS,
    KernelTailWarning,
    OscillatorParams,
    SampledFunction,
    heat_kernel,
    heat_ho_kernel_route,
    heat_ho_spectral_route,
    heat_via_intertwining,
    hermite_fn,
    hermite_table,
    make_grid,
    rel_l2_error,
    wave_ho,
)
from oscwave import intertwine, oscillator
from oscwave.grids import quadrature_weights
from oscwave.oscillator import TAIL_GUARD


def test_variant_tables():
    assert HEAT_KERNEL_VARIANTS == ("mehler", "paper_literal", "paper_corrected")


def test_params_validation():
    OscillatorParams(1.0, 0.0)
    with pytest.raises(ValueError):
        OscillatorParams(0.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, -0.1)
    with pytest.raises(ValueError):
        OscillatorParams(100.0, 4.0)


def test_kernel_point_value():
    k = heat_kernel("mehler", OscillatorParams(1.0, 0.3), 0.0, 0.0)
    assert k == pytest.approx(np.sqrt(1.0 / (2.0 * np.pi * np.sinh(0.6))), rel=1e-12)


def test_kernel_rejects_bad_requests():
    with pytest.raises(ValueError):
        heat_kernel("mehler", OscillatorParams(1.0, 0.0), 0.0, 0.0)
    with pytest.raises(ValueError):
        heat_kernel("gaussian", OscillatorParams(1.0, 0.3), 0.0, 0.0)


def test_corrected_variant_equals_mehler():
    rng = np.random.default_rng(7)
    for t in (0.1, 0.3, 0.5, 2.0):
        for a in (0.5, 1.0, 2.0):
            p = OscillatorParams(a, t)
            x = rng.uniform(-3, 3, 200)
            xp = rng.uniform(-3, 3, 200)
            km = heat_kernel("mehler", p, x, xp)
            kc = heat_kernel("paper_corrected", p, x, xp)
            assert np.max(np.abs(km - kc) / km) <= 1e-12


def test_literal_variant_is_off_by_sqrt_2a_at_the_origin():
    for a in (0.5, 1.0, 3.0):
        p = OscillatorParams(a, 0.4)
        ratio = heat_kernel("paper_literal", p, 0.0, 0.0) / heat_kernel(
            "mehler", p, 0.0, 0.0
        )
        assert ratio == pytest.approx(np.sqrt(2.0 * a), rel=1e-12)


@settings(max_examples=25)
@given(
    x=st.floats(-3, 3),
    xp=st.floats(-3, 3),
    t=st.floats(0.1, 2.0),
    a=st.floats(0.5, 2.0),
)
def test_kernel_symmetry(x, xp, t, a):
    p = OscillatorParams(a, t)
    km = heat_kernel("mehler", p, x, xp)
    assert abs(km - heat_kernel("mehler", p, xp, x)) <= 1e-14 * km
    kc = heat_kernel("paper_corrected", p, x, xp)
    assert abs(kc - heat_kernel("paper_corrected", p, xp, x)) <= 1e-13 * kc


@settings(max_examples=25)
@given(
    x=st.floats(-4, 4),
    xp=st.floats(-4, 4),
    t=st.floats(0.05, 3.0),
)
def test_kernel_positivity(x, xp, t):
    p = OscillatorParams(1.0, t)
    for variant in HEAT_KERNEL_VARIANTS:
        assert heat_kernel(variant, p, x, xp) > 0.0


def test_kernels_survive_long_times():
    p = OscillatorParams(1.0, 250.0)
    for variant in HEAT_KERNEL_VARIANTS:
        k = heat_kernel(variant, p, 0.4, -0.3)
        assert np.isfinite(k) and k > 0.0


@pytest.mark.parametrize("at", [1e-17, 1e-13])
def test_kernels_reach_the_free_line_limit_at_small_at(at):
    """As at -> 0 the oscillator kernel tends to the free heat kernel
    (4 pi t)^{-1/2} e^{-(x-x')^2/4t}; the gap is O((at)^2), far below
    rounding here, so only cancellation in 1 - e^{-4at} could show."""
    t, x, xp = 0.1, 0.3, -0.2
    free = np.exp(-((x - xp) ** 2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)
    p = OscillatorParams(at / t, t)
    for variant in ("mehler", "paper_corrected"):
        k = heat_kernel(variant, p, x, xp)
        assert abs(k - free) <= 1e-13 * free, variant


def test_mehler_keeps_its_digits_far_from_the_origin():
    """Near the diagonal at x ~ 20 and at = 1e-3 the printed exponent
    -(a/2) coth 2at (x^2 + x'^2) + a x x'/sinh 2at adds two terms of size
    ~2e5 that cancel to O(1), which costs ~5e-11 of the kernel; the
    regrouped exponent stays at rounding against mpmath."""
    mp = pytest.importorskip("mpmath")
    a, t = 1.0, 1.0e-3
    x = np.repeat(np.arange(18.0, 22.0, 1.0 / 16.0), 4)
    xp = x + np.tile([0.0, 0.01, 0.05, 0.1], x.size // 4)

    def exact(u, v):
        u, v, A, T = mp.mpf(u), mp.mpf(v), mp.mpf(a), mp.mpf(t)
        s = mp.sinh(2 * A * T)
        return mp.sqrt(A / (2 * mp.pi * s)) * mp.exp(
            -(A / 2) * mp.coth(2 * A * T) * (u * u + v * v) + A * u * v / s)

    with mp.workdps(40):
        ref = np.array([float(exact(u, v)) for u, v in zip(x, xp)])
    k = heat_kernel("mehler", OscillatorParams(a, t), x, xp)
    assert np.max(np.abs(k - ref) / ref) <= 1e-14


def test_mode_sum_reproduces_the_kernel():
    """Truncated eigenfunction sum against the closed form; 50 modes at
    at = 0.3 leave a remainder below machine noise on [-3, 3]."""
    xs = np.linspace(-3.0, 3.0, 21)
    T = hermite_table(50, 1.0, xs)
    lam = np.exp(np.array([-(2 * n + 1) * 0.3 for n in range(51)]))
    K_series = (T.T * lam) @ T
    K_closed = heat_kernel(
        "mehler", OscillatorParams(1.0, 0.3), xs[:, None], xs[None, :]
    )
    assert np.max(np.abs(K_series - K_closed)) <= 1e-8


GRID_K = make_grid(-10.0, 10.0, 1024)


def _mode(n, grid=GRID_K):
    return SampledFunction(grid, hermite_fn(n, 1.0, grid.points).astype(complex))


def test_kernel_route_damps_the_ground_state():
    out = heat_ho_kernel_route(_mode(0), OscillatorParams(1.0, 0.35))
    target = SampledFunction(GRID_K, np.exp(-0.35) * _mode(0).values)
    assert rel_l2_error(out, target) <= 1e-12


def test_kernel_route_damps_mode_two_at_5a():
    out = heat_ho_kernel_route(_mode(2), OscillatorParams(1.0, 0.2))
    target = SampledFunction(GRID_K, np.exp(-1.0) * _mode(2).values)
    assert rel_l2_error(out, target) <= 1e-12


def test_kernel_route_composes():
    combo = SampledFunction(GRID_K, _mode(0).values + 0.5 * _mode(2).values)
    two = heat_ho_kernel_route(
        heat_ho_kernel_route(combo, OscillatorParams(1.0, 0.25)),
        OscillatorParams(1.0, 0.15),
    )
    one = heat_ho_kernel_route(combo, OscillatorParams(1.0, 0.4))
    assert rel_l2_error(two, one) <= 1e-12


def test_kernel_route_needs_positive_time():
    with pytest.raises(ValueError):
        heat_ho_kernel_route(_mode(0), OscillatorParams(1.0, 0.0))


def test_kernel_route_warns_on_truncated_mass():
    g = make_grid(-3.0, 3.0, 256)
    u = SampledFunction(g, hermite_fn(0, 1.0, g.points).astype(complex))
    with pytest.warns(KernelTailWarning, match="truncates"):
        heat_ho_kernel_route(u, OscillatorParams(1.0, 0.5))


def _dense_integrand(u0, p, variant="mehler"):
    x = u0.grid.points
    return heat_kernel(variant, p, x[:, None], x[None, :]) * u0.values[None, :]


def _dense_route(u0, p, variant):
    # the quadrature against the pointwise closed form, term by term
    w = quadrature_weights(u0.grid.n)
    return u0.grid.spacing * (_dense_integrand(u0, p, variant) @ w)


def _dense_edge_and_peak(u0, p):
    integrand = np.abs(_dense_integrand(u0, p))
    return max(integrand[:, 0].max(), integrand[:, -1].max()), integrand.max()


def _dense_tail_message(u0, p):
    # the guard as the route applied it to the dense integrand
    edge, peak = _dense_edge_and_peak(u0, p)
    if peak > 0.0 and edge > TAIL_GUARD * peak:
        return (f"kernel quadrature tail is {edge / peak:.2e} of the integrand "
                "peak; the grid truncates live mass")
    return None


def _route_tail_message(u0, p):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        heat_ho_kernel_route(u0, p)
    tails = [str(w.message) for w in caught
             if issubclass(w.category, KernelTailWarning)]
    assert len(tails) <= 1 and len(caught) == len(tails)
    return tails[0] if tails else None


@pytest.mark.parametrize("variant", HEAT_KERNEL_VARIANTS)
@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("at", [1e-3, 0.4, 5.0])
def test_kernel_route_matches_the_dense_quadrature(variant, a, at):
    g = make_grid(-12.0, 12.0, 512)
    coef = np.random.default_rng(17).standard_normal((2, 6))
    vals = sum((coef[0, k] + 1j * coef[1, k]) * hermite_fn(k, a, g.points)
               for k in range(6))
    u0 = SampledFunction(g, vals)
    p = OscillatorParams(a, at / a)
    with np.errstate(over="ignore", invalid="ignore"):
        dense = _dense_route(u0, p, variant)
    if not np.all(np.isfinite(dense)):
        # the literal form overflows at small at, densely as well
        assert variant == "paper_literal"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="paper_literal kernel overflows"):
                heat_ho_kernel_route(u0, p, variant=variant)
        return
    with warnings.catch_warnings():
        # the literal form grows toward the grid ends
        warnings.simplefilter("ignore", KernelTailWarning)
        out = heat_ho_kernel_route(u0, p, variant=variant)
    assert rel_l2_error(out, SampledFunction(g, dense)) <= 1e-12


@pytest.mark.parametrize("at", [1e-3, 1e-2])
def test_kernel_route_keeps_its_digits_far_from_the_origin(at):
    # the corrected form's completed square stays accurate at x ~ 20 and
    # small at, where adding its x^2 and x x' coefficients in floating
    # point would cost ~1e-11
    g = make_grid(18.0, 22.0, 256)
    u0 = SampledFunction(g, np.exp(-((g.points - 20.0) / 0.3) ** 2 + 0.5j * g.points))
    p = OscillatorParams(1.0, at)
    out = heat_ho_kernel_route(u0, p, variant="paper_corrected")
    dense = _dense_route(u0, p, "paper_corrected")
    assert rel_l2_error(out, SampledFunction(g, dense)) <= 1e-12


def test_kernel_route_never_builds_the_dense_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense kernel evaluated")

    monkeypatch.setattr(oscillator, "heat_kernel", refuse)
    out = heat_ho_kernel_route(_mode(0), OscillatorParams(1.0, 0.35))
    target = SampledFunction(GRID_K, np.exp(-0.35) * _mode(0).values)
    assert rel_l2_error(out, target) <= 1e-12


def _bump(g, sigma, center):
    x = g.points
    return SampledFunction(
        g, np.exp(-0.5 * ((x - center) / sigma) ** 2 + 0.7j * x))


@pytest.mark.parametrize("half_span", [3.0, 4.5, 6.0, 8.0, 10.0, 12.0])
def test_tail_guard_decisions_match_the_dense_guard(half_span):
    g = make_grid(-half_span, half_span, 256)
    for t in (0.05, 0.2, 0.5, 1.0, 2.0):
        p = OscillatorParams(1.0, t)
        for sigma, center in ((0.6, 0.0), (1.0, 0.0), (1.0, 1.5), (1.6, -2.0)):
            u0 = _bump(g, sigma, center)
            assert _route_tail_message(u0, p) == _dense_tail_message(u0, p)


def _ratio(u0, p):
    edge, peak = _dense_edge_and_peak(u0, p)
    return edge / peak


@pytest.mark.parametrize("half_span, t, center",
                         [(6.0, 0.05, 0.0), (8.0, 0.5, 1.0), (7.0, 2.0, -3.0)])
def test_tail_guard_just_either_side_of_the_threshold(half_span, t, center):
    # bisect the bump width until the dense edge/peak ratio sits at the guard
    g = make_grid(-half_span, half_span, 256)
    p = OscillatorParams(1.0, t)
    lo, hi = 0.05, 4.0
    assert _ratio(_bump(g, lo, center), p) < TAIL_GUARD < _ratio(_bump(g, hi, center), p)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _ratio(_bump(g, mid, center), p) < TAIL_GUARD:
            lo = mid
        else:
            hi = mid
    below, above = _bump(g, lo * (1 - 1e-4), center), _bump(g, hi * (1 + 1e-4), center)
    assert _ratio(below, p) < TAIL_GUARD * (1 - 1e-6)
    assert _ratio(above, p) > TAIL_GUARD * (1 + 1e-6)
    assert _route_tail_message(below, p) is None
    assert _dense_tail_message(below, p) is None
    message = _route_tail_message(above, p)
    assert message is not None and message == _dense_tail_message(above, p)


GRID_S = make_grid(-12.0, 12.0, 2048)


def test_spectral_route_damps_the_ground_state():
    u0 = SampledFunction(GRID_S, hermite_fn(0, 1.0, GRID_S.points).astype(complex))
    out = heat_ho_spectral_route(u0, OscillatorParams(1.0, 0.35))
    target = SampledFunction(GRID_S, np.exp(-0.35) * u0.values)
    assert rel_l2_error(out, target) <= 1e-6


def test_spectral_route_small_time_limit():
    x = GRID_S.points
    u0 = SampledFunction(GRID_S, ((1 + 0.3 * x) * np.exp(-(x**2) / 2)).astype(complex))
    out = heat_ho_spectral_route(u0, OscillatorParams(1.0, 1e-4))
    assert np.max(np.abs(out.values - u0.values)) <= 1e-3


def test_spectral_route_rejects_unresolved_data():
    g = make_grid(-12.0, 12.0, 256)
    sharp = SampledFunction(g, np.exp(-20 * g.points**2).astype(complex))
    with pytest.raises(ValueError, match="band-limited"):
        heat_ho_spectral_route(sharp, OscillatorParams(1.0, 0.1))


GRID_I = make_grid(-6.2, 6.2, 2048)


def test_intertwining_route_damps_the_ground_state():
    u0 = SampledFunction(GRID_I, hermite_fn(0, 1.0, GRID_I.points).astype(complex))
    out = heat_via_intertwining(u0, OscillatorParams(1.0, 0.35))
    target = SampledFunction(GRID_I, np.exp(-0.35) * u0.values)
    assert rel_l2_error(out, target) <= 1e-7


def test_intertwining_route_time_zero_round_trip():
    u0 = SampledFunction(GRID_I, hermite_fn(0, 1.0, GRID_I.points).astype(complex))
    out = heat_via_intertwining(u0, OscillatorParams(1.0, 0.0))
    assert rel_l2_error(out, u0) <= 1e-7


def test_zero_data_propagates_to_zero():
    g = make_grid(-8.0, 8.0, 256)
    z = SampledFunction(g, np.zeros(g.n, dtype=complex))
    p = OscillatorParams(1.0, 0.4)
    assert np.max(np.abs(heat_via_intertwining(z, p).values)) == 0.0
    assert np.max(np.abs(wave_ho(z, p).values)) == 0.0


def test_a_transform_window_builds_its_phase_tables_once(monkeypatch):
    """wave_ho's forward and inverse sums run at the window's own nodes and
    share one table set; heat_via_intertwining's forward sum reads the
    contracted nodes, which need a set of their own."""
    builds = []
    build = intertwine._phase_tables

    def counted(xi, grid):
        builds.append(len(xi))
        return build(xi, grid)

    monkeypatch.setattr(intertwine, "_phase_tables", counted)
    g = make_grid(-8.0, 8.0, 256)
    v0 = SampledFunction(g, np.exp(-g.points**2).astype(complex))
    wave_ho(v0, OscillatorParams(1.0, 0.1))
    assert len(builds) == 1
    builds.clear()
    heat_via_intertwining(v0, OscillatorParams(1.0, 0.1))
    assert len(builds) == 2


def test_wave_starts_at_zero():
    g = make_grid(-8.0, 8.0, 256)
    v0 = SampledFunction(g, np.exp(-g.points**2).astype(complex))
    out = wave_ho(v0, OscillatorParams(1.0, 0.0))
    assert np.max(np.abs(out.values)) == 0.0
