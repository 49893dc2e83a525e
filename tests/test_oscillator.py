import tracemalloc
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
    SpectralCoefficients,
    expand,
    heat_kernel,
    heat_ho_kernel_route,
    heat_ho_spectral_route,
    heat_via_intertwining,
    hermite_fn,
    hermite_table,
    make_grid,
    reconstruct,
    rel_l2_error,
    wave_dirac,
    wave_ho,
    wave_oracle,
)
from conftest import assert_close, direct_sums, phases
from oscwave import intertwine, oscillator
from oscwave.grids import quadrature_weights
from oscwave.oscillator import MIN_AT, MIN_T, TAIL_GUARD, _wave_ho_times


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_kernels_refuse_subnormal_at():
    """Below a t = 2.8e-309, 1 - e^{-4at} is subnormal and coth 2at
    overflows, so the Mehler diagonal read nan; a*t below MIN_AT is
    refused, and a*t = MIN_AT still gives the free-line limit (measured
    2.1e-14 relative on the diagonal: exp of a log near 345)."""
    x = make_grid(-1.0, 1.0, 8).points
    u = SampledFunction(make_grid(-1.0, 1.0, 8), np.ones(8))
    for variant in HEAT_KERNEL_VARIANTS:
        with pytest.raises(ValueError, match="a\\*t >= 1e-300"):
            heat_kernel(variant, OscillatorParams(1.0, 1e-320), x[:, None], x)
        with pytest.raises(ValueError, match="a\\*t >= 1e-300"):
            heat_ho_kernel_route(u, OscillatorParams(1.0, 1e-320), variant)
    t = MIN_AT
    k = heat_kernel("mehler", OscillatorParams(1.0, t), x[:, None], x)
    assert np.array_equal(k, np.diag(np.diag(k)))
    assert np.allclose(np.diag(k), 1.0 / np.sqrt(4.0 * np.pi * t), rtol=1e-13, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_kernels_refuse_t_where_their_gaussian_rate_overflows():
    """With a*t >= MIN_AT but t below ~2.8e-309 the Gaussian rate
    a coth 2at ~ 1/(2t) leaves the double range; such t are refused by
    name, while t = 1e-305 at a = 1e12 still gives the free-line limit."""
    g = make_grid(-1.0, 1.0, 8)
    x = g.points
    u = SampledFunction(g, np.ones(8))
    p = OscillatorParams(1e12, 1e-310)
    for variant in HEAT_KERNEL_VARIANTS:
        with pytest.raises(ValueError, match="closed-form kernels need t >= 1e-308"):
            heat_kernel(variant, p, x[:, None], x)
        with pytest.raises(ValueError, match="kernel route needs t >= 1e-308"):
            heat_ho_kernel_route(u, p, variant)
    # down to the bound, and on grids where -(x - x')^2/4t leaves the double
    # range (its entries underflow to 0), the kernel is the free-line limit
    wide = make_grid(-50.0, 50.0, 16)
    y = wide.points
    for t in (1e-305, MIN_T):
        for variant in ("mehler", "paper_corrected"):
            k = heat_kernel(variant, OscillatorParams(1e12, t), y[:, None], y)
            assert np.array_equal(k, np.diag(np.diag(k)))
            assert np.allclose(np.diag(k), 1.0 / np.sqrt(4.0 * np.pi * t),
                               rtol=1e-13, atol=0.0)
            # the route's quadrature of this unresolved kernel is its
            # diagonal, and the route says the width is unresolved
            u = SampledFunction(wide, np.exp(-(y / 8.0) ** 2).astype(complex))
            with pytest.warns(KernelTailWarning, match="width is unresolved"):
                out = heat_ho_kernel_route(u, OscillatorParams(1e12, t), variant)
            dense = wide.spacing * np.diag(k) * quadrature_weights(wide.n) * u.values
            assert np.allclose(out.values, dense, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", [1e-17, 1e-16, 1e-12])
def test_literal_kernel_keeps_its_digits_at_tiny_at(t):
    """e^{2at} - e^{-2at} was exactly 0 below at ~ 2.8e-17 (nan on the
    diagonal) and off by up to 11% just above; through expm1 the diagonal
    reads a sqrt(2/pi) (2 sinh 2at)^{-1/2} e^{tanh(at) x^2}, which is
    a sqrt(2/pi) / sqrt(4at) to rounding at these at."""
    a = 1.0
    x = np.array([-0.5, 0.0, 0.75])
    k = heat_kernel("paper_literal", OscillatorParams(a, t), x, x)
    want = a * np.sqrt(2.0 / np.pi) / np.sqrt(4.0 * a * t)
    assert np.allclose(k, want, rtol=1e-12, atol=0.0)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", ["mehler", "paper_corrected"])
def test_kernels_far_out_read_their_true_values_where_the_printed_exponent_is_nan(variant):
    """On a grid reaching 1e200 the printed exponents read inf - inf; the
    kernel is 0 there but at x = x' = 0 (a = 1, t = 0.5).  At a = 1e-160,
    t = 1e-140 the corrected exponent -a (x - x' r)^2/(1 - r^2)
    + (a/2)(x^2 - x'^2) reads nan at x = x' = 1e200, where the kernel is
    about (4 pi t)^{-1/2} = 2.8e69; both variants give it."""
    x = np.linspace(-1e200, 1e200, 9)
    k = heat_kernel(variant, OscillatorParams(1.0, 0.5), x[:, None], x[None, :])
    origin = heat_kernel(variant, OscillatorParams(1.0, 0.5), 0.0, 0.0)
    assert k[4, 4] == origin > 0
    k[4, 4] = 0.0
    assert np.all(k == 0.0)
    mp = pytest.importorskip("mpmath")
    a, t = mp.mpf(1e-160), mp.mpf(1e-140)
    with mp.workdps(40):
        # exp(-a x^2 (1-r)^2/(1-r^2)) with r = e^{-2at}, from expm1
        ref = float(mp.sqrt(a / mp.pi) * mp.exp(-a * t) / mp.sqrt(-mp.expm1(-4 * a * t))
                    * mp.exp(-a * (mp.mpf(1e200) * mp.expm1(-2 * a * t)) ** 2
                             / -mp.expm1(-4 * a * t)))
    k = heat_kernel(variant, OscillatorParams(1e-160, 1e-140), 1e200, 1e200)
    assert k == pytest.approx(ref, rel=1e-13)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", ["mehler", "paper_corrected"])
def test_kernel_route_convolves_each_part_on_its_own(variant):
    """The real and the imaginary part of the data are convolved apart,
    and an imaginary part that is identically zero is not convolved: the
    route of u equals route(Re u) + 1j route(Im u) bit for bit, and real
    data come out with an imaginary part of +0.0, never -0.0."""
    rng = np.random.default_rng(17)
    env = np.exp(-0.5 * GRID_K.points**2)
    re, im = (env * rng.standard_normal(GRID_K.n) for _ in range(2))
    p = OscillatorParams(1.0, 0.3)
    both = heat_ho_kernel_route(SampledFunction(GRID_K, re + 1j * im), p, variant).values
    real = heat_ho_kernel_route(SampledFunction(GRID_K, re), p, variant).values
    imag = heat_ho_kernel_route(SampledFunction(GRID_K, im), p, variant).values
    assert np.all(real.real != 0.0) and np.all(imag.real != 0.0)
    assert np.array_equal(both.real, real.real)
    assert np.array_equal(both.imag, imag.real)
    for out in (real, imag):
        assert np.all(out.imag == 0.0) and not np.any(np.signbit(out.imag))


def test_kernel_route_needs_positive_time():
    with pytest.raises(ValueError):
        heat_ho_kernel_route(_mode(0), OscillatorParams(1.0, 0.0))


def test_kernel_route_warns_on_truncated_mass():
    g = make_grid(-3.0, 3.0, 256)
    u = SampledFunction(g, hermite_fn(0, 1.0, g.points).astype(complex))
    with pytest.warns(KernelTailWarning, match="truncates"):
        heat_ho_kernel_route(u, OscillatorParams(1.0, 0.5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t, estimate", [(1e-3, 3.15e-8), (3e-4, 9.12e-3), (1e-4, 3.33e-1)])
def test_kernel_route_warns_on_an_unresolved_width(t, estimate):
    """On [-12, 12) with 512 nodes the Gaussian factor's Poisson estimate
    tracks the route's error against the oracle (3.2e-8, 9.1e-3, 0.333);
    the warning leaves the output's bits alone."""
    g = make_grid(-12.0, 12.0, 512)
    u = SampledFunction(g, np.exp(-g.points**2 / 2).astype(complex))
    p = OscillatorParams(1.0, t)
    with pytest.warns(KernelTailWarning, match=f"width is unresolved.*{estimate:.2e}"):
        out = heat_ho_kernel_route(u, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelTailWarning)
        assert np.array_equal(out.values, heat_ho_kernel_route(u, p).values)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", ["mehler", "paper_corrected"])
def test_kernel_route_is_quiet_on_a_resolved_width(variant):
    # the literal variant's Gaussian factor grows (B < 0): no width to resolve
    g = make_grid(-12.0, 12.0, 512)
    u = SampledFunction(g, np.exp(-g.points**2 / 2).astype(complex))
    for t in (3e-3, 0.4, 5.0):
        heat_ho_kernel_route(u, OscillatorParams(1.0, t), variant)


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


def test_spectral_route_transforms_its_data_once(monkeypatch):
    """The band-limit guard reads the spectrum the route goes on to use."""
    calls = []
    forward_ft = oscillator.forward_ft

    def counted(f):
        calls.append(f.grid)
        return forward_ft(f)

    monkeypatch.setattr(oscillator, "forward_ft", counted)
    monkeypatch.setattr(intertwine, "forward_ft", counted)
    u0 = SampledFunction(GRID_S, hermite_fn(0, 1.0, GRID_S.points).astype(complex))
    heat_ho_spectral_route(u0, OscillatorParams(1.0, 0.35))
    assert calls == [GRID_S]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_undamping_overflow_far_out_keeps_masked_samples_zero():
    """At a = 24 on [-12, 12), e^{ax^2/2} overflows past |x| = 7.7.  The
    spectral route has masked every sample there and returns zeros (it
    read nan with an overflow warning); T's inverse keeps noise above its
    floor there and refuses by name."""
    u0 = _c05_data(512)
    p = OscillatorParams(24.0, 0.01)
    out = heat_ho_spectral_route(u0, p)
    far = np.abs(u0.grid.points) > np.sqrt(2.0 * 709.8 / 24.0)
    assert np.any(far) and not np.any(out.values[far])
    assert rel_l2_error(out, heat_ho_kernel_route(u0, p)) <= 1e-4
    with pytest.raises(ValueError, match="overflows at a = 24 where"):
        heat_via_intertwining(u0, p)


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


def _count_table_builds(monkeypatch):
    """Rows of every _phase_tables build from here on, in call order."""
    builds = []
    build = intertwine._phase_tables

    def counted(xi, grid):
        builds.append(len(xi))
        return build(xi, grid)

    monkeypatch.setattr(intertwine, "_phase_tables", counted)
    return builds


def test_a_transform_window_builds_its_phase_tables_once(monkeypatch):
    """wave_ho's forward and inverse sums run at the window's own nodes and
    share one table set.  heat_via_intertwining steps its window by t/s, so
    the contracted nodes are rows s.. of the same set: one build of N + s
    rows, and of the N window rows alone at t = 0."""
    builds = _count_table_builds(monkeypatch)
    g = make_grid(-8.0, 8.0, 256)
    v0 = SampledFunction(g, np.exp(-g.points**2).astype(complex))
    wave_ho(v0, OscillatorParams(1.0, 0.1))
    assert builds == [intertwine.X_NODES]
    X = intertwine.derive_params(1.0, g, v0).X_grid
    s = int(np.ceil(0.1 / X.spacing))
    n = int(np.ceil((X.x_max - X.x_min) / (0.1 / s)))
    assert n >= intertwine.X_NODES and n + s < 2 * intertwine.X_NODES
    builds.clear()
    heat_via_intertwining(v0, OscillatorParams(1.0, 0.1))
    assert builds == [n + s]
    builds.clear()
    heat_via_intertwining(v0, OscillatorParams(1.0, 0.0))
    assert builds == [intertwine.X_NODES]


def test_wave_times_share_one_window_and_forward_transform(monkeypatch):
    """_wave_ho_times at c11's three times builds one phase-table set and
    one forward transform, and each result equals its own wave_ho call bit
    for bit."""
    g = make_grid(-8.0, 8.0, 256)
    v0 = SampledFunction(g, (np.exp(-g.points**2) * (1.0 + g.points)).astype(complex))
    times = (1.0e-3, 0.1, 0.5)
    separate = [wave_ho(v0, OscillatorParams(1.0, t)).values for t in times]
    builds = _count_table_builds(monkeypatch)
    forwards = []
    branch_transform = oscillator._branch_transform

    def counted(*args):
        forwards.append(args)
        return branch_transform(*args)

    monkeypatch.setattr(oscillator, "_branch_transform", counted)
    shared = _wave_ho_times(v0, 1.0, times)
    assert builds == [intertwine.X_NODES] and len(forwards) == 1
    for got, want in zip(shared, separate):
        assert np.array_equal(got.values, want)


def test_wave_times_build_one_tap_vector_per_time(monkeypatch):
    """Per time, _wave_ho_times builds wave_dirac's taps once and convolves
    both branches with them; each result is still the inverse of
    wave_dirac on each branch, bit for bit."""
    g = make_grid(-8.0, 8.0, 256)
    v0 = SampledFunction(g, (np.exp(-g.points**2) * (1.0 - 0.5j * g.points)).astype(complex))
    times = (1.0e-3, 0.1, 0.5)
    ip = intertwine.derive_params(1.0, g, v0)
    b = intertwine._branch_transform(intertwine._damped(v0, 1.0), ip)
    want = [intertwine.apply_T_inverse(
        intertwine.BranchPair(wave_dirac(b.plus, t), wave_dirac(b.minus, t)), ip).values
        for t in times]
    builds = []
    wave_taps = oscillator._wave_taps

    def counted(grid, t):
        builds.append(t)
        return wave_taps(grid, t)

    monkeypatch.setattr(oscillator, "_wave_taps", counted)
    got = _wave_ho_times(v0, 1.0, times)
    assert builds == list(times)
    for g_k, w_k in zip(got, want):
        assert np.array_equal(g_k.values, w_k)


def test_wave_branches_equal_the_guarded_transform_on_derived_windows(monkeypatch):
    """The wave route forwards its data unguarded: derive_params covers
    1.5 times the data's last live frequency, so on its window apply_T's
    coverage guard holds and gives the same branches bit for bit."""
    seen = []
    branch_transform = oscillator._branch_transform

    def recorded(damped, p):
        seen.append((p, branch_transform(damped, p)))
        return seen[-1][1]

    monkeypatch.setattr(oscillator, "_branch_transform", recorded)
    rng = np.random.default_rng(18)
    for n, half, a in ((256, 10.0, 0.5), (512, 12.0, 1.0), (512, 8.0, 2.0)):
        g = make_grid(-half, half, n)
        x = g.points
        mix = reconstruct(SpectralCoefficients(a, rng.standard_normal(8)), g)
        width, center = rng.uniform(0.3, 1.5), rng.uniform(-2.0, 2.0)
        bump = np.exp(-(((x - center) / width) ** 2) + 1j * rng.uniform(-2.0, 2.0) * x)
        for v0 in (mix, SampledFunction(g, bump)):
            seen.clear()
            _wave_ho_times(v0, a, (0.1,))
            (p, b), = seen
            guarded = intertwine.apply_T(v0, p)
            assert np.array_equal(b.plus.values, guarded.plus.values)
            assert np.array_equal(b.minus.values, guarded.minus.values)


def test_wave_times_keep_the_single_call_shortcuts(monkeypatch):
    """t = 0 entries and zero data give zeros, and no window is built
    unless some t is nonzero."""
    g = make_grid(-8.0, 8.0, 256)
    v0 = SampledFunction(g, np.exp(-g.points**2).astype(complex))
    builds = _count_table_builds(monkeypatch)
    zero_t = _wave_ho_times(v0, 1.0, (0.0, 0.0))
    zero_data = _wave_ho_times(SampledFunction(g, np.zeros(g.n)), 1.0, (0.1,))
    assert builds == []
    for out in zero_t + zero_data:
        assert out.grid == g and not np.any(out.values)
    mixed = _wave_ho_times(v0, 1.0, (0.0, 0.1))
    assert not np.any(mixed[0].values)
    assert np.array_equal(mixed[1].values, wave_ho(v0, OscillatorParams(1.0, 0.1)).values)


def _c05_data(n):
    g = make_grid(-12.0, 12.0, n)
    coeffs = SpectralCoefficients(1.0, np.random.default_rng(5).standard_normal(8))
    return reconstruct(coeffs, g)


@pytest.mark.parametrize("t", [1.0e-3, 40.0])
def test_heat_times_that_cannot_be_aligned_share_one_build(t, monkeypatch):
    """t = 1e-3 is under half an X step (aligning would need ~20000 rows),
    and a t = 40 reaches past the window (s >= N): both keep the derived
    window and build its nodes and the contracted ones in one call of
    2 X_NODES rows, and still agree with the kernel route to c05's gate.
    At t = 1e-3 the 512-node grid leaves the kernel's width unresolved
    (estimated 3.2e-8), which the kernel route reports."""
    builds = _count_table_builds(monkeypatch)
    u0 = _c05_data(512)
    p = OscillatorParams(1.0, t)
    ui = heat_via_intertwining(u0, p)
    assert builds == [2 * intertwine.X_NODES]
    with (pytest.warns(KernelTailWarning, match="width is unresolved") if t < 1.0
          else warnings.catch_warnings()):
        uk = heat_ho_kernel_route(u0, p)
    assert rel_l2_error(uk, ui) <= 1e-5


def test_a_heat_call_keeps_its_phase_tables_small():
    """One heat_via_intertwining call on c05's 2048-point data at t = 0.4
    peaked at 4.88 MB of traced memory with complex tables over every J
    and r; with cos and sin at J, r >= 0 only it measures 3.70 MB."""
    u0 = _c05_data(2048)
    p = OscillatorParams(1.0, 0.4)
    heat_via_intertwining(u0, p)
    tracemalloc.start()
    try:
        heat_via_intertwining(u0, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.3e6


def test_shared_rows_match_a_long_double_direct_sum():
    """The forward sums at the contracted nodes (rows [s, N + s) of the one
    table set) and the window's inverse sums (rows [0, N)) against every
    term e^{-i xi x}, summed by conftest's exact plain-double references.
    The contracted frequencies are the window's own frequencies moved s
    rows along, bit for bit."""
    rng = np.random.default_rng(128)
    g = make_grid(-8.0, 8.0, 128)
    v0 = SampledFunction(g, np.exp(-g.points**2).astype(complex))
    t = 0.1
    ip = intertwine.derive_params(1.0, g, v0)
    window, xi, tables = intertwine._transport_rows(ip, t)
    X = window.X_grid
    s = int(np.ceil(t / ip.X_grid.spacing))
    assert X.x_min == ip.X_grid.x_min and X.spacing <= ip.X_grid.spacing
    assert s * X.spacing == pytest.approx(t, rel=1e-13)
    assert np.array_equal(xi[:-s], window.xi_nodes[s:])
    assert np.array_equal(xi, np.exp(-2.0 * (X.x_min + X.spacing * np.arange(s, X.n + s))))

    values = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    scale = g.spacing / np.sqrt(2.0 * np.pi)
    g_plus, g_minus = intertwine._phase_sums(values, g, xi, tables)
    want_plus, want_minus = direct_sums(phases(xi, g.x_min, g.spacing, g.n), values)
    assert_close(g_plus, scale * want_plus)
    assert_close(g_minus, scale * want_minus)

    c = rng.normal(size=X.n) + 1j * rng.normal(size=X.n)
    zero = np.zeros(X.n, dtype=complex)
    at_phase, at_conj = direct_sums(
        phases(window.xi_nodes, g.x_min, g.spacing, g.n).swapaxes(1, 2), c)
    assert_close(intertwine._inverse_phase_sums(g, c, zero, window.phase_tables), at_conj)
    assert_close(intertwine._inverse_phase_sums(g, zero, c, window.phase_tables), at_phase)


def test_conjugated_wave_keeps_its_phase_tables_unbiased():
    """wave_ho against the 128-mode oracle on CI's data at a = 0.5, t = 0.4.

    The inverse multiplies by e^{ax^2/2}, up to e^{20} at |x| = 9, so a
    bias in the phase tables' angles shows far out.  Rounding each entry
    as int64 turns times the double nearest 2pi/2^64, which sits 3.9e-17
    below the true step, shrinks every angle alike: the deviation then
    measured 187 times the oracle's peak.  With each entry rounded once
    from an exact product it measures 0.53, the windowed kernel's own
    deviation.
    """
    v0 = _c05_data(512)
    a, t = 0.5, 0.4
    got = wave_ho(v0, OscillatorParams(a, t)).values
    want = wave_oracle(expand(v0, a, 128), t, v0.grid).values
    inside = np.abs(v0.grid.points) <= 9.0
    peak = np.max(np.abs(want[inside]))
    assert np.max(np.abs(got[inside] - want[inside])) <= 1.0 * peak


def test_wave_starts_at_zero():
    g = make_grid(-8.0, 8.0, 256)
    v0 = SampledFunction(g, np.exp(-g.points**2).astype(complex))
    out = wave_ho(v0, OscillatorParams(1.0, 0.0))
    assert np.max(np.abs(out.values)) == 0.0
