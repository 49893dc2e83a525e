import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from oscwave import erfc_paper, tricomi_u, tricomi_u_deriv
from oscwave import special, verify
from oscwave.special import U_SERIES_CUTOFF, tricomi_u_small_z

SQRT_PI = np.sqrt(np.pi)


def gauss_tail(z):
    """Adaptive-quadrature oracle for the tail integral."""
    val, _ = quad(lambda u: np.exp(-u * u), z, np.inf)
    return val


def test_tail_integral_at_zero():
    assert erfc_paper(0.0) == pytest.approx(SQRT_PI / 2, abs=1e-15)


@pytest.mark.parametrize("z", [0.3, 1.0, 2.5])
def test_tail_integral_against_quadrature(z):
    assert abs(erfc_paper(z) - gauss_tail(z)) <= 1e-12


def test_tail_integral_decay():
    zs = np.linspace(0.0, 6.0, 61)
    vals = erfc_paper(zs)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)
    assert erfc_paper(6.0) <= 1e-15


def test_tail_integral_domain():
    with pytest.raises(ValueError):
        erfc_paper(-0.1)
    with pytest.raises(ValueError):
        erfc_paper(np.nan)


def test_tail_integral_against_mpmath():
    mp = pytest.importorskip("mpmath")
    zs = np.linspace(0.01, 26.0, 2001)
    got = erfc_paper(zs)
    ref = np.array([float(mp.sqrt(mp.pi) / 2 * mp.erfc(z)) for z in zs])
    assert np.max(np.abs(got - ref) / ref) <= 1e-15


def test_u_value_against_tail_identity():
    # the z=1 value follows from the tail-integral identity: U(1,3/2,1) = 2e * tail(1)
    assert abs(tricomi_u(1.0, 1.5, 1.0) - 2 * np.e * erfc_paper(1.0)) <= 1e-12


def test_u_kummer_relation_at_one():
    assert abs(tricomi_u(1.0, 1.5, 1.0) - tricomi_u(0.5, 0.5, 1.0)) <= 1e-12


def test_u_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for a, c in ((1.0, 1.5), (0.5, 0.5), (2.0, 2.5)):
        for z in (0.05, 0.3, 1.0, 4.0, 20.0):
            ref = float(mp.hyperu(a, c, z))
            assert abs(tricomi_u(a, c, z) - ref) <= 1e-12 * max(1.0, abs(ref))
        # one array call across U_SERIES_CUTOFF: every element is its scalar
        # call exactly, and the integral matches mpmath from the cutoff up
        zs = np.array([1e-14, U_SERIES_CUTOFF, 1e-3, 5.0])
        us = tricomi_u(a, c, zs)
        assert us.shape == zs.shape
        for z, u in zip(zs, us):
            assert u == tricomi_u(a, c, z)
            if z >= U_SERIES_CUTOFF:
                ref = float(mp.hyperu(a, c, z))
                assert abs(u - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("a, c, z_min", [
    (1.0, 1.5, 1e-300),
    (0.5, 0.5, 1e-300),
    # U(2, 5/2, z) ~ z^{-3/2} leaves the double range below z ~ 2.9e-206
    (2.0, 2.5, 1e-200),
    # near c = 1 the node range grows like -ln z; the node count follows it
    (1.0, 1.0, 1e-290),
    (0.99, 0.99, 1e-290),
])
def test_u_accuracy_over_the_downstream_families(a, c, z_min):
    """One z per decade from z_min to 100, plus a few z in [1, 100].

    Measured relative error on these z: at most 2.8e-15 where the integral
    is used (1.0e-15, 3.8e-16, 2.8e-15, 5.5e-16 and 6.9e-16 in the order of
    the cases), and below 1.0 z + 1e-15 where the small-z form replaces it
    (its error is O(z)), so the bounds are 1e-13 and 2 z + 1e-15.
    """
    mp = pytest.importorskip("mpmath")
    zs = np.concatenate([10.0 ** np.arange(np.log10(z_min), 2.5),
                         [1.7, 3.3, 7.9, 13.1, 31.4, 77.7]])
    got = tricomi_u(a, c, zs)
    ref = np.array([float(mp.hyperu(a, c, z)) for z in zs])
    err = np.abs(got - ref) / ref
    small = (zs < U_SERIES_CUTOFF) & (c > 1.0)
    assert np.all(err[~small] <= 1e-13)
    assert np.all(err[small] <= 2.0 * zs[small] + 1e-15)


@pytest.mark.parametrize("a, c", [
    (1.0, 1.5), (0.5, 0.5), (2.0, 2.5), (1.0, 1.0), (0.99, 0.99)])
def test_u_integral_is_within_1e_14_of_mpmath(a, c):
    """Four z per decade over [1e-12, 300], where the integral serves
    every family.  Measured worst relative error: 9.7e-16, 6.3e-16,
    2.6e-15, 1.5e-15 and 4.4e-16 in the order of the cases; a fixed
    900-node rule whose step was a difference of two nodes read 4.6e-14
    to 6.6e-14."""
    mp = pytest.importorskip("mpmath")
    zs = np.append(10.0 ** np.arange(-12.0, 2.4, 0.25), 300.0)
    got = tricomi_u(a, c, zs)
    ref = np.array([float(mp.hyperu(a, c, z)) for z in zs])
    assert np.max(np.abs(got - ref) / ref) <= 1e-14


@pytest.mark.parametrize("z", [0.25, 0.5, 1.0, 2.0, 3.0])
def test_u_tail_identity_both_forms(z):
    z2 = z * z
    first = 0.5 * z * np.exp(-z2) * tricomi_u(1.0, 1.5, z2)
    second = 0.5 * np.exp(-z2) * tricomi_u(0.5, 0.5, z2)
    assert abs(first - erfc_paper(z)) <= 1e-9
    assert abs(second - erfc_paper(z)) <= 1e-9


def test_u_derivative_against_finite_difference():
    d = tricomi_u_deriv(1.0, 1.5, 1.0)
    step = 1e-5
    fd = (tricomi_u(1.0, 1.5, 1.0 + step) - tricomi_u(1.0, 1.5, 1.0 - step)) / (2 * step)
    assert abs(d - fd) <= 1e-6
    assert tricomi_u_deriv(1.0, 1.5, 4.0) < 0


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
def test_u_derivative_chain_rule(z):
    # d/dz [ (1/2) e^{-z^2} U(1/2,1/2,z^2) ] must equal -e^{-z^2}
    z2 = z * z
    u = tricomi_u(0.5, 0.5, z2)
    du = tricomi_u_deriv(0.5, 0.5, z2)
    lhs = z * np.exp(-z2) * (du - u)
    assert abs(lhs + np.exp(-z2)) <= 1e-8


def test_u_small_z_asymptotics():
    z = 1e-5
    ratio = tricomi_u(1.0, 1.5, z) / (SQRT_PI / np.sqrt(z))
    assert abs(ratio - 1.0) <= 1e-2
    # the singular helper agrees with the full evaluation near the switch
    tiny = 1e-8
    full = tricomi_u(1.0, 1.5, tiny)
    lead = tricomi_u_small_z(1.0, 1.5, tiny)
    assert abs(full - lead) <= 1e-3 * abs(full)


def test_u_small_z_at_a_gamma_pole():
    # a - c + 1 = 0: 1/Gamma vanishes there, so the constant term drops and
    # only Gamma(1/2)/Gamma(1/2) z^{-1/2} remains
    u = tricomi_u(0.5, 1.5, 1e-13)
    assert np.isfinite(u)
    assert u == pytest.approx(1e-13 ** -0.5, rel=1e-15)


def test_u_at_the_smallest_double_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = tricomi_u(0.5, 0.5, 5e-324)
    # U(a, c, 0) = Gamma(1-c)/Gamma(a-c+1) for c < 1, here sqrt(pi)
    assert u == pytest.approx(SQRT_PI, rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", [1e-310, 1e-320, 5e-324])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_u_near_c_one_below_the_node_floor_is_right_or_refused(a, z):
    """Near c = 1 the integrand stays O(1) up to v ~ -ln z and decays only
    through e^{-z e^v} (c = 1) or e^{(c-1) v}: the node range reaches
    v = ln(60/z) at every positive double, and the step halves until the
    sum has converged.  Measured relative error at c = 1 and 0.99: at most
    3.2e-16, but 2.2e-14 at (2, 0.99), where a v + (c-a-1) ln(1+e^v)
    cancels."""
    sp = pytest.importorskip("scipy.special")
    mp = pytest.importorskip("mpmath")
    assert tricomi_u(a, 0.95, z) == pytest.approx(sp.hyperu(a, 0.95, z), rel=1e-10)
    for c in (1.0, 0.99):
        ref = float(mp.hyperu(a, c, z))
        assert tricomi_u(a, c, z) == pytest.approx(ref, rel=1e-13)
        assert tricomi_u(a, c, np.array([1.0, z]))[1] == tricomi_u(a, c, z)


def test_u_values_next_to_the_refused_range_are_unchanged():
    # U(1/2, 1/2, 0) = sqrt(pi); the smallest double is within 2 ulp of it
    u = tricomi_u(0.5, 0.5, 5e-324)
    assert u == 1.772453850905516
    assert abs(u - SQRT_PI) <= 2.0 * np.spacing(SQRT_PI)
    assert tricomi_u(0.5, 1.5, 1e-13) == 3162277.660168379
    assert np.isfinite(tricomi_u(1.0, 1.0, 1e-290))


def test_u_is_the_same_whatever_the_table_bound(monkeypatch):
    """Each z stops halving on its own and its rows sum in numpy's pairwise
    order, so a table bound that still holds each z's last row of
    midpoints, and evaluation blocks of one row each, give the same
    bits."""
    zs = np.concatenate([10.0 ** np.arange(-320.0, 2.5), [1e-12, 0.5, 77.7]])
    for a, c in ((0.5, 0.5), (1.0, 1.0), (0.99, 0.99), (2.0, 0.95)):
        wide = tricomi_u(a, c, zs)
        monkeypatch.setattr(special, "_U_BLOCK", 3000)
        monkeypatch.setattr(special, "_U_SUM_BLOCK", 50)
        narrow = tricomi_u(a, c, zs)
        monkeypatch.undo()
        assert np.array_equal(wide, narrow)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_u_beyond_the_double_range_is_refused_by_name():
    """U(2, 5/2, z) ~ 0.886 z^{-3/2} passes the largest double below
    z = 2.897e-206: smaller z raise a ValueError that names that bound, in
    place of numpy's overflow warning and an inf.  Just above it U is
    still formed, although z^{-3/2} alone would overflow there."""
    mp = pytest.importorskip("mpmath")
    for call in (lambda: tricomi_u(2.0, 2.5, 1e-300),
                 lambda: tricomi_u(2.0, 2.5, np.array([1.0, 2.8e-206])),
                 lambda: tricomi_u_small_z(2.0, 2.5, 1e-300)):
        with pytest.raises(ValueError, match="double range below z = 2.897e-206"):
            call()
    z = 3.0e-206
    assert -1.5 * np.log(z) > np.log(np.finfo(float).max)
    assert tricomi_u(2.0, 2.5, z) == pytest.approx(float(mp.hyperu(2.0, 2.5, z)), rel=1e-15)
    # U(1, 3/2, z) stays in range down to the smallest double (7.9e161)
    assert np.isfinite(tricomi_u(1.0, 1.5, 5e-324))


def test_u_domain_and_policy_validation():
    with pytest.raises(ValueError):
        tricomi_u(-1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        tricomi_u(1.0, 1.5, -2.0)


@pytest.mark.parametrize("a, c, z", [(100.0, 1.0, 100.0), (1.0, 50.0, 1.0)])
def test_u_with_a_large_parameter_reaches_past_its_peak(a, c, z, monkeypatch):
    """The integrand peaks near z e^v = max(a, c - 1).  A node range that
    ended at z e^v = 60 cut it off below its peak: these read 2.70e-226
    and 3.20e61 where mpmath reads 6.69e-226 and 3.374e61, after halving
    the step to the table bound (0.08-0.1 s).  The widened range converges
    long before a bound of 4096 nodes (0.7 ms a call)."""
    mp = pytest.importorskip("mpmath")
    got = tricomi_u(a, c, z)
    assert got == pytest.approx(float(mp.hyperu(a, c, z)), rel=1e-13)
    monkeypatch.setattr(special, "_U_BLOCK", 4096)
    assert tricomi_u(a, c, z) == got


def test_u_node_range_is_unchanged_for_the_package_families():
    """The families tricomi_u and tricomi_u_deriv meet, (1, 3/2),
    (1/2, 1/2) and (2, 5/2) and their shifts by (1, 1), keep the range end
    z e^v = 60, so their values keep their bits."""
    for a, c in ((1.0, 1.5), (0.5, 0.5), (2.0, 2.5), (1.5, 1.5), (3.0, 3.5)):
        assert special._u_reach(a, c) == 60.0
    assert special._u_reach(100.0, 1.0) > 200.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_u_whose_integrand_leaves_the_double_range_is_refused_by_name():
    with pytest.raises(ValueError, match=r"integrand of U\(100, 100, z\) passes the largest "
                                         r"double at z = 0\.001"):
        tricomi_u(100.0, 100.0, np.array([1.0, 1e-3]))
    with pytest.raises(ValueError, match=r"Gamma\(200\) in U's integral representation"):
        tricomi_u(200.0, 1.0, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_u_at_a_tiny_a_is_right_or_refused_by_name():
    """The node range starts at v = -42/a, so below a ~ 1e-4 the sum needs
    more than 2^20 nodes.  It used to stop there and return the unconverged
    sum: 5.0e-6 off mpmath at a = 1e-6 and 7.4e-6 at a = 1e-300 (c = 1/2,
    z = 1), and nan at a = 2e-308, where -42/a overflows."""
    mp = pytest.importorskip("mpmath")
    for a in (1e-2, 1e-4):
        ref = float(mp.hyperu(a, 0.5, 1.0))
        assert tricomi_u(a, 0.5, 1.0) == pytest.approx(ref, rel=1e-13)
    for a in (1e-6, 1e-300, 2e-308):
        with pytest.raises(ValueError, match=re.escape(
                f"sum of U({a:g}, 0.5, z) does not converge at z = 1")):
            tricomi_u(a, 0.5, np.array([1.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_u_with_a_node_range_past_the_double_range_sums_nothing(monkeypatch):
    """At a = 2e-308 the range start -42/a overflows, so no sum can
    converge: the call is refused before the first one, where it used to
    halve its step to 2^20 nodes first (0.04 s)."""
    def counted(*args):
        calls.append(args)
        return sums(*args)

    calls, sums = [], special._u_sums
    monkeypatch.setattr(special, "_u_sums", counted)
    with pytest.raises(ValueError, match=re.escape(
            "sum of U(2e-308, 0.5, z) does not converge at z = 1: its node range")):
        tricomi_u(2e-308, 0.5, np.array([1.0, 2.0]))
    assert calls == []
    # a = 3e-307 keeps a finite range, which is summed and then refused
    with pytest.raises(ValueError, match="does not converge at z = 1$"):
        tricomi_u(3e-307, 0.5, 1.0)
    assert len(calls) > 10


def test_u_on_c08s_arguments_keeps_its_temporaries_small():
    """The integrand is evaluated in blocks of about _U_SUM_BLOCK entries:
    on c08's 1000 z a call peaked at 8.3 MB with blocks of 2^20 entries,
    and peaks at 0.8 MB now."""
    rng = np.random.default_rng(23)
    t = rng.uniform(0.05, 2.0, 1000)
    gap = rng.uniform(0.05, 6.0, 1000)
    z = t * t / (4.0 * gap)
    tricomi_u(1.0, 1.5, z)
    tracemalloc.start()
    try:
        tricomi_u(1.0, 1.5, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_c08_does_not_reach_the_table_bound(monkeypatch):
    metrics = [r.metric for r in verify.CHECKS["wave_kernel_identity"]()]
    assert len(metrics) == 4
    monkeypatch.setattr(special, "_U_BLOCK", 2 * special._U_BLOCK)
    assert [r.metric for r in verify.CHECKS["wave_kernel_identity"]()] == metrics
