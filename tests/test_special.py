import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from oscwave import erfc_paper, tricomi_u, tricomi_u_deriv
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
    # U(2, 5/2, z) ~ z^{-3/2} leaves the double range below z ~ 1e-205
    (2.0, 2.5, 1e-200),
])
def test_u_accuracy_over_the_downstream_families(a, c, z_min):
    """One z per decade from z_min to 100, plus a few z in [1, 100].

    Measured relative error on these z: at most 6.7e-14 where the integral
    is used, and below 1.0 z + 1e-15 where the small-z form replaces it
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


@pytest.mark.parametrize("z", [1e-310, 1e-320])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_u_near_c_one_below_the_node_floor_is_right_or_refused(a, z):
    sp = pytest.importorskip("scipy.special")
    # c = 0.95: the floored node range still reaches e^{-34.7} of the tail
    assert tricomi_u(a, 0.95, z) == pytest.approx(sp.hyperu(a, 0.95, z), rel=1e-10)
    # c = 1 decays only through e^{-z e^v}; c = 0.99 like e^{-0.01 v}
    for c in (1.0, 0.99):
        with pytest.raises(ValueError, match="not supported"):
            tricomi_u(a, c, z)
        with pytest.raises(ValueError, match="not supported"):
            tricomi_u(a, c, np.array([1.0, z]))


def test_u_values_next_to_the_refused_range_are_unchanged():
    assert tricomi_u(0.5, 0.5, 5e-324) == 1.772453850905574
    assert tricomi_u(0.5, 1.5, 1e-13) == 3162277.660168379
    # just above the floor c = 1 is still integrated
    assert np.isfinite(tricomi_u(1.0, 1.0, 1e-290))


def test_u_domain_and_policy_validation():
    with pytest.raises(ValueError):
        tricomi_u(-1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        tricomi_u(1.0, 1.5, -2.0)
