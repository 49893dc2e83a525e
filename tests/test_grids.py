import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erf

from oscwave import (
    SampledFunction,
    fd_residual,
    make_grid,
    make_report,
    quadrature,
    quadrature_weights,
    rel_l2_error,
    residual_convergence_order,
)
from oscwave.grids import VerificationReport

from conftest import closed_span_grid


def test_half_open_layout():
    g = make_grid(-2.0, 2.0, 16)
    assert g.spacing == 0.25
    assert g.points[0] == -2.0
    assert g.points[-1] == pytest.approx(2.0 - 0.25)
    assert len(g.points) == 16


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(0.0, 0.0, 64)
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0, 64)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        make_grid(np.inf, 1.0, 64)


def test_sampled_function_rejects_bad_values():
    g = make_grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        SampledFunction(g, np.zeros(15))
    with pytest.raises(ValueError):
        SampledFunction(g, np.full(16, np.nan))


def test_quadrature_constant():
    g = closed_span_grid(0.0, 1.0, 101)
    q = quadrature(SampledFunction(g, np.ones_like(g.points)))
    assert abs(q - 1.0) <= 1e-14


def test_quadrature_odd_function():
    g = closed_span_grid(-1.0, 1.0, 201)
    q = quadrature(SampledFunction(g, g.points))
    assert abs(q) <= 1e-12


def test_quadrature_gaussian_against_closed_form():
    g = closed_span_grid(-8.0, 8.0, 1025)
    q = quadrature(SampledFunction(g, np.exp(-(g.points**2))))
    exact = np.sqrt(np.pi) * erf(8.0)
    assert abs(q - exact) <= 1e-8


def test_quadrature_weights_expose_the_same_rule():
    g = closed_span_grid(-3.0, 3.0, 257)
    f = SampledFunction(g, np.cos(g.points) * np.exp(-(g.points**2) / 4))
    w = quadrature_weights(g.n)
    assert abs(g.spacing * (w @ f.values) - quadrature(f)) <= 1e-14


@given(
    alpha=st.floats(-5, 5),
    beta=st.floats(-5, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_quadrature_linearity(alpha, beta, seed):
    g = make_grid(-4.0, 4.0, 101)
    rng = np.random.default_rng(seed)
    f = SampledFunction(g, rng.standard_normal(101))
    h = SampledFunction(g, rng.standard_normal(101))
    combo = SampledFunction(g, alpha * f.values + beta * h.values)
    gap = abs(quadrature(combo) - alpha * quadrature(f) - beta * quadrature(h))
    scale = abs(alpha) * f.norm_l2() + abs(beta) * h.norm_l2()
    assert gap <= 1e-12 * max(scale, 1.0)


@given(seed=st.integers(0, 2**31 - 1))
def test_quadrature_odd_symmetry(seed):
    # antisymmetrized samples on a symmetric grid integrate to zero
    g = closed_span_grid(-2.0, 2.0, 129)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(129)
    odd = SampledFunction(g, v - v[::-1])
    assert abs(quadrature(odd)) <= 1e-12 * max(np.max(np.abs(odd.values)), 1.0)


def test_rel_l2_error_basics():
    g = make_grid(0.0, 1.0, 32)
    f = SampledFunction(g, g.points)
    assert rel_l2_error(f, f) == 0.0
    doubled = SampledFunction(g, 2 * f.values)
    assert rel_l2_error(doubled, f) == pytest.approx(1.0)
    g2 = make_grid(0.0, 2.0, 32)
    with pytest.raises(ValueError):
        rel_l2_error(f, SampledFunction(g2, g2.points))


def test_fd_residual_constant_field_is_zero():
    g = make_grid(-4.0, 4.0, 64)

    def field(t):
        return SampledFunction(g, np.full(64, 3.7))

    r = fd_residual(field, "heat_dirac", 0.5, 0.01)
    assert np.max(np.abs(r.values)) == 0.0


def test_fd_residual_rejects_bad_input():
    g = make_grid(-4.0, 4.0, 64)
    field = lambda t: SampledFunction(g, np.zeros(64))
    with pytest.raises(ValueError):
        fd_residual(field, "heat_dirac", 0.5, 0.0)
    with pytest.raises(ValueError):
        fd_residual(field, "no_such_operator", 0.5, 0.01)
    tiny = make_grid(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        fd_residual(lambda t: SampledFunction(tiny, np.zeros(8)), "heat_dirac", 0.5, 0.01)


def test_transport_solution_residual_order():
    """Exact traveling data: centered stencils converge at second order."""

    def solution(t, x):
        return np.exp(-((x + t) ** 2))

    order = residual_convergence_order(
        solution, "heat_dirac", 0.3, 1.0, make_grid(-6.0, 6.0, 64), 0.02
    )
    assert order >= 1.9


def test_report_consistency_enforced():
    ok = make_report("demo", 1.0e-9, 1.0e-6)
    assert ok.verdict == "pass"
    bad = make_report("demo", 2.0e-6, 1.0e-6)
    assert bad.verdict == "fail"
    info = make_report("demo", 5.0, 0.0, informational=True)
    assert info.verdict == "informational"
    with pytest.raises(ValueError):
        VerificationReport("demo", -1.0, 1.0, "pass")
    with pytest.raises(ValueError):
        VerificationReport("demo", 1.0, 1.0, "maybe")
    with pytest.raises(ValueError):
        VerificationReport("demo", 2.0, 1.0, "pass")
