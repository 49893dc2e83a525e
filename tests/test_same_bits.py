"""Helpers rewritten to make fewer array passes give the bits of the
formulas they replaced.

Each test holds a copy of the earlier formula and compares with
tobytes(), with no tolerance.  The in-place ufunc calls these helpers use
take Python-float scalars, where numpy 1.x's value-based casting and
numpy 2's promotion rules could part, so CI runs this file on the oldest
numpy the package declares as well.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oscwave import dirac, intertwine, make_grid, special


def _two_prod(a, b):
    # Dekker's product on Veltkamp splits
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    a1, b1 = ca - (ca - a), cb - (cb - b)
    a2, b2 = a - a1, b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _unit_phase_formula(turns):
    rad = intertwine._RAD_PER_UNIT
    out = np.empty(turns.shape[:1] + (2,) + turns.shape[1:])
    blocks = max(1, turns.size // 8192)
    for k, part in zip(np.array_split(turns.view(np.int64), blocks),
                       np.array_split(out, blocks)):
        lo = k & 2047
        hi = (k - lo).astype(float)
        p, e = _two_prod(hi, rad[0])
        theta = p + (e + (hi * rad[1] + lo * rad[0]))
        np.cos(theta, out=part[:, 0])
        np.sin(theta, out=part[:, 1])
    return out


INT64 = st.integers(-2**63, 2**63 - 1)


@given(st.lists(INT64, min_size=1, max_size=300), st.integers(1, 4))
@example([0, 1, -1, 2**63 - 1, -2**63], 1)
@example([0, 1, -1, 2**63 - 1, -2**63] * 4000, 5)
def test_unit_phase_keeps_the_bits_of_its_formula(turns, width):
    turns = np.array(turns, dtype=np.int64)
    turns = turns[:turns.size - turns.size % width].reshape(-1, width)
    for k in (turns[:, 0], turns):
        k = k.view(np.uint64)
        assert intertwine._unit_phase(k).tobytes() == _unit_phase_formula(k).tobytes()


def test_rad_split_is_the_split_two_prod_makes():
    c = intertwine._RAD_PER_UNIT[0]
    cc = 134217729.0 * c
    assert intertwine._RAD_SPLIT == (cc - (cc - c), c - (cc - (cc - c)))


def _moment_formula(xi_R, u, P):
    steps = np.outer(xi_R, 1.0 / np.arange(1, P))
    taylor = np.cumprod(np.hstack([np.ones((xi_R.size, 1)), steps]), axis=1)
    return (taylor * np.array([1.0, -1j, -1.0, 1j])[np.arange(P) % 4],
            np.vander(u, P, increasing=True).astype(complex))


@given(st.integers(2, 16), st.integers(8, 4099), st.integers(0, 60), st.integers(0, 2**32 - 1))
@example(11, 4099, 60, 0)
@example(2, 8, 0, 1)
def test_moment_expansion_keeps_the_bits_of_cumprod_and_vander(P, n, rows, seed):
    rng = np.random.default_rng(seed)
    xi_R = rng.uniform(-intertwine._RHO, intertwine._RHO, rows)
    u = rng.uniform(-1.0, 1.0, n)
    u[:3] = (-1.0, 0.0, 1.0)
    got = intertwine._moment_expansion(xi_R, u, P)
    for have, want in zip(got, _moment_formula(xi_R, u, P)):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.flags.c_contiguous
        assert have.tobytes() == want.tobytes()


@pytest.mark.parametrize("span, n, a", [((-12.0, 12.0), 512, 0.5),
                                        ((-12.0, 12.0), 2048, 1.0),
                                        ((20.5, 61.3), 2048, 1.0),
                                        ((-37.3, 41.9), 4099, 2.0)])
def test_phase_tables_store_c_ordered_arrays_of_their_dtypes(span, n, a):
    g = make_grid(*span, n)
    X = make_grid(-1.0 / a, 18.5 / a, 1024)
    xi = np.exp(-2.0 * a * X.points)
    xi = xi[xi < 0.95 * np.pi / g.spacing]
    tables = intertwine._phase_tables(xi, g)
    half, top, _ = intertwine._split(n)
    high, low = tables.high.size, tables.low.size
    assert high and low
    P = tables.taylor.shape[1]
    shapes = {"high": (high,), "mid": (high,), "coarse": (high, 2, top + 1),
              "fine": (high, 2, half + 1), "low": (low,), "centre": (low,),
              "taylor": (low, P), "powers": (n, P)}
    dtypes = {"high": np.intp, "low": np.intp, "coarse": float, "fine": float}
    for field in tables._fields:
        table = getattr(tables, field)
        assert table.shape == shapes[field], field
        assert table.dtype == np.dtype(dtypes.get(field, complex)), field
        assert table.flags.c_contiguous, field
    R = g.spacing * (0.5 * (n - 1))
    c_err = math.fsum((g.x_min, R, -(g.x_min + R)))
    u = (g.spacing * (np.arange(n) - 0.5 * (n - 1)) + c_err) / R
    taylor, powers = _moment_formula(xi[tables.low] * R, u, P)
    assert tables.taylor.tobytes() == taylor.tobytes()
    assert tables.powers.tobytes() == powers.tobytes()


def _lagrange_formula(s):
    diffs = s[:, None] - np.arange(dirac._STENCIL)
    basis = np.ones((s.size, dirac._STENCIL))
    for i in range(dirac._STENCIL):
        for j in range(dirac._STENCIL):
            if j != i:
                basis[:, i] *= diffs[:, j] / (i - j)
    return basis


@given(st.lists(st.one_of(st.floats(-1.0, 8.0), st.integers(0, dirac._STENCIL - 1)),
                min_size=1, max_size=600))
@example([float(k) for k in range(dirac._STENCIL)])
@example([3.5, 3.0, 2.9999999999999996, 4.000000000000001])
def test_lagrange_basis_keeps_the_bits_of_its_formula(s):
    s = np.array(s, dtype=float)
    got = dirac._lagrange_basis(s)
    assert got.flags.c_contiguous
    assert got.tobytes() == _lagrange_formula(s).tobytes()


def _u_sums_formula(a, c, log_z, v_min, width, s):
    step = max(1, special._U_SUM_BLOCK // s.size)
    out = np.empty(log_z.size)
    for i in range(0, log_z.size, step):
        b = slice(i, i + step)
        v = v_min[b, None] + width[b, None] * s
        log1p_ev = np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))
        out[b] = np.sum(np.exp(-np.exp(log_z[b, None] + v) + a * v
                               + (c - a - 1.0) * log1p_ev), axis=-1)
    return out


FAMILIES = [(1.0, 1.5), (0.5, 0.5), (2.0, 2.5), (1.0, 1.0), (0.99, 0.99), (3.0, 1.2)]


@pytest.mark.parametrize("a, c", FAMILIES)
@given(log10_z=st.lists(st.floats(-12.0, math.log10(300.0)), min_size=1, max_size=40))
@example(log10_z=[-12.0, -6.0, 0.0, 1.0, math.log10(300.0)])
def test_tricomi_u_keeps_the_bits_of_its_integrand_formula(a, c, log10_z):
    z = np.minimum(10.0 ** np.array(log10_z), 300.0)
    got = special.tricomi_u(a, c, z)
    summed = special._u_sums
    try:
        special._u_sums = _u_sums_formula
        want = special.tricomi_u(a, c, z)
    finally:
        special._u_sums = summed
    assert got.tobytes() == want.tobytes()


def test_tricomi_u_keeps_its_bits_on_c08s_arguments():
    rng = np.random.default_rng(23)
    t, gap = rng.uniform(0.05, 2.0, 1000), rng.uniform(0.05, 6.0, 1000)
    z = t * t / (4.0 * gap)
    got = special.tricomi_u(1.0, 1.5, z)
    summed = special._u_sums
    try:
        special._u_sums = _u_sums_formula
        want = special.tricomi_u(1.0, 1.5, z)
    finally:
        special._u_sums = summed
    assert got.tobytes() == want.tobytes()


@given(st.lists(st.floats(0.0, 30.0), max_size=300))
@example([0.0, 1e-300, 5e-324, 26.5, 27.3])
def test_erfc_paper_keeps_the_bits_of_the_vectorized_erfc(z):
    z = np.array(z, dtype=float)
    want = (special.SQRT_PI / 2.0) * np.vectorize(math.erfc, otypes=[float])(z)
    assert special.erfc_paper(z).tobytes() == want.tobytes()
    assert special.erfc_paper(0.25) == (special.SQRT_PI / 2.0) * math.erfc(0.25)
    assert type(special.erfc_paper(0.25)) is float
