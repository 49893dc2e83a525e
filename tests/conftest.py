import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# reproducible property runs: same examples every invocation
settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def closed_span_grid(lo, hi, n):
    """Uniform samples covering [lo, hi] inclusive (n samples, n-1 gaps).

    The library's grids are half-open, so the nominal upper bound is one
    spacing past hi.
    """
    h = (hi - lo) / (n - 1)
    from oscwave import make_grid

    return make_grid(lo, hi + h, n)


def assert_small(value, bound, label=""):
    assert np.all(np.abs(value) <= bound), f"{label} |{np.max(np.abs(value)):.3e}| > {bound:.1e}"


def assert_close(got, want):
    """got within 1e-13 of want's largest entry in size."""
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# Direct-sum references in plain double by error-free transformations (Ogita,
# Rump & Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26,
# 2005): the same on every platform, whatever its long double, and sharing
# no code with the package.  1/2pi and 2pi, each as two doubles:
INV_2PI = (0.15915494309189535, -9.839338337591243e-18)
TWO_PI = (6.283185307179586, 2.4492935982947064e-16)


def two_prod(a, b):
    """(p, e): p = fl(a b) and p + e = a b exactly (Dekker's product)."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    a1, b1 = ca - (ca - a), cb - (cb - b)
    a2, b2 = a - a1, b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def two_sum(a, b):
    """(s, e): s = fl(a + b) and s + e = a + b exactly (Knuth's sum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


@functools.cache
def _turn_table():
    """e^{-2 pi i k/1024}, k < 1024, from mpmath as two complex parts."""
    import mpmath

    with mpmath.workprec(160):
        exact = [mpmath.expj(-mpmath.pi * k / 512) for k in range(1024)]
        hi = np.array(exact, dtype=complex)
        return hi, np.array([w - h for w, h in zip(exact, hi)], dtype=complex)


def _turns(p):
    """The angle p (rad) less its whole turns, as turns t + e."""
    t, e = two_prod(p, INV_2PI[0])
    return t - np.rint(t), e + p * INV_2PI[1]


def phases(xi, x0, h, n):
    """e^{-i xi (x0 + j h)} for rows xi and j < n, stacked as [hi, lo]: two
    complex arrays whose sum is each entry within 2e-18.

    xi x0, xi h and (xi h) j are exact products, reduced to turns with a
    two-double 1/2pi.  hi is e^{-i theta} at the nearest 1/1024 turn theta,
    from a table made in mpmath; lo adds the rest of the angle, under
    pi/1024 rad, through its cos and sin, so |lo| <= 3.1e-3.
    """
    xi, j = np.asarray(xi, dtype=float)[:, None], np.arange(n, dtype=float)
    (p0, e0), (ph, eh) = two_prod(xi, x0), two_prod(xi, h)
    pj, ej = two_prod(ph, j)
    (t0, f0), (tj, fj) = _turns(p0), _turns(pj)
    t, f = two_sum(t0, tj)
    f += f0 + fj + (e0 + ej + eh * j) * INV_2PI[0]
    k = np.rint(1024.0 * t)
    rest = (t - k / 1024.0) * TWO_PI[0] + ((t - k / 1024.0) * TWO_PI[1] + f * TWO_PI[0])
    index = k.astype(int) % 1024
    hi, lo = (part[index] for part in _turn_table())
    # e^{-i rest} - 1 = -2 sin^2(rest/2) - i sin(rest), with no cancellation
    return np.stack([hi, lo + hi * (-2.0 * np.sin(0.5 * rest) ** 2 - 1j * np.sin(rest))])


def dot2(a, b):
    """Rows of a @ b for real a (m x n) and b as two doubles (s, e): each
    product exact, and the products summed pairwise by two_sum with the
    errors carried, as if in twice the working precision."""
    p, e = two_prod(a, b)
    while p.shape[-1] > 1:
        p, e = (np.pad(x, [(0, 0), (0, x.shape[-1] % 2)]) for x in (p, e))
        k = p.shape[-1] // 2
        p, r = two_sum(p[:, :k], p[:, k:])
        e = e[:, :k] + e[:, k:] + r
    return p[:, 0], e[:, 0]


def direct_sums(ph, v):
    """(P @ v, conj(P) @ v) for complex v and P = ph[0] + ph[1] from phases
    (or its swapaxes(1, 2)), each rounded once: ph[0]'s four real products
    by dot2, ph[1]'s, at most 3.1e-3 of an entry, in plain double."""
    (re, im), (vr, vi) = (ph[0].real, ph[0].imag), (v.real, v.imag)
    A, B, C, D = (dot2(x, y) for x, y in ((re, vr), (im, vi), (re, vi), (im, vr)))

    def add(x, y, sign, low):
        s, e = two_sum(x[0], sign * y[0])
        return s + (e + x[1] + sign * y[1] + low)

    return tuple(add(A, B, -sign, low.real) + 1j * add(C, D, sign, low.imag)
                 for sign, low in ((1, ph[1] @ v), (-1, ph[1].conj() @ v)))


@pytest.fixture
def hermite_builds(monkeypatch):
    """(n_max, a, point count) of every hermite_table build from here on,
    made through the hermite module or through verify's import of it."""
    from oscwave import hermite, verify

    builds = []
    build = hermite.hermite_table

    def counted(n_max, a, x):
        builds.append((n_max, a, len(x)))
        return build(n_max, a, x)

    monkeypatch.setattr(hermite, "hermite_table", counted)
    monkeypatch.setattr(verify, "hermite_table", counted, raising=False)
    return builds
