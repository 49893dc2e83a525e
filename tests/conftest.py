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
