"""CSV exchange formats: sampled functions, kernel matrices, check reports.

Floats are rendered with %.17g so a write/read cycle reproduces every
double bit-for-bit, and a read/write cycle reproduces the decimal text.
"""

import csv

import numpy as np

from .grids import SampledFunction, make_grid

# relative wobble allowed in the x column before it stops being a uniform grid
UNIFORM_TOL = 1.0e-9


def _fmt(v):
    return "%.17g" % v


def _write_columns(path, header, cols):
    # the csv module's default dialect, written in one call: comma
    # delimiter, CRLF line ends, no quoting (numbers never need it)
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, cols, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=header, comments="")


def write_function_csv(f, path):
    """Dump a SampledFunction as rows of x, Re, Im."""
    _write_columns(path, "x,re,im",
                   np.column_stack([f.grid.points, f.values.real, f.values.imag]))


def read_function_csv(path):
    """Load a sampled function; the x column must be uniformly spaced.

    The im column may be absent, in which case the data is real.
    """
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [h.strip() for h in header[:2]] != ["x", "re"]:
            raise ValueError(f"{path}: expected header starting with x,re")
        has_im = len(header) >= 3 and header[2].strip() == "im"
        xs, vals = [], []
        for row in r:
            if not row:
                continue
            # rows count data lines only, as in the non-uniform-x message
            row_no = len(xs) + 1
            if len(row) < 2:
                raise ValueError(
                    f"{path}: data row {row_no} has {len(row)} field(s); "
                    "need at least x and re"
                )
            try:
                x, re = float(row[0]), float(row[1])
                im = float(row[2]) if has_im and len(row) > 2 else 0.0
            except ValueError:
                raise ValueError(
                    f"{path}: data row {row_no} has a non-numeric field: "
                    f"{','.join(row)!r}"
                ) from None
            xs.append(x)
            vals.append(complex(re, im))
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least two samples")
    x = np.asarray(xs)
    bad = np.nonzero(~np.isfinite(x))[0]
    if bad.size:
        raise ValueError(f"{path}: non-finite x at data row {bad[0] + 1}")
    h = x[1] - x[0]
    if h <= 0:
        raise ValueError(f"{path}: x must be strictly increasing (row 2)")
    gaps = np.diff(x)
    bad = np.nonzero(np.abs(gaps - h) > UNIFORM_TOL * h)[0]
    if bad.size:
        # +2 converts the gap index to the 1-based row of the offending x
        raise ValueError(
            f"{path}: non-uniform x at data row {bad[0] + 2} "
            f"(spacing {gaps[bad[0]]:.17g}, expected {h:.17g})"
        )
    grid = make_grid(x[0], x[0] + h * len(x), len(x))
    return SampledFunction(grid, np.asarray(vals, dtype=complex))


def write_kernel_csv(x, xp, values, path):
    """Dump a kernel matrix K[i, j] = K(x_i, xp_j) as x, xp, value rows."""
    values = np.asarray(values)
    if values.shape != (len(x), len(xp)):
        raise ValueError("kernel shape does not match the coordinate axes")
    _write_columns(path, "x,xp,value", np.column_stack(
        [np.repeat(x, len(xp)), np.tile(xp, len(x)), values.ravel()]))


def write_report_csv(reports, path):
    """One line per verification check: name, metric, tolerance, verdict."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "metric", "tolerance", "verdict", "notes"])
        for r in reports:
            w.writerow([r.check_name, _fmt(r.metric), _fmt(r.tolerance),
                        r.verdict, r.notes])
