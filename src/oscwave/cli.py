"""Command-line front end: propagate initial data, dump kernels, run checks.

Exit status: 0 on success, 1 on any precondition error (bad flags,
unreadable input, domain violations), 2 when the verification suite has a
failing check.
"""

import argparse
import functools
import sys

import numpy as np

from .csvio import (
    read_function_csv,
    write_function_csv,
    write_kernel_csv,
    write_report_csv,
)
from .dirac import heat_dirac, spectral_wave_oracle_dirac, wave_dirac
from .grids import make_grid
from .grushin import grushin_heat_matrix
from .hermite import expand, heat_oracle, wave_oracle
from .oscillator import (
    HEAT_KERNEL_VARIANTS,
    OscillatorParams,
    heat_ho_kernel_route,
    heat_ho_spectral_route,
    heat_kernel,
    heat_via_intertwining,
    wave_ho,
)
from .verify import run_suite, suite_failed

ORACLE_MODES = 128


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags by default; 2 is reserved
    # for verification failures here, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# flags whose value may start with a minus sign ('-1e-3', '-inf', '-2,2,16'),
# which argparse would otherwise take for an option
_SIGNED_FLAGS = ("--t", "--a", "--dy", "--grid")


def _glue_signed_values(argv):
    """Glue '--t -inf' and the like into one token so a leading minus parses."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _SIGNED_FLAGS and i + 1 < len(argv):
            out.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _grid_triplet(text):
    """Parse 'min,max,n'; make_grid checks the values when the command runs,
    so a grid it refuses exits 1 with its reason like any domain error."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected --grid min,max,n")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}")


def build_parser():
    parser = _Parser(prog="oscwave", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def propagation(name, help_text, routes=None, variants=None):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--t", type=float, required=True, help="evolution time")
        s.add_argument("--input", required=True, help="initial data CSV (x,re,im)")
        s.add_argument("--output", required=True, help="destination CSV")
        if routes is not None:
            s.add_argument("--route", choices=routes, default=routes[0])
        if variants is not None:
            s.add_argument("--variant", choices=variants,
                           help=f"kernel route only (default {variants[0]})")
        return s

    s = propagation(
        "heat-ho", "oscillator heat flow on sampled initial data",
        routes=("kernel", "spectral", "intertwine", "oracle"),
        variants=HEAT_KERNEL_VARIANTS,
    )
    s.add_argument("--a", type=float, required=True, help="oscillator coupling")

    s = propagation(
        "wave-ho", "oscillator wave flow from rest (position data, zero velocity)",
        routes=("direct", "oracle"),
    )
    s.add_argument("--a", type=float, required=True, help="oscillator coupling")

    propagation("heat-dirac", "heat flow of the first-order generator: exact shift")
    propagation(
        "wave-dirac", "wave flow of the first-order generator from rest",
        routes=("direct", "oracle"),
    )

    s = sub.add_parser("kernel", help="dump an oscillator heat kernel matrix")
    s.add_argument("--variant", choices=HEAT_KERNEL_VARIANTS, default="mehler")
    s.add_argument("--a", type=float, required=True)
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--grid", type=_grid_triplet, required=True)
    s.add_argument("--output", required=True)

    s = sub.add_parser("grushin-heat", help="dump a Grushin heat kernel slice")
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--grid", type=_grid_triplet, required=True,
                   help="shared grid for both x arguments")
    s.add_argument("--dy", type=float, default=0.0,
                   help="offset y - y' between the two points")
    s.add_argument("--output", required=True)

    s = sub.add_parser("verify", help="run consistency checks and write a report")
    s.add_argument("--suite", default="all",
                   help="'all' or comma-separated check names")
    s.add_argument("--output", default="verify_report.csv")
    return parser


@functools.cache
def _parser():
    # built once per process, on first use; parse_args does not change it
    return build_parser()


def _run_heat_ho(args):
    if args.variant is not None and args.route != "kernel":
        raise ValueError(
            f"--variant applies to the kernel route only, not --route {args.route}")
    u0 = read_function_csv(args.input)
    p = OscillatorParams(args.a, args.t)
    if args.route == "kernel":
        out = heat_ho_kernel_route(u0, p, variant=args.variant or "mehler")
    elif args.route == "spectral":
        out = heat_ho_spectral_route(u0, p)
    elif args.route == "intertwine":
        out = heat_via_intertwining(u0, p)
    else:
        out = heat_oracle(expand(u0, args.a, ORACLE_MODES), args.t, u0.grid)
    write_function_csv(out, args.output)
    return 0


def _run_wave_ho(args):
    v0 = read_function_csv(args.input)
    p = OscillatorParams(args.a, args.t)
    if args.route == "oracle":
        out = wave_oracle(expand(v0, args.a, ORACLE_MODES), args.t, v0.grid)
    else:
        out = wave_ho(v0, p)
    write_function_csv(out, args.output)
    return 0


def _run_heat_dirac(args):
    write_function_csv(heat_dirac(read_function_csv(args.input), args.t), args.output)
    return 0


def _run_wave_dirac(args):
    v0 = read_function_csv(args.input)
    flow = spectral_wave_oracle_dirac if args.route == "oracle" else wave_dirac
    write_function_csv(flow(v0, args.t), args.output)
    return 0


def _run_kernel(args):
    p = OscillatorParams(args.a, args.t)
    x = make_grid(*args.grid).points
    values = heat_kernel(args.variant, p, x[:, None], x[None, :])
    if not np.all(np.isfinite(values)):
        # the literal variant, evaluated as printed, overflows to inf
        raise ValueError(f"the {args.variant} kernel overflows on this grid at "
                         f"a = {p.a:g}, t = {p.t:g}; its values are not finite")
    write_kernel_csv(x, x, values, args.output)
    return 0


def _run_grushin(args):
    x = make_grid(*args.grid).points
    write_kernel_csv(x, x, grushin_heat_matrix(args.t, x, x, args.dy), args.output)
    return 0


def _run_verify(args):
    names = None if args.suite == "all" else args.suite.split(",")
    try:
        reports = run_suite(names)
    except KeyError as err:
        raise ValueError(err.args[0]) from err
    for r in reports:
        print(f"{r.verdict:13s} {r.check_name}  metric={r.metric:.6e}  "
              f"tolerance={r.tolerance:.1e}  {r.notes}")
    write_report_csv(reports, args.output)
    print(f"report written to {args.output}")
    return 2 if suite_failed(reports) else 0


_DISPATCH = {
    "heat-ho": _run_heat_ho,
    "wave-ho": _run_wave_ho,
    "heat-dirac": _run_heat_dirac,
    "wave-dirac": _run_wave_dirac,
    "kernel": _run_kernel,
    "grushin-heat": _run_grushin,
    "verify": _run_verify,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_glue_signed_values(argv))
    try:
        return _DISPATCH[args.subcommand](args)
    except (ValueError, OSError) as err:
        print(f"oscwave: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
