"""Command-line front end: the argument grammar and the exit codes.

Subcommands
-----------
spectrum     chiral response components and group index on a detuning grid
delay        group index / group velocity / delay rows per scenario
crossover    control strength where cold and hot group indices cross
pulse        Gaussian probe pulse through the dispersive cell
calibrate    solve the density coupling kappa_e for a target group index
preset-dump  fully resolved parameters of the built-in presets (JSON)

Exit codes: 0 success, 2 configuration error (every violation is
listed), 3 numerical failure (named).

This module imports only argparse, sys and ``errors``, so building
the parser, ``--help`` and argparse's usage errors load no other
package module.  ``main`` imports ``commands`` (and with it the
configuration layer, ``params`` and ``presets``) once a subcommand
has been parsed; the commands that compute import numpy, ``optics``
and ``pulse`` after they have built their configs (see ``commands``).
"""

import argparse
import sys

from .errors import ConfigurationError, NumericalError

_MODES = ("cold", "hot", "both")


def _add_common(sub, grid=False, mode=True, fmt=True):
    sub.add_argument("--preset", help="built-in scenario name (see preset-dump)")
    sub.add_argument("--config", help="JSON file with 'system'/'medium' "
                     "sections; overrides the preset field-by-field")
    if grid:
        sub.add_argument("--grid", default="-10:10:401",
                         help="probe detuning grid lo:hi:count "
                         "(default %(default)s)")
    if mode:
        sub.add_argument("--mode", choices=_MODES, default=None,
                         help="cold (stationary), hot (thermal average) or "
                         "both; default: the preset's mode, else cold")
    if fmt:
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format (default %(default)s)")
    sub.add_argument("--out", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralight",
        description="Chiral EIT response, group delay and pulse propagation "
        "in a four-level double-lambda medium.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("spectrum", help="response components vs detuning")
    _add_common(p, grid=True)
    p.add_argument("--vd", help="comma-separated thermal widths; each value "
                   "becomes one labeled hot series")

    p = subs.add_parser("delay", help="group index / velocity / delay rows")
    _add_common(p)
    p.add_argument("--omega3", help="comma-separated control strengths; "
                   "one row per value and mode")

    p = subs.add_parser("crossover",
                        help="control strength where hot and cold group "
                        "indices cross")
    _add_common(p, mode=False)
    p.add_argument("--omega3-range", default=None,
                   help="search bracket lo:hi (default: the preset's "
                   "omega_3 list span, else 1.5:5)")
    p.add_argument("--tol", type=float, default=1.0e-3,
                   help="absolute tolerance on omega_3 (default %(default)s)")

    p = subs.add_parser("pulse", help="Gaussian pulse through the cell")
    _add_common(p)
    p.add_argument("--vacuum", action="store_true",
                   help="propagate through vacuum of the same length "
                   "(n_0 = 1, no dispersion)")
    p.add_argument("--tau0", type=float, default=5.5,
                   help="input 1/e half-width in ns (default %(default)s)")
    p.add_argument("--delta", type=float, default=2.0e9,
                   help="carrier offset from band center in rad/s "
                   "(default %(default)s)")
    p.add_argument("--full", action="store_true",
                   help="emit every sample instead of decimating to "
                   "~2048 rows per section")

    p = subs.add_parser("calibrate",
                        help="solve the density coupling for a target "
                        "group index (JSON output)")
    _add_common(p, mode=False, fmt=False)
    p.add_argument("--target", type=float, required=True,
                   help="group-index value to reproduce")
    p.add_argument("--quantity", choices=("N_g", "n_0"), default="N_g",
                   help="N_g at the config's delta_p, or n_0 = N_g at "
                   "band center (default %(default)s)")
    p.add_argument("--mode", choices=("cold", "hot"), default="cold")
    p.add_argument("--delta-p", type=float, default=None,
                   help="probe detuning (default: the config's delta_p)")
    p.add_argument("--bracket", default="1e-8:1e4",
                   help="kappa_e search bracket lo:hi (default %(default)s)")

    p = subs.add_parser("preset-dump",
                        help="resolved parameters of built-in presets")
    p.add_argument("names", nargs="*",
                   help="preset names, aliases or figure groups "
                   "(default: all)")
    p.add_argument("--out", help="write to this file instead of stdout")
    return parser


def _join_negative_values(argv):
    """Let flags accept leading-minus values (`--grid -10:10:2001`).

    Decided by shape, so abbreviated flags (`--gr -1:1:3`) work too:
    after a `--flag` token without `=`, a token that starts with a
    single `-` (other than `-h`) is that flag's value.
    """
    out, i = [], 0
    while i < len(argv):
        a, value = argv[i], (argv[i + 1] if i + 1 < len(argv) else "")
        if (a[:2] == "--" and len(a) > 2 and "=" not in a
                and value[:1] == "-" and value[:2] != "--" and value != "-h"):
            out.append(a + "=" + value)
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_negative_values(argv))
    from .commands import COMMANDS
    try:
        return COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        for v in exc.violations:
            print(f"  - {type(v).__name__}: {v}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numerical failure: MemoryError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
