"""The bodies of the ``chiralight`` subcommands.

``cli`` parses the command line and imports this module only once a
subcommand has been parsed, then runs ``COMMANDS[name](args)``.  Each
body resolves its preset and config, runs the library and writes the
table to stdout or ``--out``.

CSV cells print numbers with %.12g, JSON numbers as exact doubles
(shortest round-trip repr), so repeated runs are byte-identical.

A computing command builds every config and pulse spec it runs, then
builds --grid (numpy's first import) and imports optics and pulse.  So
``preset-dump`` and every configuration error run without numpy,
except a root search's --tol and first bracket end, which it checks
after the import, as it starts.
"""

import json
import numbers
import os
import sys

from . import presets
from .errors import ConfigurationError
from .params import PulseSpec, finite, from_dict, load_config, to_dict, with_overrides


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return "%.12g" % (float(value) + 0.0)  # + 0.0 prints -0.0 as 0


def _jsonable(value):
    """Plain JSON types for value, recursively; -0.0 becomes 0.0."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # numpy registers its floating types as Real (not Integral)
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        return float(value) + 0.0
    return value


def parse_grid(text: str):
    """Parse 'lo:hi:count' into a uniform detuning grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(
            f"bad --grid {text!r}: expected lo:hi:count")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ConfigurationError(
            f"bad --grid {text!r}: lo, hi must be numbers and count an "
            "integer") from None
    if not (finite(lo) and finite(hi)):
        raise ConfigurationError(f"bad --grid {text!r}: lo, hi must be finite")
    if not finite(hi - lo):
        raise ConfigurationError(f"bad --grid {text!r}: span hi - lo overflows")
    if count < 1:
        raise ConfigurationError(f"bad --grid {text!r}: empty grid (count < 1)")
    # numpy's limit on an array of 8-byte floats (sys.maxsize is the
    # largest intp), which linspace applies to float(count)
    limit = sys.maxsize // 8
    if count >= limit or float(count) >= limit:
        raise ConfigurationError(f"bad --grid {text!r}: count too large")
    import numpy as np
    return np.linspace(lo, hi, count)


def parse_pair(text: str, flag: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigurationError(f"bad {flag} {text!r}: expected lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigurationError(
            f"bad {flag} {text!r}: endpoints must be numbers") from None
    if not (finite(lo) and finite(hi)):
        raise ConfigurationError(f"bad {flag} {text!r}: endpoints must be finite")
    if not hi > lo:
        raise ConfigurationError(f"bad {flag} {text!r}: need hi > lo")
    return lo, hi


def _float_list(text, flag, listed, default) -> list:
    """The flag's comma-separated values, else the preset's list, else [default]."""
    if text is None:
        return list(listed) if listed else [default]
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigurationError(
            f"bad {flag} {text!r}: expected comma-separated numbers") from None
    if not values:
        raise ConfigurationError(f"bad {flag} {text!r}: empty list")
    return values


def _resolve(args):
    """Build the working config from --preset and/or --config.

    The --config document overrides the preset (or the defaults)
    field by field.
    """
    scenario = presets.get(args.preset) if args.preset else None
    cfg = scenario.config() if scenario is not None else from_dict({})
    if args.config:
        cfg = load_config(args.config, base=cfg)
    return cfg, scenario


def _modes(args, scenario) -> list:
    mode = args.mode or (scenario.mode if scenario is not None else "cold")
    return ["cold", "hot"] if mode == "both" else [mode]


def _write(args, text) -> int:
    """Write the finished output to --out, or to stdout.

    A closed pipe (`| head`) drops the rest quietly; any other failure
    is a ConfigurationError.  After a failure stdout points at devnull,
    so the flush at interpreter exit cannot fail again.
    """
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write --out {args.out}: {exc}") from None
        return 0
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            raise ConfigurationError(f"cannot write stdout: {exc}") from None
    return 0


def _write_json(args, doc) -> int:
    return _write(args, json.dumps(_jsonable(doc), indent=2) + "\n")


def _emit(args, table):
    """Write a {column name: cells} table as CSV or JSON records.

    The columns are numpy arrays or lists of one length; None is an
    empty CSV cell and a JSON null.  Numbers print with %.12g in CSV.
    """
    rows = zip(*(c.tolist() if hasattr(c, "tolist") else c
                 for c in table.values()), strict=True)
    if args.format == "json":
        return _write_json(args, [dict(zip(table, row)) for row in rows])
    lines = [",".join(table)] + [",".join(map(_fmt, row)) for row in rows]
    return _write(args, "\n".join(lines) + "\n")


# ----------------------------------------------------------------- spectrum

def cmd_spectrum(args) -> int:
    cfg, scenario = _resolve(args)
    vd_list = _float_list(args.vd, "--vd", scenario and scenario.vd_list,
                          cfg.medium.v_doppler)
    configs = [with_overrides(cfg, medium={"v_doppler": float(vd)}) for vd in vd_list]
    # a thermal-width sweep only distinguishes hot curves; the cold
    # response is independent of v_doppler, so emit it once
    runs = [(mode, c) for mode in _modes(args, scenario)
            for c in (configs if mode == "hot" else configs[:1])]
    grid = parse_grid(args.grid)
    import numpy as np
    from . import optics

    names = ("chi_e", "chi_m", "xi_eh", "xi_he")  # resp.components() order
    columns = ["delta_p", "mode", "v_doppler",
               *(f"{part}_{name}" for name in names for part in ("re", "im")),
               "n_r", "n_g"]
    series = []
    for mode, c in runs:
        curve, resp = optics.group_index_curve(c, grid, mode=mode, return_response=True)
        series.append((grid, np.full(grid.size, mode),
                       np.full(grid.size, c.medium.v_doppler),
                       *(part(comp) for comp in resp.components()
                         for part in (np.real, np.imag)),
                       np.real(curve.n_complex), curve.N_g))
    return _emit(args, {k: np.concatenate(cells)
                        for k, cells in zip(columns, zip(*series))})


# -------------------------------------------------------------------- delay

def cmd_delay(args) -> int:
    cfg, scenario = _resolve(args)
    modes = _modes(args, scenario)
    omega3s = _float_list(args.omega3, "--omega3", scenario and scenario.omega3_list,
                          cfg.system.omega_3)
    base = scenario.name if scenario is not None else "config"
    scenarios = []
    for o3 in omega3s:
        c = with_overrides(cfg, system={"omega_3": float(o3)})
        scenarios.extend((f"{base}:omega3={o3:g}", c, mode) for mode in modes)
    from . import optics
    rows = optics.delay_table(scenarios)
    for row, (_, c, _) in zip(rows, scenarios):
        row["omega_3"] = c.system.omega_3
    return _emit(args, {k: [row[k] for row in rows] for k in
                        ("scenario", "omega_3", "mode", "n_g", "v_g", "tau_ns", "error")})


# ---------------------------------------------------------------- crossover

def cmd_crossover(args) -> int:
    cfg, scenario = _resolve(args)
    if args.omega3_range is not None:
        lo, hi = parse_pair(args.omega3_range, "--omega3-range")
    elif scenario is not None and scenario.omega3_list:
        lo, hi = scenario.omega3_list[0], scenario.omega3_list[-1]
    else:
        lo, hi = 1.5, 5.0
    from . import optics
    star = optics.superluminal_crossover(cfg, lo, hi, xtol=args.tol)
    return _emit(args, {"omega3_lo": [lo], "omega3_hi": [hi], "xtol": [args.tol],
                        "omega3_star": [star]})


# -------------------------------------------------------------------- pulse

def cmd_pulse(args) -> int:
    """|envelope|^2 of the input and each series in a time and a frequency
    section (every step-th sample, all with --full), then five metric
    rows with None under input."""
    cfg, scenario = _resolve(args)
    modes = _modes(args, scenario)
    ps = PulseSpec(tau_0=args.tau0 * 1e-9, delta=args.delta)
    L = cfg.medium.length_L
    import numpy as np
    from . import optics, pulse as pulse_mod
    # (label, n_0, g_vd[SI]) per series, the constants quoted or computed
    if args.vacuum:
        series = [("vacuum", 1.0, 0.0)]
    else:
        coeffs = [presets.pulse_dispersion_si(scenario, cfg, mode)
                  or optics.dispersion_coefficients(cfg, mode=mode) for mode in modes]
        series = [(mode, c["n_0"], c["g_vd"]) for mode, c in zip(modes, coeffs)]

    t = pulse_mod.time_grid(ps, series=[(n_0, g_vd) for _, n_0, g_vd in series], L=L)
    nu = np.sort(pulse_mod.frequency_grid(ps, t))  # band check before any trace
    trace_in = pulse_mod.input_envelope(ps, t)
    outputs = [pulse_mod.propagate_analytic(ps, n_0, g_vd, L, t=t)
               for _, n_0, g_vd in series]
    keys = ["input"] + [label for label, _, _ in series]
    # real n_0 and g_vd make |exp(-i k(nu) L)| = 1: every output
    # spectrum has the input's power
    *power, spectrum = [np.abs(pulse_mod.normalized(x)) ** 2 for x in
                        [*(tr.samples for tr in [trace_in, *outputs]),
                         pulse_mod.input_spectrum(ps, nu)]]

    step = 1 if args.full else max(1, pulse_mod.N_SAMPLES // 2048)
    metrics = ["peak_shift_ns", "width_ratio", "distortion", "n_0", "g_vd_si"]
    table = {"section": [], "x": [], **{k: [] for k in keys}}
    for section, x, cols in (("time", t / ps.tau_0, power),
                             ("frequency", nu / (2 * np.pi / ps.tau_0), [spectrum] * len(keys))):
        table["section"] += [section] * x[::step].size
        for k, cells in zip(["x", *keys], [x, *cols]):
            table[k] += cells[::step].tolist()
    table["section"] += ["metric"] * len(metrics)
    table["x"] += metrics
    table["input"] += [None] * len(metrics)
    for (label, n_0, g_vd), trace in zip(series, outputs):
        m = pulse_mod.pulse_metrics(trace_in, trace)
        table[label] += [m["peak_shift"] * 1e9, m["width_ratio"], m["distortion"], n_0, g_vd]
    return _emit(args, table)


# ---------------------------------------------------------------- calibrate

def cmd_calibrate(args) -> int:
    cfg, scenario = _resolve(args)
    for flag, value in (("--target", args.target), ("--delta-p", args.delta_p)):
        if value is not None and not finite(value):
            raise ConfigurationError(f"bad {flag} {value!r}: must be finite")
    if args.delta_p is not None:
        delta_p = args.delta_p
    elif args.quantity == "n_0":
        # the quoted n_0 constants are the group index at band center
        delta_p = 0.0
    else:
        delta_p = cfg.system.delta_p
    lo, hi = parse_pair(args.bracket, "--bracket")
    from . import optics
    kappa, achieved = optics.calibrate_coupling(cfg, args.target, delta_p,
                                                lo, hi, mode=args.mode)
    calibrated = with_overrides(cfg, medium={"density_coupling": kappa})
    return _write_json(args, {
        "calibration": {
            "kappa_e": kappa,
            "quantity": args.quantity,
            "target_n_g": args.target,
            "achieved_n_g": achieved,
            "relative_error":
                abs(achieved - args.target) / max(abs(args.target), 1e-300),
            "mode": args.mode,
            "delta_p": delta_p,
            "preset": scenario.name if scenario is not None else None,
        },
        "config": to_dict(calibrated),
    })


# -------------------------------------------------------------- preset-dump

def cmd_preset_dump(args) -> int:
    records = {rec["name"]: rec for name in (args.names or sorted(presets.CATALOG))
               for rec in map(presets.dump, presets.expand(name))}
    payload = records[next(iter(records))] if len(records) == 1 else records
    return _write_json(args, payload)


# the body each subcommand runs; cli.main dispatches through this table
COMMANDS = {
    "spectrum": cmd_spectrum,
    "delay": cmd_delay,
    "crossover": cmd_crossover,
    "pulse": cmd_pulse,
    "calibrate": cmd_calibrate,
    "preset-dump": cmd_preset_dump,
}
