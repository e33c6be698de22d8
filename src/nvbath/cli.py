"""Command-line front end.

Subcommands: ``polarization`` (bath polarization table), ``spectrum``
(cw spectrum plus peak report from a config file), ``simulate`` (stochastic
pulse sequences), ``fit`` (nonlinear model fits), and ``model-eval``
(closed-form rate models on a temperature grid).

Exit codes: 0 success, 2 usage error, 3 fit non-convergence, 4 I/O error.
Every out-of-domain flag, INI value or data cell raises ``ValueError`` in
the code that checks it, and only :func:`main` turns that into exit code 2
with one ``error:`` line.
Every output file starts with a provenance comment carrying the tool
version, a hash of the physics-relevant configuration, and the seed where
one applies. Execution knobs (worker count, output paths) are excluded from
the hash, so reruns of the same physics are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, bath_model, datasets, fitkit, pulse_sim, spectra
from . import spin_core, table


# Default delay span per sequence: the Hahn-echo scan's 25 us, or enough T1
# for an inversion-recovery fit to see the recovered plateau.
_HAHN_TAU_MAX_S = 25e-6
_INVERSION_TAU_MAX_T1 = 5.0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvbath",
        description="Pulsed-EPR models for nitrogen spin baths in diamond.",
    )
    parser.add_argument(
        "--outdir",
        default=None,
        help="output directory (default: $NVBATH_OUTPUT_DIR or the cwd)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polarization", help="bath polarization versus temperature")
    p.add_argument("--frequency-hz", "--freq", type=float, default=240e9)
    p.add_argument(
        "--t-zeeman-k",
        type=float,
        default=None,
        help="override the Zeeman temperature instead of deriving it",
    )
    p.add_argument(
        "--temps",
        default="1.3:300:log:121",
        help="grid 'lo:hi:log[:n]', 'lo:hi:lin[:n]', or comma list",
    )
    p.add_argument("--output", default="polarization.csv")
    p.set_defaults(handler=_cmd_polarization)

    p = sub.add_parser("spectrum", help="cw spectrum and peak report")
    p.add_argument("--config", default=None, help="INI file; defaults used if absent")
    p.add_argument("--output", default="spectrum.csv")
    p.add_argument("--peaks-output", default="peaks.csv")
    p.set_defaults(handler=_cmd_spectrum)

    bath = pulse_sim.BathNoiseConfig()
    p = sub.add_parser("simulate", help="stochastic pulse-sequence traces")
    p.add_argument(
        "--sequence",
        type=_sequence_name,
        default=pulse_sim.SEQUENCE_HAHN,
        help=f"'{pulse_sim.SEQUENCE_HAHN}' (or 'hahn') | '{pulse_sim.SEQUENCE_INVERSION}'",
    )
    p.add_argument("--seed", type=int, default=bath.seed)
    p.add_argument("--output", default="trace.csv")
    p.add_argument("--temperature-k", "--temp", type=float, default=bath.temperature)
    p.add_argument("--t-zeeman-k", type=float, default=bath.t_zeeman)
    p.add_argument(
        "--tau-max-s",
        type=float,
        default=None,
        help=f"longest delay (default: {_HAHN_TAU_MAX_S:g} for a Hahn echo, "
        f"{_INVERSION_TAU_MAX_T1:g} x --t1-s for inversion recovery)",
    )
    p.add_argument("--tau-points", type=int, default=41)
    p.add_argument("--realizations", type=int, default=2000)
    p.add_argument("--sources", type=int, default=bath.n_sources)
    p.add_argument("--coupling-scale", type=float, default=bath.coupling_scale)
    p.add_argument("--base-rate", type=float, default=bath.base_rate)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--t1-s", type=float, default=1.2e-3, help="inversion recovery T1")
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(handler=_cmd_simulate)

    models = fitkit.registry()
    p = sub.add_parser("fit", help="fit a registry model to a data file")
    p.add_argument("--model", required=True, choices=sorted(models))
    p.add_argument("--data", required=True)
    p.add_argument(
        "--fix",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="pin a parameter (repeatable)",
    )
    p.add_argument(
        "--free",
        action="append",
        default=[],
        metavar="NAME",
        help="release a parameter the model fixes by default",
    )
    p.add_argument(
        "--init",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a starting value (repeatable)",
    )
    p.add_argument("--max-iterations", type=int, default=fitkit.DEFAULT_MAX_ITERATIONS)
    p.add_argument("--unweighted", action="store_true")
    p.add_argument("--output-prefix", default="fit")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("model-eval", help="evaluate a rate model on a grid")
    rate_laws = sorted(name for name, m in models.items() if m.time_unit_s)
    p.add_argument("--model", required=True, choices=rate_laws)
    p.add_argument(
        "--params",
        default=None,
        metavar="NAME=VALUE,...",
        help="model constants; defaults to the reference sample values",
    )
    p.add_argument("--temps", default="1.3:300:log:121")
    p.add_argument("--output", default="model_eval.csv")
    p.set_defaults(handler=_cmd_model_eval)

    return parser


# --- helpers ---------------------------------------------------------------


def _sequence_name(text: str) -> str:
    aliases = {
        "hahn": pulse_sim.SEQUENCE_HAHN,
        pulse_sim.SEQUENCE_HAHN: pulse_sim.SEQUENCE_HAHN,
        "inversion": pulse_sim.SEQUENCE_INVERSION,
        pulse_sim.SEQUENCE_INVERSION: pulse_sim.SEQUENCE_INVERSION,
    }
    try:
        return aliases[text]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown sequence {text!r} (want one of {sorted(set(aliases))})"
        )


def _outdir(args) -> str:
    return args.outdir or os.environ.get("NVBATH_OUTPUT_DIR") or "."


def _resolve(args, name: str) -> str:
    return name if os.path.isabs(name) else os.path.join(_outdir(args), name)


def _provenance(config: dict, seed=None) -> str:
    blob = json.dumps(config, sort_keys=True, default=str)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    line = f"nvbath {__version__} config_sha256={digest}"
    if seed is not None:
        line += f" seed={seed}"
    return line


def _parse_temps(text: str) -> np.ndarray:
    """'lo:hi:log[:n]' | 'lo:hi:lin[:n]' | 'v1,v2,...'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"bad temperature range {text!r} (want lo:hi:log[:n] or lo:hi:lin[:n])"
            )
        try:
            lo, hi = float(parts[0]), float(parts[1])
            n = int(parts[3]) if len(parts) == 4 else 101
        except ValueError:
            raise ValueError(f"non-numeric bound in temperature range {text!r}")
        mode = parts[2]
        if mode not in ("log", "lin"):
            raise ValueError(f"range mode must be 'log' or 'lin', got {mode!r}")
        if lo <= 0 or hi <= lo or n < 2:
            raise ValueError(f"bad temperature range {text!r}")
        if n > spectra.MAX_GRID_POINTS:  # refused before allocating the grid
            limit = spectra.MAX_GRID_POINTS
            raise ValueError(f"temperature range {text!r} has more than {limit} points")
        if mode == "log":
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)
    try:
        values = np.array([float(v) for v in text.split(",") if v.strip()])
    except ValueError:
        raise ValueError(f"non-numeric temperature in {text!r}")
    if values.size == 0 or np.any(values <= 0):
        raise ValueError(f"temperatures must be positive, got {text!r}")
    return values


def _parse_assignments(pairs, what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"bad {what} {pair!r} (want NAME=VALUE)")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ValueError(f"non-numeric value in {what} {pair!r}")
    return out


# --- subcommands ------------------------------------------------------------


def _cmd_polarization(args) -> int:
    if not 0 < args.frequency_hz < math.inf:
        raise ValueError("frequency must be positive and finite")
    t_zeeman = args.t_zeeman_k
    if t_zeeman is None:
        t_zeeman = spin_core.zeeman_temperature(args.frequency_hz)
    temps = _parse_temps(args.temps)
    config = {
        "command": "polarization",
        "frequency_hz": args.frequency_hz,
        "t_zeeman_k": t_zeeman,
        "temps": args.temps,
    }
    point = bath_model.polarization(temps, t_zeeman)
    flip_flop = bath_model.flip_flop_factor(temps, t_zeeman)
    path = _resolve(args, args.output)
    header = ("temperature_K", "polarization", "flip_flop_factor")
    rows = zip(temps, point.polarization, flip_flop)
    table.write(path, [_provenance(config)], header, rows)
    print(f"wrote {path}")
    return 0


_SPECTRUM_DEFAULTS = {
    "frequency_hz": 240e9,
    "temperature_k": 300.0,
    "field_start_t": spectra.DEFAULT_FIELD_START,
    "field_stop_t": spectra.DEFAULT_FIELD_STOP,
    "field_step_t": spectra.DEFAULT_FIELD_STEP,
    "tilt_deg": 0.0,
    "tilt_azimuth_deg": spin_core.DEFAULT_TILT_AZIMUTH_DEG,
}

_CENTER_DEFAULTS = {"n": spin_core.N_DEFAULT, "nv": spin_core.NV_DEFAULT}

_CENTER_FIELDS = (
    "g_parallel",
    "g_perp",
    "zero_field_d",
    "hyperfine_111",
    "hyperfine_other",
    "linewidth_pp",
)


def _load_spectrum_config(path):
    settings = dict(_SPECTRUM_DEFAULTS)
    populations = {"n": 1.0, "nv": 0.0}
    center_params = {k: v for k, v in _CENTER_DEFAULTS.items()}
    if path is None:
        return settings, populations, center_params
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:  # its messages span several lines
        raise ValueError(f"{path}: {' '.join(str(exc).split())}")
    for section in parser.sections():
        if section == "spectrum":
            for key, raw in parser.items(section):
                if key not in settings:
                    raise ValueError(f"{path}: unknown [spectrum] key {key!r}")
                settings[key] = _config_float(path, section, key, raw)
        elif section == "populations":
            for key, raw in parser.items(section):
                if key not in populations:
                    raise ValueError(
                        f"{path}: unknown center {key!r} in [populations]"
                    )
                populations[key] = _config_float(path, section, key, raw)
        elif section.startswith("center."):
            label = section.split(".", 1)[1]
            if label not in center_params:
                raise ValueError(f"{path}: unknown center section [{section}]")
            overrides = {}
            for key, raw in parser.items(section):
                if key not in _CENTER_FIELDS:
                    raise ValueError(f"{path}: unknown [{section}] key {key!r}")
                overrides[key] = _config_float(path, section, key, raw)
            center_params[label] = center_params[label].replace(**overrides)
        else:
            raise ValueError(f"{path}: unknown section [{section}]")
    return settings, populations, center_params


def _config_float(path, section, key, raw) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: [{section}] {key} = {raw!r} is not a finite number")
    return value


def _cmd_spectrum(args) -> int:
    settings, populations, center_params = _load_spectrum_config(args.config)
    centers = [
        (center_params[label], pop) for label, pop in populations.items() if pop > 0
    ]
    if not centers:
        raise ValueError("no center has a positive population")
    sticks = spectra.build_sticks(
        centers,
        frequency=settings["frequency_hz"],
        temperature=settings["temperature_k"],
        tilt_deg=settings["tilt_deg"],
        tilt_azimuth_deg=settings["tilt_azimuth_deg"],
    )
    spectrum = spectra.convolve(
        sticks,
        field_start=settings["field_start_t"],
        field_stop=settings["field_stop_t"],
        field_step=settings["field_step_t"],
    )
    report = spectra.analyze_peaks(spectrum)
    config = {
        "command": "spectrum",
        **settings,
        "populations": sorted(populations.items()),
    }
    provenance = _provenance(config)
    spectrum_path = _resolve(args, args.output)
    peaks_path = _resolve(args, args.peaks_output)
    spectra.write_spectrum_csv(spectrum, spectrum_path, header_lines=[provenance])
    spectra.write_peaks_csv(report, peaks_path, header_lines=[provenance])
    print(f"wrote {spectrum_path} and {peaks_path} ({len(report.peaks)} peaks)")
    return 0


def _cmd_simulate(args) -> int:
    inversion = args.sequence == pulse_sim.SEQUENCE_INVERSION
    if inversion and not 0 < args.t1_s < math.inf:
        raise ValueError("T1 must be positive and finite")
    tau_max = args.tau_max_s
    if tau_max is None:
        tau_max = _INVERSION_TAU_MAX_T1 * args.t1_s if inversion else _HAHN_TAU_MAX_S
    if args.tau_points < 2:
        raise ValueError("need at least two delay points")
    if not 0 < tau_max < math.inf:
        raise ValueError("delay maximum must be positive and finite")
    delays = np.linspace(0.0, tau_max, args.tau_points)
    if inversion:
        trace = pulse_sim.simulate_inversion_recovery(
            args.t1_s, delays, noise_amplitude=args.noise, seed=args.seed
        )
        config = {
            "command": "simulate",
            "sequence": args.sequence,
            "t1_s": args.t1_s,
            "tau_max_s": tau_max,
            "tau_points": args.tau_points,
            "noise": args.noise,
            "seed": args.seed,
        }
    else:
        cfg = pulse_sim.BathNoiseConfig(
            n_sources=args.sources,
            coupling_scale=args.coupling_scale,
            base_rate=args.base_rate,
            temperature=args.temperature_k,
            t_zeeman=args.t_zeeman_k,
            seed=args.seed,
        )
        trace = pulse_sim.simulate_hahn_echo(
            cfg, delays, args.realizations, threads=args.threads
        )
        config = {
            "command": "simulate",
            "sequence": args.sequence,
            "temperature_k": cfg.temperature,
            "t_zeeman_k": cfg.t_zeeman,
            "tau_max_s": tau_max,
            "tau_points": args.tau_points,
            "realizations": args.realizations,
            "n_sources": cfg.n_sources,
            "coupling_scale": cfg.coupling_scale,
            "base_rate": cfg.base_rate,
            "seed": args.seed,
        }
    path = _resolve(args, args.output)
    pulse_sim.write_trace_csv(
        trace, path, header_lines=[_provenance(config, seed=args.seed)]
    )
    print(f"wrote {path}")
    return 0


def _cmd_fit(args) -> int:
    model = fitkit.get_model(args.model)
    fix = _parse_assignments(args.fix, "--fix")
    init = _parse_assignments(args.init, "--init")
    known = set(model.param_names)
    for name in list(fix) + list(init) + list(args.free):
        if name not in known:
            raise ValueError(
                f"model {model.name} has no parameter {name!r}; "
                f"parameters: {', '.join(model.param_names)}"
            )
    fixed = dict(model.default_fixed)
    fixed.update(fix)
    for name in args.free:
        fixed.pop(name, None)

    if model.time_unit_s is None:
        trace = pulse_sim.read_trace_csv(args.data)
        x, y, err = trace.delays, trace.amplitude, trace.std_error
    else:
        dataset = datasets.load_csv(args.data)
        x, y, err = (
            np.array(v) for v in datasets.as_rate_data(dataset, model.time_unit_s)
        )
    sigma = None
    if not args.unweighted and np.all(np.asarray(err) > 0):
        sigma = err

    result = fitkit.fit(model, x, y, sigma, init, fixed, args.max_iterations)
    # A fit that did not converge is exit 3 and still writes its report.
    undetermined = np.array(model.param_names)[~np.isfinite(result.stderr)]
    if result.converged and undetermined.size:
        raise ValueError(f"the data do not determine {', '.join(undetermined)}")

    config = {
        "command": "fit",
        "model": model.name,
        "fixed": sorted(fixed.items()),
        "init": sorted(init.items()),
        "unweighted": bool(sigma is None),
        "max_iterations": args.max_iterations,
    }
    provenance = _provenance(config)
    csv_path = _resolve(args, args.output_prefix + ".csv")
    txt_path = _resolve(args, args.output_prefix + ".txt")
    table.write(
        csv_path,
        [provenance],
        ("parameter", "value", "stderr", "fixed"),
        zip(result.param_names, result.params, result.stderr, result.fixed),
    )
    with open(txt_path, "w", newline="\n") as fh:
        fh.write(f"# {provenance}\n")
        fh.write(_format_report(model, result))
    status = "converged" if result.converged else "did not converge"
    print(
        f"{model.name}: {status} after {result.n_iterations} iterations, "
        f"cost {result.cost:.6g}; wrote {csv_path} and {txt_path}"
    )
    return 0 if result.converged else 3


def _format_report(model: fitkit.ModelSpec, result: fitkit.FitResult) -> str:
    lines = [
        f"model: {result.model}",
        f"converged: {result.converged} ({result.message})",
        f"iterations: {result.n_iterations}",
        f"cost: {result.cost:.10g}",
        f"reduced_chisq: {result.reduced_chisq:.10g}",
        "",
    ]
    for name, unit, value, stderr, is_fixed in zip(
        result.param_names, model.param_units, result.params, result.stderr, result.fixed
    ):
        tag = " (fixed)" if is_fixed else f" +- {stderr:.4g}"
        unit_s = f" {unit}" if unit else ""
        lines.append(f"  {name} = {value:.8g}{tag}{unit_s}")
    return "\n".join(lines) + "\n"


def _cmd_model_eval(args) -> int:
    temps = _parse_temps(args.temps)
    params = _parse_assignments(args.params.split(",") if args.params else [], "--params")
    model = fitkit.get_model(args.model)
    defaults = dict(zip(model.param_names, model.reference))
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"{args.model} has no parameter(s) {sorted(unknown)}")
    merged = {**defaults, **params}
    # value_time is always seconds; the rate keeps the model's native unit.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rates = model.evaluate(np.array(list(merged.values())), temps)
        times = model.time_unit_s / rates
    # Rates are >= 0, so this also refuses a zero rate (an infinite time).
    if not np.all(np.isfinite(rates) & np.isfinite(times)):
        raise ValueError(f"{args.model} rate or time is 0 or overflows on this grid")
    rows = zip(temps, rates, times)
    config = {
        "command": "model-eval",
        "model": args.model,
        "params": sorted(merged.items()),
        "temps": args.temps,
    }
    path = _resolve(args, args.output)
    table.write(
        path, [_provenance(config)], ("temperature_K", "rate", "value_time"), rows
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
