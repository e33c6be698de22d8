"""Command-line front end.

Subcommands: ``polarization`` (bath polarization table), ``spectrum``
(cw spectrum plus peak report from a config file), ``simulate`` (stochastic
pulse sequences), ``fit`` (nonlinear model fits), and ``model-eval``
(closed-form rate models on a temperature grid).

Exit codes: 0 success, 2 usage error, 3 fit non-convergence, 4 I/O error.
Every out-of-domain flag, INI value or data cell raises ``ValueError`` in
the code that checks it, and only :func:`main` turns that into exit code 2
with one ``error:`` line. A command that succeeds (exit 0 or 3) prints each
``UserWarning`` it raised as one ``warning:`` line; a refused one, none.
Each command computes and returns its physics configuration and its
outputs; :func:`main` then writes every output, in order, and prints one
line. Outputs that resolve to one file are refused (exit 2) before any is
written. Every output file starts with a provenance comment carrying the
tool version, a hash of what the command applied, and the seed where one
applies. ``polarization`` and ``model-eval`` hash their temperature array,
``spectrum`` its settings with each populated center's spin parameters,
``simulate`` its delays with its ``BathNoiseConfig`` (or T1 and noise), and
``fit`` the ``(x, y, sigma)`` it fitted; an array counts by its float64
bytes, and -0 as 0. Execution knobs (worker count, output paths) are excluded
from the hash, so reruns of the same physics are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, bath_model, datasets, fitkit, pulse_sim, spectra
from . import spin_core, table
from ._domain import check, one_of


# Default delay span of inversion recovery: enough T1 for a fit to see the
# recovered plateau (a Hahn echo uses the temperature scan's delays).
_INVERSION_TAU_MAX_T1 = 5.0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code or 0)
    caught, show = [], warnings.showwarning

    def record(message, category, *where):  # any other warning is shown as before
        if not issubclass(category, UserWarning):
            return show(message, category, *where)
        caught.append(f"warning: {message}\n")

    try:
        with warnings.catch_warnings():
            warnings.showwarning = record
            config, outputs, summary, code = args.handler(args)
            config["command"] = args.command
            comments = [_provenance(config)]
            outdir = args.outdir or os.environ.get("NVBATH_OUTPUT_DIR") or "."
            paths = [os.path.join(outdir, name) for name, _ in outputs]
            if len({os.path.realpath(path) for path in paths}) < len(paths):
                raise ValueError(f"outputs {' and '.join(paths)} name one file")
            if not all(os.path.isabs(name) for name, _ in outputs):  # some land in outdir
                os.makedirs(outdir, exist_ok=True)
            for path, (_, write) in zip(paths, outputs):
                write(path, comments)
        sys.stderr.writelines(caught)
        print(summary(" and ".join(paths)))
        return code
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
    p.add_argument(
        "--frequency-hz", "--freq", type=float, default=spin_core.DEFAULT_FREQUENCY_HZ
    )
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
    # A sequence also answers to its first word: hahn, inversion.
    short = {s.split("_")[0]: s for s in pulse_sim.SEQUENCES}
    p = sub.add_parser("simulate", help="stochastic pulse-sequence traces")
    p.add_argument(
        "--sequence",
        type=lambda name: short.get(name, name),
        choices=pulse_sim.SEQUENCES,
        metavar="SEQUENCE",
        default=pulse_sim.SEQUENCE_HAHN,
        help=" | ".join(f"'{s}' (or '{word}')" for word, s in short.items()),
    )
    p.add_argument("--seed", type=int, default=bath.seed)
    p.add_argument("--output", default="trace.csv")
    p.add_argument("--temperature-k", "--temp", type=float, default=bath.temperature)
    p.add_argument("--t-zeeman-k", type=float, default=bath.t_zeeman)
    p.add_argument(
        "--tau-max-s",
        type=float,
        default=None,
        help=f"longest delay (default: {pulse_sim.DEFAULT_TAU_MAX_S:g} for a Hahn echo, "
        f"{_INVERSION_TAU_MAX_T1:g} x --t1-s for inversion recovery)",
    )
    p.add_argument("--tau-points", type=int, default=pulse_sim.DEFAULT_TAU_POINTS)
    p.add_argument("--realizations", type=int, default=pulse_sim.DEFAULT_REALIZATIONS)
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


def _provenance(config: dict) -> str:
    blob = json.dumps(_canonical(config), sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    line = f"nvbath {__version__} config_sha256={digest}"
    if "seed" in config:
        line += f" seed={config['seed']}"
    return line


def _canonical(value):
    """``value`` as hashed: an array as the sha256 of its float64 bytes, -0.0 as 0.0."""
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        return hashlib.sha256((np.asarray(value, float) + 0.0).tobytes()).hexdigest()
    return value + 0.0 if isinstance(value, float) else value


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
        except ValueError:
            raise ValueError(f"non-numeric bound in temperature range {text!r}")
        try:
            n = int(parts[3]) if len(parts) == 4 else 101
        except ValueError:
            raise ValueError(f"non-integer point count in temperature range {text!r}")
        mode = parts[2]
        one_of("range mode", ("log", "lin"), mode)
        if not 0 < lo < hi < math.inf or n < 2:  # before numpy sees an inf
            raise ValueError(f"bad temperature range {text!r}")
        if n > spectra.MAX_GRID_POINTS:  # refused before allocating the grid
            limit = spectra.MAX_GRID_POINTS
            raise ValueError(f"temperature range {text!r} has more than {limit} points")
        # 10**log10(hi), or (n - 1) lin steps plus lo, may round past the
        # float range; the ends are set to lo and hi, and an inner inf is
        # refused as a temperature.
        space = np.geomspace if mode == "log" else np.linspace
        with np.errstate(over="ignore"):
            return space(lo, hi, n)
    try:
        values = np.array([float(v) for v in text.split(",") if v.strip()])
    except ValueError:
        raise ValueError(f"non-numeric temperature in {text!r}")
    if values.size == 0:
        raise ValueError(f"no temperature in {text!r}")
    return check("temperature", values)


def _parse_assignments(pairs, what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"bad {what} {pair!r} (want NAME=VALUE)")
        try:
            out[name.strip()] = float(value) + 0.0  # -0 applies as 0
        except ValueError:
            raise ValueError(f"non-numeric value in {what} {pair!r}")
    return out


# --- subcommands ------------------------------------------------------------
#
# Each returns (config, outputs, summary, exit code): the physics config to
# hash, a list of (file name, write(path, comments)), and summary(paths), the
# stdout line given the written paths joined by " and ".

_WROTE = "wrote {}".format


def _table(header, columns):
    """The ``write(path, comments)`` of one ``table`` CSV file."""
    return lambda path, comments: table.write(path, comments, header, columns)


def _cmd_polarization(args):
    check("frequency", args.frequency_hz)
    t_zeeman = args.t_zeeman_k
    if t_zeeman is None:
        t_zeeman = spin_core.zeeman_temperature(args.frequency_hz)
    temps = _parse_temps(args.temps)
    config = {"t_zeeman_k": t_zeeman, "temps": temps}
    polarization = bath_model.polarization(temps, t_zeeman)
    flip_flop = bath_model.flip_flop_factor(temps, t_zeeman)
    header = ("temperature_K", "polarization", "flip_flop_factor")
    write = _table(header, (temps, polarization, flip_flop))
    return config, [(args.output, write)], _WROTE, 0


_SPECTRUM_DEFAULTS = {
    "frequency_hz": spin_core.DEFAULT_FREQUENCY_HZ,
    "temperature_k": 300.0,
    "field_start_t": spectra.DEFAULT_FIELD_START,
    "field_stop_t": spectra.DEFAULT_FIELD_STOP,
    "field_step_t": spectra.DEFAULT_FIELD_STEP,
    "tilt_deg": 0.0,
    "tilt_azimuth_deg": spin_core.DEFAULT_TILT_AZIMUTH_DEG,
}

_CENTER_DEFAULTS = {"n": spin_core.N_DEFAULT, "nv": spin_core.NV_DEFAULT}

# The spin parameters an INI [center.*] section may set, in field order.
_CENTER_FIELDS = tuple(
    f.name for f in dataclasses.fields(spin_core.CenterParams) if f.name not in ("label", "spin")
)


def _load_spectrum_config(path):
    """The INI file at ``path`` (defaults if None) read into one table,
    ``{section: {key: value}}``."""
    config = {"spectrum": dict(_SPECTRUM_DEFAULTS), "populations": {"n": 1.0, "nv": 0.0}}
    for label, params in _CENTER_DEFAULTS.items():
        config[f"center.{label}"] = {key: getattr(params, key) for key in _CENTER_FIELDS}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:  # its messages span several lines
            raise ValueError(" ".join(str(exc).split()))
        for section in parser.sections():
            one_of("section", config, section)
            for key, raw in parser.items(section):
                one_of(f"[{section}] key", config[section], key)
                value = config[section][key] = _config_float(section, key, raw)
                if section == "populations":
                    check(f"[populations] {key}", value, strict=False)
    return config


def _config_float(section, key, raw) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key} = {raw!r} is not a number") from None
    return check(f"[{section}] {key}", value, -math.inf)


def _cmd_spectrum(args):
    try:
        ini = _load_spectrum_config(args.config)
        settings, populations = ini["spectrum"], ini["populations"]
        # Every center's overrides are checked; those with a population apply.
        params = {
            label: dataclasses.replace(default, **ini[f"center.{label}"])
            for label, default in _CENTER_DEFAULTS.items()
        }
        live = [label for label, pop in populations.items() if pop > 0]
        if not live:
            raise ValueError("no center has a positive population")
        sticks = spectra.build_sticks(
            [(params[label], populations[label]) for label in live],
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
    except ValueError as exc:  # the defaults pass, so a refused value is the file's
        raise ValueError(f"{args.config}: {exc}") from None
    # Hashed as applied, defaults merged: a center with no population, or an
    # override equal to its default, leaves the hash as it is.
    config = {**settings, "populations": sorted(populations.items())}
    config.update((f"center.{label}", ini[f"center.{label}"]) for label in live)
    outputs = [
        (args.output, lambda path, lines: spectra.write_spectrum_csv(spectrum, path, lines)),
        (args.peaks_output, lambda path, lines: spectra.write_peaks_csv(report, path, lines)),
    ]
    return config, outputs, f"wrote {{}} ({len(report.peaks)} peaks)".format, 0


def _cmd_simulate(args):
    inversion = args.sequence == pulse_sim.SEQUENCE_INVERSION
    if inversion:
        check("T1", args.t1_s)
    tau_max = args.tau_max_s
    if tau_max is None:
        tau_max = (
            _INVERSION_TAU_MAX_T1 * args.t1_s if inversion else pulse_sim.DEFAULT_TAU_MAX_S
        )
    if not 2 <= args.tau_points <= spectra.MAX_GRID_POINTS:
        raise ValueError(f"need 2 to {spectra.MAX_GRID_POINTS} delay points")
    check("delay maximum", tau_max)
    delays = np.linspace(0.0, tau_max, args.tau_points)
    config = {"sequence": args.sequence, "delays": delays, "seed": args.seed}
    if inversion:
        trace = pulse_sim.simulate_inversion_recovery(
            args.t1_s, delays, noise_amplitude=args.noise, seed=args.seed
        )
        config.update(t1_s=args.t1_s, noise=args.noise)
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
        config.update(vars(cfg), realizations=args.realizations)
    outputs = [(args.output, lambda path, lines: pulse_sim.write_trace_csv(trace, path, lines))]
    return config, outputs, _WROTE, 0


def _cmd_fit(args):
    model = fitkit.get_model(args.model)
    fix = _parse_assignments(args.fix, "--fix")
    init = _parse_assignments(args.init, "--init")
    one_of(f"{model.name} parameter", model.param_names, *fix, *init, *args.free)
    fixed = dict(model.default_fixed)
    fixed.update(fix)
    for name in args.free:
        fixed.pop(name, None)

    if model.time_unit_s is None:
        trace = pulse_sim.read_trace_csv(args.data)
        x, y, err = trace.delays, trace.amplitude, trace.std_error
    else:
        dataset = datasets.load_csv(args.data)
        x, y, err = map(np.array, datasets.as_rate_data(dataset, model.time_unit_s))
    sigma = None if args.unweighted or not np.all(err > 0) else err

    result = fitkit.fit(model, x, y, sigma, init, fixed, args.max_iterations)
    # A fit that did not converge is exit 3 and still writes its report.
    undetermined = np.array(model.param_names)[~np.isfinite(result.stderr)]
    if result.converged and undetermined.size:
        raise ValueError(f"the data do not determine {', '.join(undetermined)}")

    config = {
        "model": model.name,
        "fixed": sorted(fixed.items()),
        "init": sorted(init.items()),
        "data": (x, y, sigma),
        "max_iterations": args.max_iterations,
    }
    header = ("parameter", "value", "stderr", "fixed")
    columns = (result.param_names, result.params, result.stderr, result.fixed)

    def write_report(path, comments):
        with open(path, "w", newline="\n") as fh:
            fh.writelines(f"# {comment}\n" for comment in comments)
            fh.write(_format_report(model, result))

    outputs = [
        (args.output_prefix + ".csv", _table(header, columns)),
        (args.output_prefix + ".txt", write_report),
    ]
    status = "converged" if result.converged else "did not converge"
    summary = (
        f"{model.name}: {status} after {result.n_iterations} iterations, "
        f"cost {result.cost:.6g}; wrote {{}}"
    )
    return config, outputs, summary.format, 0 if result.converged else 3


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


def _cmd_model_eval(args):
    temps = _parse_temps(args.temps)
    params = _parse_assignments(args.params.split(",") if args.params else [], "--params")
    model = fitkit.get_model(args.model)
    one_of(f"{model.name} parameter", model.param_names, *params)
    merged = {**dict(zip(model.param_names, model.reference)), **params}
    # value_time is always seconds; the rate keeps the model's native unit.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rates = model.evaluate(np.array(list(merged.values())), temps)
        times = model.time_unit_s / rates
    # Rates are >= 0, so this also refuses a zero rate (an infinite time).
    if not np.all(np.isfinite(rates) & np.isfinite(times)):
        raise ValueError(f"{args.model} rate or time is 0 or overflows on this grid")
    config = {"model": args.model, "params": sorted(merged.items()), "temps": temps}
    write = _table(("temperature_K", "rate", "value_time"), (temps, rates, times))
    return config, [(args.output, write)], _WROTE, 0


if __name__ == "__main__":
    sys.exit(main())
