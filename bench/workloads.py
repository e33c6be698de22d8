"""The four benchmark workloads and their correctness checks.

Every workload builds its inputs from the benchmark seed in ``prepare``
(outside the timed region), runs one closed-loop iteration in ``run``
through nvbath's public entry points (``nvbath.cli.main`` or
``pulse_sim.effective_t2_scan``), and verifies the iteration's output files
in ``check``, which returns a list of failure messages; ``outputs`` names
the files whose sha256 is recorded. ``warmup`` runs the
same code path at a reduced size into the same output files.

The checks compare against values the benchmark derives itself (generating
parameters, closed forms, first-order line positions), except where a check
is about nvbath's own round trip (``read_trace_csv``) or fit.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from nvbath import bath_model, cli, fitkit, pulse_sim, spin_core

# Captured before any tracer wraps the module attribute, so trace hooks can
# call it without recording a span.
EFFECTIVE_RATE = pulse_sim.effective_rate

# Exact SI-2019 constants, kept here so the spectrum check shares no code
# with nvbath.spin_core.
PLANCK_H = 6.62607015e-34
BOHR_MAGNETON = 9.2740100783e-24


class Workload:
    name = ""

    def prepare(self, seed: int, workdir: Path, small: bool = False) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Write the benchmark's own record of an in-memory result, if any."""

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def probes(self) -> dict[str, float]:
        """Direct, untraced timings of layers the wrappers cannot see."""
        return {}


def _cli(args: list[str]) -> None:
    rc = cli.main(args)
    if rc != 0:
        raise RuntimeError(f"nvbath {' '.join(args[2:4])} exited {rc}")


def _read_rows(path: Path) -> list[list[str]]:
    """Comma-split rows of a CSV, header included, comments skipped."""
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh
                if line.strip() and not line.startswith("#")]


def _within(value: float, target: float, band: float) -> bool:
    return abs(value - target) <= band * abs(target)


def _time_couplings(configs: list[pulse_sim.BathNoiseConfig], realizations: int) -> float:
    start = perf_counter()
    for cfg in configs:
        for r in range(realizations):
            pulse_sim.sample_couplings(cfg, r)
    return perf_counter() - start


# --- echo_hot ---------------------------------------------------------------

# Calibration target of the default bath (pulse_sim.BathNoiseConfig).
ECHO_T2_S = 6.7e-6
ECHO_T2_BAND = 0.15


class EchoHot(Workload):
    """`nvbath simulate` at its defaults: Hahn echo, 300 K, 100 sources,
    2000 realizations, 41 delays up to 25 us. The hot bath has the most
    switching events per source, so the echo kernel does the most work."""

    name = "echo_hot"
    tau_max_s = 25e-6
    tau_points = 41
    sources = 100

    def prepare(self, seed, workdir, small=False):
        self.seed = seed
        self.out = workdir / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.realizations = 100 if small else 2000
        self.threads = 1

    @property
    def output_name(self) -> str:
        return "trace.csv" if self.threads == 1 else f"trace_t{self.threads}.csv"

    def _args(self, realizations: int) -> list[str]:
        return [
            "--outdir", str(self.out), "simulate", "--sequence", "hahn_echo",
            "--seed", str(self.seed), "--temperature-k", "300",
            "--tau-max-s", repr(self.tau_max_s), "--tau-points", str(self.tau_points),
            "--realizations", str(realizations), "--sources", str(self.sources),
            "--threads", str(self.threads), "--output", self.output_name,
        ]

    def warmup(self):
        _cli(self._args(50))

    def run(self):
        _cli(self._args(self.realizations))

    def outputs(self):
        return [self.out / self.output_name]

    def check(self):
        path = self.out / self.output_name
        fails = []
        rows = _read_rows(path)
        if rows[0] != ["delay_s", "amplitude", "std_error"]:
            return [f"{path.name}: bad header {rows[0]}"]
        own = np.array([[float(v) for v in row] for row in rows[1:]])
        trace = pulse_sim.read_trace_csv(path)
        for k, column in enumerate((trace.delays, trace.amplitude, trace.std_error)):
            if not np.array_equal(column, own[:, k]):
                fails.append(f"read_trace_csv column {k} differs from the file")
        delays = np.linspace(0.0, self.tau_max_s, self.tau_points)
        if not np.array_equal(own[:, 0], delays):
            fails.append("delay column is not the requested grid")
        if trace.n_realizations != self.realizations or trace.seed != self.seed:
            fails.append("trace metadata does not match the command")
        if own[0, 1] != 1.0:
            fails.append(f"amplitude at tau = 0 is {own[0, 1]!r}, not 1")
        if np.any(np.abs(own[:, 1]) > 1.0):
            fails.append("|amplitude| exceeds 1")
        result = fitkit.fit(fitkit.get_model("echo_decay"), own[:, 0], own[:, 1])
        t2 = float(result.params[1])
        if not result.converged or not _within(t2, ECHO_T2_S, ECHO_T2_BAND):
            fails.append(
                f"echo_decay fit T2 = {t2:.4g} s (converged {result.converged}), "
                f"want {ECHO_T2_S:g} s +- {ECHO_T2_BAND:.0%}"
            )
        return fails

    def probes(self):
        cfg = pulse_sim.BathNoiseConfig(temperature=300.0, seed=self.seed, n_sources=self.sources)
        return {"pulse_sim.couplings_s": _time_couplings([cfg], self.realizations)}


# --- quench_scan ------------------------------------------------------------

QUENCH_MIN_RATIO = 10.0


class QuenchScan(Workload):
    """`pulse_sim.effective_t2_scan` on the default bath from the hot limit
    down to 0.01 T_Ze: the paper's T2-versus-temperature result. It runs the
    echo kernel in the frozen regime, where the fixed per-realization cost
    dominates, plus one echo_decay fit per temperature.

    1000 realizations instead of the scan's default 2000 halve the
    iteration to about 4.5 s, so a run holds several iterations; the
    1e9 K -> 20 K rise of T2 stays about 3 seed-to-seed standard deviations
    above zero."""

    name = "quench_scan"

    def prepare(self, seed, workdir, small=False):
        self.out = workdir / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.cfg = pulse_sim.BathNoiseConfig(seed=seed)
        self.temperatures = (1e9, 20.0, 8.0, 4.0, 2.0, 0.01 * self.cfg.t_zeeman)
        self.realizations = 200 if small else 1000
        self.scan: list[tuple[float, float]] = []

    def warmup(self):
        pulse_sim.effective_t2_scan(self.cfg, self.temperatures[:2], n_realizations=50)

    def run(self):
        self.scan = pulse_sim.effective_t2_scan(
            self.cfg, self.temperatures, n_realizations=self.realizations, threads=1
        )

    def finish(self):
        with open(self.out / "quench.csv", "w", newline="\n") as fh:
            fh.write("temperature_K,T2_s\n")
            for t, t2 in self.scan:
                fh.write(f"{t:.17g},{t2:.17g}\n")

    def outputs(self):
        return [self.out / "quench.csv"]

    def check(self):
        t2 = [value for _, value in self.scan]
        fails = []
        if len(t2) != len(self.temperatures):
            return [f"scan returned {len(t2)} points for {len(self.temperatures)} temperatures"]
        if not all(math.isfinite(v) and v > 0 for v in t2):
            fails.append(f"non-positive or non-finite T2 in {t2}")
        if not all(b > a for a, b in zip(t2, t2[1:])):
            fails.append(f"T2 does not rise strictly on cooling: {t2}")
        if not t2[-1] / t2[0] >= QUENCH_MIN_RATIO:
            fails.append(f"T2(0.01 T_Ze)/T2(hot) = {t2[-1] / t2[0]:.3g} < {QUENCH_MIN_RATIO}")
        return fails

    def probes(self):
        configs = [replace(self.cfg, temperature=t) for t in self.temperatures]
        return {"pulse_sim.couplings_s": _time_couplings(configs, self.realizations)}


# --- spectrum ---------------------------------------------------------------

SPECTRUM_TEMPERATURE_K = 4.0
SPECTRUM_TILT_DEG = 3.0
SPECTRUM_AZIMUTH_DEG = 15.0
SPECTRUM_NV_POPULATION = 0.3
# Recorded for this config: 5 nitrogen lines (the inclined orientations
# coincide, g being isotropic) plus one unresolved hyperfine triplet for each
# of the four N-V orientations, which the 3 degree tilt splits apart.
SPECTRUM_PEAKS = 9


def _orientation_cosines(tilt_deg: float, azimuth_deg: float) -> np.ndarray:
    """cos(theta) of the four <111> axes for a field tilted from [111]."""
    axes = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)
    n1 = axes[0]
    u = axes[1] - (axes[1] @ n1) * n1
    u /= np.linalg.norm(u)
    v = np.cross(n1, u)
    t, a = math.radians(tilt_deg), math.radians(azimuth_deg)
    b = math.cos(t) * n1 + math.sin(t) * (math.cos(a) * u + math.sin(a) * v)
    return axes @ b


def _expected_lines(frequency: float) -> list[tuple[float, float]]:
    """(field, linewidth) of every first-order line of the N + N-V config.

    ``B = h (nu + zfs - m_i A) / (g mu_B)``; A is the on-axis constant for
    the axis nearest the field and the inclined one otherwise.
    """
    cosines = _orientation_cosines(SPECTRUM_TILT_DEG, SPECTRUM_AZIMUTH_DEG)
    lines = []
    for center in (spin_core.N_DEFAULT, spin_core.NV_DEFAULT):
        for k, c in enumerate(cosines):
            a_hf = center.hyperfine_111 if k == 0 else center.hyperfine_other
            # |-1> <-> |0> branch for N-V; none for the spin-1/2 nitrogen.
            zfs = center.zero_field_d * 0.5 * (3.0 * c * c - 1.0)
            for m_i in (-1.0, 0.0, 1.0):
                nu = frequency + zfs - m_i * a_hf
                field = PLANCK_H * nu / (center.g_parallel * BOHR_MAGNETON)
                lines.append((field, center.linewidth_pp))
    return lines


class SpectrumRun(Workload):
    """`nvbath spectrum --config` for an N + N-V mixture at 4 K and 3 degree
    tilt on the default 8.40-8.75 T grid at 2 uT. Runs spin_core and
    spectra, bypasses pulse_sim, and writes a 175 001-row CSV."""

    name = "spectrum"

    def prepare(self, seed, workdir, small=False):
        self.out = workdir / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        # The seed moves the spectrometer frequency within +-100 MHz, which
        # shifts every line by a few mT and keeps them all on the grid.
        rng = np.random.default_rng(seed)
        self.frequency = 240e9 + float(rng.uniform(-100e6, 100e6))
        step = 2e-5 if small else 2e-6
        self.ini = self._write_ini("sample.ini", step)
        self.grid_points = int(math.floor((8.75 - 8.40) / step)) + 1

    def _write_ini(self, name: str, step: float) -> Path:
        parser = configparser.ConfigParser()
        parser["spectrum"] = {
            "frequency_hz": repr(self.frequency),
            "temperature_k": repr(SPECTRUM_TEMPERATURE_K),
            "field_start_t": "8.40",
            "field_stop_t": "8.75",
            "field_step_t": repr(step),
            "tilt_deg": repr(SPECTRUM_TILT_DEG),
            "tilt_azimuth_deg": repr(SPECTRUM_AZIMUTH_DEG),
        }
        parser["populations"] = {"n": "1.0", "nv": repr(SPECTRUM_NV_POPULATION)}
        path = self.out / name
        with open(path, "w") as fh:
            parser.write(fh)
        return path

    def _args(self, config: Path) -> list[str]:
        return [
            "--outdir", str(self.out), "spectrum", "--config", str(config),
            "--output", "spectrum.csv", "--peaks-output", "peaks.csv",
        ]

    def warmup(self):
        _cli(self._args(self._write_ini("warmup.ini", 1e-4)))

    def run(self):
        _cli(self._args(self.ini))

    def outputs(self):
        return [self.out / "spectrum.csv", self.out / "peaks.csv"]

    def check(self):
        fails = []
        with open(self.out / "spectrum.csv") as fh:
            rows = sum(1 for line in fh if line[0].isdigit())
        if rows != self.grid_points:
            fails.append(f"spectrum has {rows} rows, want {self.grid_points}")
        rows = _read_rows(self.out / "peaks.csv")
        centers = [float(row[0]) for row in rows[1:]]
        if len(centers) != SPECTRUM_PEAKS:
            fails.append(f"{len(centers)} peaks, want {SPECTRUM_PEAKS}")
        lines = _expected_lines(self.frequency)
        for center in centers:
            if not any(abs(center - field) <= width for field, width in lines):
                fails.append(f"peak at {center:.6f} T is not within one linewidth of a line")
        return fails

    def probes(self):
        """Time the config's transitions through spin_core directly.

        spectra binds spin_core's helpers with ``from ... import``, so the
        wrappers never see them; this replays the same evaluations.
        """
        centers = (spin_core.N_DEFAULT, spin_core.NV_DEFAULT)
        repeats = 50
        start = perf_counter()
        for _ in range(repeats):
            count = 0
            orientations = spin_core.tetrahedral_orientations(
                SPECTRUM_TILT_DEG, SPECTRUM_AZIMUTH_DEG
            )
            for center in centers:
                for orient in orientations:
                    for m_lo, m_hi in spin_core.observed_transitions(center):
                        for m_i in (-1.0, 0.0, 1.0):
                            spec = spin_core.TransitionSpec(center, orient, m_lo, m_hi, m_i)
                            spin_core.resonance_field(spec, self.frequency)
                            count += 1
        return {
            "spin_core.resonance_s": (perf_counter() - start) / repeats,
            "spin_core.transitions": float(count),
        }


# --- fit_batch --------------------------------------------------------------

FITS_PER_MODEL = 32
FIT_BAND = 0.15
NOISE = 0.01
TABLE_NOISE = 0.02
T1_TABLE_K = np.geomspace(4.0, 300.0, 25)
T2_TABLE_K = np.geomspace(1.5, 300.0, 25)


class FitBatch(Workload):
    """One `nvbath fit` per generated dataset (32 per registry model) plus
    32 x (`model-eval` t1_model and t2_model, and `polarization`) on their
    default grids. The only workload where fitkit, bath_model, the dataset
    and trace readers and the per-command CLI cost do the work."""

    name = "fit_batch"

    def prepare(self, seed, workdir, small=False):
        self.out = workdir / self.name
        self.data = self.out / "data"
        self.data.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        n = 2 if small else FITS_PER_MODEL
        self.fits: list[tuple[str, Path, dict[str, float]]] = []
        self.evals: list[tuple[dict[str, float], dict[str, float]]] = []
        tau = np.linspace(0.0, 25e-6, 41)
        delays = np.linspace(0.0, 8e-3, 41)
        for i in range(n):
            truth = {"amplitude": float(rng.uniform(0.8, 1.0)),
                     "T2": float(rng.uniform(4e-6, 12e-6))}
            y = truth["amplitude"] * np.exp(-2.0 * tau / truth["T2"])
            path = self.data / f"echo_{i:02d}.csv"
            self._write_trace(path, "hahn_echo", tau, y + NOISE * rng.standard_normal(tau.size))
            self.fits.append(("echo_decay", path, truth))

            truth = {"y0": 1.0, "amplitude": 2.0, "T1": float(rng.uniform(0.6e-3, 2.0e-3))}
            y = truth["y0"] - truth["amplitude"] * np.exp(-delays / truth["T1"])
            path = self.data / f"recovery_{i:02d}.csv"
            self._write_trace(path, "inversion_recovery", delays,
                              y + NOISE * rng.standard_normal(delays.size))
            self.fits.append(("inversion_recovery", path, truth))

            t1 = {"A": 8.0e-3 * float(rng.uniform(0.7, 1.3)),
                  "B": 3.5e-10 * float(rng.uniform(0.7, 1.3))}
            params = bath_model.T1ModelParams(t1["A"], t1["B"])
            values = [bath_model.t1_time(float(t), params) for t in T1_TABLE_K]
            path = self.data / f"t1_{i:02d}.csv"
            self._write_table(path, T1_TABLE_K, values, rng)
            self.fits.append(("t1_model", path, t1))

            t2 = {"C": 0.58136 * float(rng.uniform(0.8, 1.2)),
                  "T_Ze": float(rng.uniform(11.0, 18.0))}
            params = bath_model.T2ModelParams(t2["C"], t2["T_Ze"], 0.004)
            values = [bath_model.t2_time(float(t), params) for t in T2_TABLE_K]
            path = self.data / f"t2_{i:02d}.csv"
            self._write_table(path, T2_TABLE_K, values, rng)
            self.fits.append(("t2_model", path, t2))
            self.evals.append((t1, t2))

    @staticmethod
    def _write_trace(path, sequence, x, y):
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# sequence={sequence} n_realizations=1 seed=0\n")
            fh.write("delay_s,amplitude,std_error\n")
            for a, b in zip(x, y):
                fh.write(f"{a:.17g},{b:.17g},{NOISE:.17g}\n")

    @staticmethod
    def _write_table(path, temps, values, rng):
        with open(path, "w", newline="\n") as fh:
            fh.write("temperature_K,value_s,error_s\n")
            for t, v in zip(temps, values):
                noisy = v * (1.0 + TABLE_NOISE * rng.standard_normal())
                fh.write(f"{t:.17g},{noisy:.17g},{TABLE_NOISE * v:.17g}\n")

    def _commands(self, n: int):
        """The commands for the first n datasets of each kind."""
        for i, (model, path, _) in enumerate(self.fits[: 4 * n]):
            yield ["fit", "--model", model, "--data", str(path),
                   "--output-prefix", f"fit_{i:03d}"]
        for i, (t1, t2) in enumerate(self.evals[:n]):
            yield ["model-eval", "--model", "t1_model",
                   "--params", f"A={t1['A']!r},B={t1['B']!r}",
                   "--output", f"t1_eval_{i:02d}.csv"]
            yield ["model-eval", "--model", "t2_model",
                   "--params", f"C={t2['C']!r},T_Ze={t2['T_Ze']!r},Gamma_res=0.004",
                   "--output", f"t2_eval_{i:02d}.csv"]
            yield ["polarization", "--t-zeeman-k", repr(t2["T_Ze"]),
                   "--output", f"polarization_{i:02d}.csv"]

    def warmup(self):
        for args in self._commands(1):
            _cli(["--outdir", str(self.out)] + args)

    def run(self):
        for args in self._commands(len(self.evals)):
            _cli(["--outdir", str(self.out)] + args)

    def outputs(self):
        paths = []
        for i in range(len(self.fits)):
            paths += [self.out / f"fit_{i:03d}.csv", self.out / f"fit_{i:03d}.txt"]
        for i in range(len(self.evals)):
            paths += [self.out / f"t1_eval_{i:02d}.csv", self.out / f"t2_eval_{i:02d}.csv",
                      self.out / f"polarization_{i:02d}.csv"]
        return paths

    def check(self):
        fails = []
        for i, (model, _, truth) in enumerate(self.fits):
            rows = _read_rows(self.out / f"fit_{i:03d}.csv")
            fitted = {row[0]: float(row[1]) for row in rows[1:] if row[3] == "0"}
            if set(fitted) != set(truth):
                fails.append(f"fit {i} ({model}) freed {sorted(fitted)}, want {sorted(truth)}")
                continue
            for name, value in fitted.items():
                if not _within(value, truth[name], FIT_BAND):
                    fails.append(
                        f"fit {i} ({model}) {name} = {value:.5g}, generated "
                        f"{truth[name]:.5g} (band {FIT_BAND:.0%})"
                    )
        for i, (t1, t2) in enumerate(self.evals):
            fails += _check_rates(self.out / f"t1_eval_{i:02d}.csv",
                                  lambda t: t1["A"] * t + t1["B"] * t**5, 1.0)
            fails += _check_rates(self.out / f"t2_eval_{i:02d}.csv",
                                  lambda t: t2["C"] * _flip_flop(t, t2["T_Ze"]) + 0.004,
                                  1e-6)
            rows = _read_rows(self.out / f"polarization_{i:02d}.csv")
            for row in rows[1:]:
                t, p, ff = (float(v) for v in row)
                if not (_within(p, math.tanh(0.5 * t2["T_Ze"] / t), 1e-12)
                        and _within(ff, _flip_flop(t, t2["T_Ze"]), 1e-12)):
                    fails.append(f"polarization {i} wrong at T = {t} K")
                    break
        return fails


def _flip_flop(t: float, t_ze: float) -> float:
    return 0.25 / math.cosh(0.5 * t_ze / t) ** 2


def _check_rates(path: Path, rate, seconds_per_unit: float) -> list[str]:
    rows = _read_rows(path)
    if len(rows) - 1 != 121:
        return [f"{path.name}: {len(rows) - 1} rows, want the 121-point default grid"]
    for row in rows[1:]:
        t, r, time_s = (float(v) for v in row)
        if not (_within(r, rate(t), 1e-12) and _within(time_s, seconds_per_unit / r, 1e-15)):
            return [f"{path.name}: wrong rate at T = {t} K"]
    return []


WORKLOADS = {w.name: w for w in (EchoHot, QuenchScan, SpectrumRun, FitBatch)}
