"""Top-level acceptance checks, one test per release criterion.

Each test prints a single ``criterion N PASS/FAIL`` line with the measured
numbers (visible with ``pytest -s`` and in failure output), and asserts the
same condition, so ``pytest -v`` gives one verdict line per criterion.
"""

import time

import numpy as np
import pytest

from nvbath import bath_model, cli, datasets, fitkit, pulse_sim, spectra, spin_core

import rtn_oracle


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_polarization_at_2k():
    start = time.time()
    t_ze = spin_core.zeeman_temperature(240e9)
    p = bath_model.polarization(2.0, t_ze)
    elapsed = time.time() - start
    ok = abs(p - 0.994) <= 0.001 and elapsed < 1.0
    _report(1, ok, f"polarization(240 GHz, 2 K) = {p:.6f}, target 0.994 +- 0.001")


def test_criterion_02_zeeman_temperature():
    t_ze = spin_core.zeeman_temperature(240e9)
    ok = abs(t_ze - 11.52) <= 0.01
    _report(2, ok, f"zeeman_temperature(240 GHz) = {t_ze:.4f} K, target 11.52 +- 0.01")


def test_criterion_03_t2_model_regression():
    start = time.time()
    params = bath_model.T2ModelParams(0.58136, 14.7, 0.004)
    t2_300 = bath_model.t2_time(300.0, params)
    t2_20 = bath_model.t2_time(20.0, params)
    t2_2 = bath_model.t2_time(2.0, params)
    elapsed = time.time() - start
    ok_300 = abs(t2_300 - 6.7e-6) <= 0.01 * 6.7e-6
    ok_20 = abs(t2_20 - 8.3e-6) <= 0.7e-6
    ok_2 = abs(t2_2 - 250e-6) <= 0.15 * 250e-6
    ok = ok_300 and ok_20 and ok_2 and elapsed < 1.0
    _report(
        3,
        ok,
        f"T2 = {t2_300 * 1e6:.3f} / {t2_20 * 1e6:.3f} / {t2_2 * 1e6:.1f} us "
        f"at 300 / 20 / 2 K, targets 6.7 (1%) / 8.3 +- 0.7 / 250 (15%)",
    )


def test_criterion_04_t1_model_regression():
    params = bath_model.T1ModelParams(8.0e-3, 3.5e-10)
    t1_300 = bath_model.t1_time(300.0, params)
    crossover = params.crossover_temperature_k
    ok = 1.0e-3 <= t1_300 <= 1.5e-3 and abs(crossover - 69.1) <= 0.1
    _report(
        4,
        ok,
        f"T1(300 K) = {t1_300 * 1e3:.3f} ms in [1.0, 1.5], "
        f"crossover = {crossover:.3f} K, target 69.1 +- 0.1",
    )


def test_criterion_05_spectrum_peaks():
    start = time.time()
    sticks = spectra.build_sticks(
        [(spin_core.N_DEFAULT, 1.0)], frequency=240e9, temperature=300.0
    )
    report = spectra.analyze_peaks(spectra.convolve(sticks))
    centers = np.array([p.center_field_t for p in report.peaks])
    widths = np.array([p.pp_width_t for p in report.peaks])

    on_axis = spin_core.Orientation("o111", 1.0)
    b0 = spin_core.resonance_field(
        spin_core.TransitionSpec(spin_core.N_DEFAULT, on_axis, -0.5, 0.5, 0.0), 240e9
    )
    expected_offsets = np.array(
        [
            -0.004067639730631698,
            -0.0030685703231081232,
            0.0,
            0.0030685703231081232,
            0.004067639730631698,
        ]
    )
    grid_step = spectra.DEFAULT_FIELD_STEP

    nv_sticks = spectra.build_sticks(
        [(spin_core.NV_DEFAULT, 1.0)], frequency=240e9, temperature=300.0
    )
    nv_peaks = spectra.analyze_peaks(spectra.convolve(nv_sticks)).peaks
    elapsed = time.time() - start

    ok_count = centers.size == 5
    ok_near = ok_count and abs(centers[2] - 8.563) < 0.001
    ok_offsets = ok_count and np.all(
        np.abs(centers - b0 - expected_offsets) <= 2e-6
    )
    ok_width = ok_count and np.all(np.abs(widths - 0.95e-4) <= grid_step)
    ok_nv = len(nv_peaks) == 2 and nv_peaks[1].center_field_t > nv_peaks[0].center_field_t
    ok = ok_count and ok_near and ok_offsets and ok_width and ok_nv and elapsed < 10.0
    _report(
        5,
        ok,
        f"{centers.size} peaks at 8.563 T, max offset error "
        f"{np.max(np.abs(centers - b0 - expected_offsets)) * 1e6:.3f} uT (<= 2), "
        f"widths {widths.min() * 1e4:.4f}-{widths.max() * 1e4:.4f} G "
        f"(0.95 +- grid step), on-axis above off-axis: {ok_nv}, {elapsed:.1f} s",
    )


def test_criterion_06_fit_round_trips():
    start = time.time()
    cases = {
        "echo_decay": ([1.0, 7e-6], np.linspace(0.0, 25e-6, 21)),
        "inversion_recovery": ([1.0, 2.0, 1.2e-3], np.linspace(0.0, 8e-3, 25)),
        "t1_model": ([8.0e-3, 3.5e-10], np.geomspace(10.0, 300.0, 12)),
        "t2_model": ([0.58136, 14.7, 0.004], np.geomspace(1.7, 300.0, 13)),
    }
    worst = 0.0
    for name, (true, x) in cases.items():
        model = fitkit.get_model(name)
        true = np.asarray(true, dtype=float)
        result = fitkit.fit(model, x, model.evaluate(true, x))
        assert result.converged, name
        free = ~np.asarray(result.fixed)
        rel = np.max(np.abs(result.params[free] - true[free]) / np.abs(true[free]))
        worst = max(worst, float(rel))
    ok_clean = worst <= 1e-6

    model = fitkit.get_model("t2_model")
    true = np.array([0.58136, 14.7, 0.004])
    temps = cases["t2_model"][1]
    y_true = model.evaluate(true, temps)
    sigma = 0.05 * y_true
    rng = np.random.default_rng(20260814)
    errors = []
    for _ in range(200):
        y = y_true + sigma * rng.standard_normal(y_true.size)
        result = fitkit.fit(model, temps, y, sigma=sigma)
        assert result.converged
        errors.append(abs(result.params[1] - 14.7))
    median = float(np.median(errors))
    elapsed = time.time() - start
    ok = ok_clean and median <= 0.8 and elapsed < 60.0
    _report(
        6,
        ok,
        f"noiseless worst rel error {worst:.2e} (<= 1e-6), noisy study median "
        f"T_Ze error {median:.3f} K (<= 0.8), {elapsed:.1f} s",
    )


def test_criterion_07_simulator_against_oracle():
    start = time.time()
    cfg = pulse_sim.BathNoiseConfig(
        n_sources=1,
        fixed_couplings=(1e5,),
        base_rate=1e5,
        temperature=1e12,
        t_zeeman=11.518,
        seed=1,
    )
    tau = np.linspace(0.0, 50e-6, 26)
    n = 10000
    trace = pulse_sim.simulate_hahn_echo(cfg, tau, n)
    mean, err = rtn_oracle.hahn_echo_fixed_step(
        1e5, pulse_sim.effective_rate(cfg), tau, n, seed=2
    )
    elapsed = time.time() - start
    assert trace.amplitude[0] == mean[0] == 1.0
    combined = np.hypot(trace.std_error[1:], err[1:])
    z = np.abs(trace.amplitude[1:] - mean[1:]) / combined
    worst = float(np.max(z))
    ok = worst < 3.0 and elapsed < 120.0
    _report(
        7,
        ok,
        f"single-source echo vs fixed-step oracle, max |z| = {worst:.2f} "
        f"(< 3 combined SE) over {tau.size} delays, {elapsed:.1f} s",
    )


def test_criterion_08_quench_scan():
    start = time.time()
    cfg = pulse_sim.BathNoiseConfig()
    temps = (1e9, 20.0, 8.0, 4.0, 2.0, 0.01 * cfg.t_zeeman)
    scan = pulse_sim.effective_t2_scan(cfg, temps)
    elapsed = time.time() - start
    t2 = [value for _, value in scan]
    increasing = all(b > a for a, b in zip(t2, t2[1:]))
    ratio = t2[-1] / t2[0]
    ok = increasing and ratio >= 10.0 and elapsed < 300.0
    _report(
        8,
        ok,
        f"T2 strictly increasing on cooling: {increasing}, "
        f"T2(0.01 T_Ze)/T2(hot) = {ratio:.3g} (>= 10), {elapsed:.1f} s",
    )


def test_criterion_09_thread_determinism(tmp_path):
    args = [
        "simulate",
        "--seed",
        "42",
        "--realizations",
        "400",
        "--output",
    ]
    blobs = []
    for threads in ("1", "2", "5"):
        name = f"trace_t{threads}.csv"
        rc = cli.main(
            ["--outdir", str(tmp_path)]
            + args
            + [name, "--threads", threads]
        )
        assert rc == 0
        blobs.append((tmp_path / name).read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(
        9,
        ok,
        f"simulate --threads 1/2/5 with one seed: byte-identical = {ok} "
        f"({len(blobs[0])} bytes)",
    )


def test_criterion_10_identity_suite():
    worst_identity = 0.0
    for t_ze in (1.0, 11.518, 14.7, 120.0):
        for t in np.geomspace(0.1, 1e4, 61):
            p = bath_model.polarization(float(t), t_ze)
            ff = bath_model.flip_flop_factor(float(t), t_ze)
            worst_identity = max(worst_identity, abs(ff - (1.0 - p * p) / 4.0))
    params = bath_model.DEFAULT_T2_PARAMS
    cold = abs(
        bath_model.t2_rate(params.t_zeeman_k / 100.0, params) - params.gamma_res_per_us
    )
    hot = abs(
        bath_model.t2_rate(1e7 * params.t_zeeman_k, params)
        - (params.c_per_us / 4.0 + params.gamma_res_per_us)
    )
    ok = worst_identity <= 1e-14 and cold <= 1e-12 and hot <= 1e-10
    _report(
        10,
        ok,
        f"flip-flop identity max dev {worst_identity:.2e} (<= 1e-14), "
        f"cold-limit dev {cold:.2e} (<= 1e-12), hot-limit dev {hot:.2e} (<= 1e-10)",
    )
