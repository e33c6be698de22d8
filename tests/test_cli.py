"""End-to-end runs of the command-line front end.

Exit-code contract: 0 success, 2 usage error, 3 fit non-convergence,
4 I/O error. Every run goes to a temp directory; nothing touches the cwd.
"""

import contextlib
import io
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvbath import bath_model, cli, datasets, fitkit, spectra

PROVENANCE = re.compile(r"^# nvbath \S+ config_sha256=[0-9a-f]{12}( seed=-?\d+)?$")


def _rows(path, columns):
    out = []
    with open(path) as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip()]
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == columns
    for line in data[1:]:
        out.append([float(v) for v in line.split(",")])
    return lines[0], out


class TestPolarization:
    def test_table_values(self, tmp_path):
        rc = cli.main(
            [
                "--outdir",
                str(tmp_path),
                "polarization",
                "--temps",
                "2,11.51818337607893,1000000",
            ]
        )
        assert rc == 0
        first, rows = _rows(
            tmp_path / "polarization.csv",
            "temperature_K,polarization,flip_flop_factor",
        )
        assert PROVENANCE.match(first)
        assert rows[0][1] == pytest.approx(0.9937118823841826, rel=1e-12)
        assert rows[1][1] == pytest.approx(0.46211715726000974, rel=1e-12)
        assert rows[2][1] < 1e-5
        for _, p, ff in rows:
            assert ff == pytest.approx((1.0 - p * p) / 4.0, abs=1e-15)

    def test_range_grid_size(self, tmp_path):
        rc = cli.main(
            ["--outdir", str(tmp_path), "polarization", "--temps", "2:300:log:7"]
        )
        assert rc == 0
        _, rows = _rows(
            tmp_path / "polarization.csv",
            "temperature_K,polarization,flip_flop_factor",
        )
        assert len(rows) == 7
        assert rows[0][0] == pytest.approx(2.0)
        assert rows[-1][0] == pytest.approx(300.0)

    def test_bad_ranges_exit_2(self, tmp_path):
        base = ["--outdir", str(tmp_path), "polarization", "--temps"]
        assert cli.main(base + ["5:1:log"]) == 2
        assert cli.main(base + ["1:10:cubic"]) == 2
        assert cli.main(base + ["1:10"]) == 2
        assert cli.main(base + ["0,-3"]) == 2
        assert cli.main(base + ["warm"]) == 2
        assert cli.main(base + ["nan"]) == 2
        # 7.28 TiB of temperatures: refused before the grid is allocated.
        assert cli.main(base + ["1:10:log:1000000000000"]) == 2
        zeeman = ["--outdir", str(tmp_path), "polarization", "--t-zeeman-k"]
        assert cli.main(zeeman + ["nan"]) == 2
        assert cli.main(zeeman + ["-1"]) == 2
        # Recorded in the provenance hash even when T_Ze is given.
        assert cli.main(zeeman + ["14.7", "--frequency-hz", "nan"]) == 2
        assert not (tmp_path / "polarization.csv").exists()


class TestSpectrum:
    def test_default_run_has_five_peaks(self, tmp_path):
        rc = cli.main(["--outdir", str(tmp_path), "spectrum"])
        assert rc == 0
        first, rows = _rows(
            tmp_path / "peaks.csv", "center_field_T,pp_width_T,pp_amplitude"
        )
        assert PROVENANCE.match(first)
        assert len(rows) == 5
        spectrum_text = (tmp_path / "spectrum.csv").read_text()
        assert "population_N=1" in spectrum_text

    def test_nv_only_config(self, tmp_path):
        config = tmp_path / "nv.ini"
        config.write_text("[populations]\nn = 0\nnv = 1\n")
        rc = cli.main(
            ["--outdir", str(tmp_path), "spectrum", "--config", str(config)]
        )
        assert rc == 0
        _, rows = _rows(
            tmp_path / "peaks.csv", "center_field_T,pp_width_T,pp_amplitude"
        )
        assert len(rows) == 2

    def test_bad_configs_exit_2(self, tmp_path, capsys):
        empty_pop = tmp_path / "a.ini"
        empty_pop.write_text("[populations]\nn = 0\nnv = 0\n")
        unknown_key = tmp_path / "b.ini"
        unknown_key.write_text("[spectrum]\nfield_units = mT\n")
        bad_value = tmp_path / "c.ini"
        bad_value.write_text("[spectrum]\ntemperature_k = warm\n")
        bad_syntax = tmp_path / "d.ini"
        bad_syntax.write_text("temperature_k = 300\n")  # key before any section
        unknown_section = tmp_path / "e.ini"
        unknown_section.write_text("[sample]\nx = 1\n")
        configs = [empty_pop, unknown_key, bad_value, bad_syntax, unknown_section]
        # Out-of-domain values. Before the domain checks each exited 0 with a
        # peak-free or non-finite output, with a traceback, or with an
        # allocation error.
        for i, text in enumerate(
            [
                "[spectrum]\ntemperature_k = nan\n",
                "[spectrum]\nfrequency_hz = nan\n",
                "[spectrum]\nfrequency_hz = inf\n",
                "[spectrum]\nfield_stop_t = inf\n",
                "[spectrum]\nfield_step_t = 1e-12\n",  # refused, never allocated
                "[center.n]\ng_parallel = nan\n",
                "[center.n]\nlinewidth_pp = nan\n",
                "[center.n]\nlinewidth_pp = -1\n",
                "[populations]\nn = inf\n",
                "[populations]\nn = 1.315863936605693e302\n",  # pp amplitude inf
                "[spectrum]\ntemperature_k = 2.2250738585e-313\n",  # k_B T is 0
            ]
        ):
            configs.append(tmp_path / f"domain_{i}.ini")
            configs[-1].write_text(text)
        for config in configs:
            rc = cli.main(
                ["--outdir", str(tmp_path), "spectrum", "--config", str(config)]
            )
            assert rc == 2, config.name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "spectrum.csv").exists()


class TestSimulate:
    ARGS = [
        "simulate",
        "--sources",
        "10",
        "--realizations",
        "40",
        "--tau-points",
        "9",
        "--tau-max-s",
        "2e-5",
        "--seed",
        "5",
    ]

    def test_seed_reruns_byte_identical(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            rc = cli.main(
                ["--outdir", str(tmp_path)] + self.ARGS + ["--output", name]
            )
            assert rc == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_thread_count_byte_identical(self, tmp_path):
        for name, threads in (("t1.csv", "1"), ("t4.csv", "4")):
            rc = cli.main(
                ["--outdir", str(tmp_path)]
                + self.ARGS
                + ["--threads", threads, "--output", name]
            )
            assert rc == 0
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t4.csv").read_bytes()

    def test_trace_contents(self, tmp_path):
        rc = cli.main(["--outdir", str(tmp_path)] + self.ARGS)
        assert rc == 0
        first, rows = _rows(
            tmp_path / "trace.csv", "delay_s,amplitude,std_error"
        )
        assert PROVENANCE.match(first)
        assert "seed=5" in first
        assert rows[0][0] == 0.0
        assert rows[0][1] == 1.0

    def test_zero_rate_is_flat(self, tmp_path):
        rc = cli.main(
            ["--outdir", str(tmp_path)] + self.ARGS + ["--base-rate", "0"]
        )
        assert rc == 0
        _, rows = _rows(tmp_path / "trace.csv", "delay_s,amplitude,std_error")
        assert all(row[1] == 1.0 for row in rows)

    def test_inversion_sequence(self, tmp_path):
        rc = cli.main(
            [
                "--outdir",
                str(tmp_path),
                "simulate",
                "--sequence",
                "inversion",
                "--t1-s",
                "1.2e-3",
                "--tau-max-s",
                "8e-3",
                "--tau-points",
                "5",
            ]
        )
        assert rc == 0
        _, rows = _rows(tmp_path / "trace.csv", "delay_s,amplitude,std_error")
        assert rows[0][1] == -1.0
        assert rows[-1][1] == pytest.approx(1.0 - 2.0 * np.exp(-8e-3 / 1.2e-3))

    def test_bad_arguments(self, tmp_path):
        base = ["--outdir", str(tmp_path), "simulate"]
        assert cli.main(base + ["--sequence", "ramsey"]) == 2
        assert cli.main(base + ["--tau-points", "1"]) == 2
        assert cli.main(base + ["--realizations", "0"]) == 2
        assert cli.main(base + ["--threads", "0"]) == 2
        assert cli.main(base + ["--sources", "0"]) == 2
        assert cli.main(base + ["--base-rate", "-1"]) == 2
        assert cli.main(base + ["--temp", "-5"]) == 2
        assert cli.main(base + ["--temp", "nan"]) == 2
        assert cli.main(base + ["--coupling-scale", "nan"]) == 2
        assert cli.main(base + ["--tau-max-s", "nan"]) == 2
        assert cli.main(base + ["--tau-max-s", "inf"]) == 2
        # Refused before the event buffer is allocated.
        assert cli.main(base + ["--tau-max-s", "1e300"]) == 2
        inversion = base + ["--sequence", "inversion"]
        assert cli.main(inversion + ["--t1-s", "nan"]) == 2
        assert cli.main(inversion + ["--noise", "nan"]) == 2
        # Finite noise whose draws overflow the amplitudes to inf.
        assert cli.main(inversion + ["--noise", "1.7976931348623157e308"]) == 2
        assert not (tmp_path / "trace.csv").exists()

    def test_inversion_delays_past_float_range_of_t1(self, tmp_path):
        # T / T1 overflows to inf, which is exactly the recovered plateau.
        argv = ["--outdir", str(tmp_path), "simulate", "--sequence", "inversion"]
        rc = cli.main(argv + ["--t1-s", "1e-300", "--tau-max-s", "1e300"])
        assert rc == 0
        _, rows = _rows(tmp_path / "trace.csv", "delay_s,amplitude,std_error")
        assert [row[1] for row in rows[1:]] == [1.0] * (len(rows) - 1)

    def test_inversion_default_delays_fit(self, tmp_path):
        out = ["--outdir", str(tmp_path)]
        rc = cli.main(out + ["simulate", "--sequence", "inversion", "--noise", "0.01"])
        assert rc == 0
        data = str(tmp_path / "trace.csv")
        rc = cli.main(out + ["fit", "--model", "inversion_recovery", "--data", data])
        assert rc == 0


class TestFit:
    def test_bundled_t2_fit(self, tmp_path):
        data = tmp_path / "nv_t2.csv"
        datasets.save_csv(datasets.bundled("NV", "T2"), data)
        rc = cli.main(
            [
                "--outdir",
                str(tmp_path),
                "fit",
                "--model",
                "t2_model",
                "--data",
                str(data),
                "--output-prefix",
                "t2fit",
            ]
        )
        assert rc == 0
        text = (tmp_path / "t2fit.csv").read_text()
        lines = text.splitlines()
        assert PROVENANCE.match(lines[0])
        assert lines[1] == "parameter,value,stderr,fixed"
        values = {l.split(",")[0]: l.split(",") for l in lines[2:]}
        assert 10.0 < float(values["T_Ze"][1]) < 25.0
        assert values["Gamma_res"][3] == "1"  # fixed by default
        assert float(values["Gamma_res"][2]) == 0.0
        report = (tmp_path / "t2fit.txt").read_text()
        assert "converged: True" in report

    def test_echo_trace_fit(self, tmp_path):
        rc = cli.main(
            ["--outdir", str(tmp_path)]
            + TestSimulate.ARGS
            + ["--realizations", "120", "--output", "echo.csv"]
        )
        assert rc == 0
        rc = cli.main(
            [
                "--outdir",
                str(tmp_path),
                "fit",
                "--model",
                "echo_decay",
                "--data",
                str(tmp_path / "echo.csv"),
                "--output-prefix",
                "echofit",
            ]
        )
        assert rc == 0
        assert (tmp_path / "echofit.csv").exists()
        assert (tmp_path / "echofit.txt").exists()

    def test_non_convergence_exits_3(self, tmp_path):
        data = tmp_path / "nv_t2.csv"
        datasets.save_csv(datasets.bundled("NV", "T2"), data)
        rc = cli.main(
            [
                "--outdir",
                str(tmp_path),
                "fit",
                "--model",
                "t2_model",
                "--data",
                str(data),
                "--init",
                "T_Ze=4000",
                "--init",
                "C=40",
                "--max-iterations",
                "1",
                "--output-prefix",
                "wild",
            ]
        )
        assert rc == 3
        assert "converged: False" in (tmp_path / "wild.txt").read_text()

    def test_usage_errors_exit_2(self, tmp_path):
        data = tmp_path / "nv_t2.csv"
        datasets.save_csv(datasets.bundled("NV", "T2"), data)
        base = ["--outdir", str(tmp_path), "fit", "--data", str(data)]
        assert cli.main(base + ["--model", "lorentzian"]) == 2
        assert cli.main(base + ["--model", "t2_model", "--fix", "Gamma=1"]) == 2
        assert cli.main(base + ["--model", "t2_model", "--init", "T_Ze"]) == 2
        assert cli.main(base + ["--model", "t2_model", "--fix", "T_Ze=-1"]) == 2
        # C = 0 leaves T_Ze undetermined: no stderr, so no output files.
        assert cli.main(base + ["--model", "t2_model", "--fix", "C=0"]) == 2
        assert not (tmp_path / "fit.csv").exists()
        malformed = tmp_path / "bad.csv"
        malformed.write_text("a,b\n1,2\n")
        assert (
            cli.main(
                [
                    "--outdir",
                    str(tmp_path),
                    "fit",
                    "--model",
                    "t2_model",
                    "--data",
                    str(malformed),
                ]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "model, text",
        [
            ("t2_model", "temperature_K,value_s,error_s\n300,6.7e-6,0\n20,nan,0\n"),
            ("echo_decay", "delay_s,amplitude,std_error\n0,1,0.01\n1e-6,inf,0.01\n"),
        ],
        ids=["nan_dataset", "inf_trace"],
    )
    def test_non_finite_data_exits_2(self, tmp_path, capsys, model, text):
        data = tmp_path / "nonfinite.csv"
        data.write_text(text)
        rc = cli.main(
            ["--outdir", str(tmp_path), "fit", "--model", model, "--data", str(data)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 3" in err
        assert err.count("\n") == 1

    def test_missing_data_exits_4(self, tmp_path):
        rc = cli.main(
            [
                "--outdir",
                str(tmp_path),
                "fit",
                "--model",
                "t2_model",
                "--data",
                str(tmp_path / "nope.csv"),
            ]
        )
        assert rc == 4


class TestModelEval:
    def test_t2_matches_closed_form(self, tmp_path):
        rc = cli.main(
            [
                "--outdir",
                str(tmp_path),
                "model-eval",
                "--model",
                "t2_model",
                "--params",
                "C=0.58,T_Ze=14.7",
                "--temps",
                "2,20,300",
            ]
        )
        assert rc == 0
        _, rows = _rows(
            tmp_path / "model_eval.csv", "temperature_K,rate,value_time"
        )
        params = bath_model.T2ModelParams(0.58, 14.7, 0.004)
        for t, rate, value in rows:
            assert rate == pytest.approx(bath_model.t2_rate(t, params), rel=1e-12)
            assert value == pytest.approx(1e-6 / rate, rel=1e-12)

    def test_t1_matches_closed_form(self, tmp_path):
        rc = cli.main(
            [
                "--outdir",
                str(tmp_path),
                "model-eval",
                "--model",
                "t1_model",
                "--temps",
                "40,300",
            ]
        )
        assert rc == 0
        _, rows = _rows(
            tmp_path / "model_eval.csv", "temperature_K,rate,value_time"
        )
        for t, rate, value in rows:
            assert rate == pytest.approx(
                bath_model.t1_rate(t, bath_model.DEFAULT_T1_PARAMS), rel=1e-12
            )
            assert value == pytest.approx(1.0 / rate, rel=1e-12)

    def test_unknown_param_exits_2(self, tmp_path):
        rc = cli.main(
            [
                "--outdir",
                str(tmp_path),
                "model-eval",
                "--model",
                "t1_model",
                "--params",
                "D=1",
            ]
        )
        assert rc == 2


    def test_out_of_domain_param_exits_2(self, tmp_path, capsys):
        base = ["--outdir", str(tmp_path), "model-eval", "--model"]
        for extra in (
            ["t2_model", "--params", "C=-1"],
            ["t2_model", "--params", "T_Ze=nan"],
            ["t2_model", "--temps", "nan"],
            ["t2_model", "--params", "C=0,Gamma_res=0"],
            ["t1_model", "--params", "B=1e300"],  # B T**5 overflows to inf
            ["t1_model", "--params", "B=0", "--temps", "1e100"],  # 0 * inf
            ["t1_model", "--temps", "1:10:log:1000000000000"],  # 7.28 TiB grid
        ):
            rc = cli.main(base + extra)
            assert rc == 2, extra
            assert capsys.readouterr().err.startswith("error: ")
            assert not (tmp_path / "model_eval.csv").exists()


class TestOutputRouting:
    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NVBATH_OUTPUT_DIR", str(tmp_path))
        rc = cli.main(["polarization", "--temps", "2,300"])
        assert rc == 0
        assert (tmp_path / "polarization.csv").exists()

    def test_outdir_flag_beats_env(self, tmp_path, monkeypatch):
        wrong = tmp_path / "wrong"
        right = tmp_path / "right"
        wrong.mkdir()
        right.mkdir()
        monkeypatch.setenv("NVBATH_OUTPUT_DIR", str(wrong))
        rc = cli.main(["--outdir", str(right), "polarization", "--temps", "2,300"])
        assert rc == 0
        assert (right / "polarization.csv").exists()
        assert not (wrong / "polarization.csv").exists()

    def test_missing_outdir_exits_4(self, tmp_path):
        rc = cli.main(
            [
                "--outdir",
                str(tmp_path / "absent" / "nested"),
                "polarization",
                "--temps",
                "2,300",
            ]
        )
        assert rc == 4


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "nvbath.cli",
                "--outdir",
                str(tmp_path),
                "polarization",
                "--temps",
                "2,300",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "polarization.csv").exists()


# --- exit-code contract under fuzzed input ----------------------------------

# Finite floats, 0, negatives, nan, +-inf and 1e300, as command-line text.
NUMBERS = st.one_of(
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
).map(repr)

FUZZ = settings(max_examples=50, deadline=None)


def _assert_exit_contract(argv, outdir):
    """Exit code in {0, 2, 3, 4}; exit 2 prints one ``error:`` line; exit 0
    writes no ``nan`` or ``inf`` data cell."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coverage warnings are not errors
            rc = cli.main(["--outdir", str(outdir)] + argv)
    assert rc in (0, 2, 3, 4), (argv, rc)
    if rc == 2:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)
    if rc == 0:
        for path in Path(outdir).glob("*.csv"):
            lines = [l for l in path.read_text().splitlines() if l and l[0] != "#"]
            cells = [c for line in lines[1:] for c in line.split(",")]
            bad = [c for c in cells if c.lstrip("+-") in ("nan", "inf")]
            assert not bad, (argv, path.name, bad[:3])


def _flags(names):
    """One to three of the named flags, each with a fuzzed number."""
    return st.dictionaries(st.sampled_from(names), NUMBERS, min_size=1, max_size=3)


class TestExitCodeContract:
    @FUZZ
    @given(flags=_flags(["--frequency-hz", "--t-zeeman-k", "--temps"]))
    def test_polarization(self, flags):
        argv = ["polarization"] + [f"{k}={v}" for k, v in flags.items()]
        with tempfile.TemporaryDirectory() as out:
            _assert_exit_contract(argv, out)

    @FUZZ
    @given(
        model=st.sampled_from(["t1_model", "t2_model"]),
        params=st.dictionaries(
            st.sampled_from(["A", "B", "C", "T_Ze", "Gamma_res"]), NUMBERS, max_size=2
        ),
        temp=st.none() | NUMBERS,
    )
    @example(model="t1_model", params={"B": "1e300"}, temp=None)
    @example(model="t1_model", params={}, temp="1.4118779511821709e-307")
    def test_model_eval(self, model, params, temp):
        names = fitkit.get_model(model).param_names
        assignments = [f"{k}={v}" for k, v in params.items() if k in names]
        argv = ["model-eval", "--model", model]
        if assignments:
            argv.append("--params=" + ",".join(assignments))
        if temp is not None:
            argv.append(f"--temps={temp}")
        with tempfile.TemporaryDirectory() as out:
            _assert_exit_contract(argv, out)

    HAHN = ["--temp", "--t-zeeman-k", "--tau-max-s", "--coupling-scale", "--base-rate"]

    @FUZZ
    @given(
        sequence=st.sampled_from(["hahn", "inversion"]),
        flags=_flags(HAHN + ["--t1-s", "--noise"]),
    )
    @example(sequence="inversion", flags={"--noise": "1.7976931348623157e+308"})
    def test_simulate(self, sequence, flags):
        sizes = "--realizations 2 --tau-points 3 --sources 2 --threads 1".split()
        argv = ["simulate", "--sequence", sequence] + sizes
        argv += [f"{k}={v}" for k, v in flags.items()]
        with tempfile.TemporaryDirectory() as out:
            _assert_exit_contract(argv, out)

    @FUZZ
    @given(
        model=st.sampled_from(["t1_model", "t2_model"]),
        kind=st.sampled_from(["--fix", "--init"]),
        index=st.integers(0, 2),
        value=NUMBERS,
    )
    @example(model="t2_model", kind="--fix", index=0, value="0.0")
    def test_fit(self, model, kind, index, value):
        names = fitkit.get_model(model).param_names
        name = names[index % len(names)]
        with tempfile.TemporaryDirectory() as out:
            data = Path(out) / "data.csv"
            datasets.save_csv(datasets.bundled("NV", model[:2].upper()), data)
            argv = ["fit", "--model", model, "--data", str(data)]
            _assert_exit_contract(argv + [f"{kind}={name}={value}"], out)

    SPECTRUM_KEYS = (
        [("spectrum", key) for key in cli._SPECTRUM_DEFAULTS]
        + [(f"center.{c}", key) for c in ("n", "nv") for key in cli._CENTER_FIELDS]
        + [("populations", "n"), ("populations", "nv")]
    )

    @FUZZ
    @given(key=st.sampled_from(SPECTRUM_KEYS), value=NUMBERS)
    @example(key=("spectrum", "temperature_k"), value="nan")
    @example(key=("center.n", "linewidth_pp"), value="-1")
    @example(key=("populations", "n"), value="inf")
    @example(key=("spectrum", "field_stop_t"), value="inf")
    @example(key=("center.n", "linewidth_pp"), value="2.6815615859885194e+154")
    @example(key=("populations", "n"), value="1.315863936605693e+302")
    @example(key=("spectrum", "temperature_k"), value="2.2250738585e-313")
    def test_spectrum_config(self, key, value):
        section, name = key
        # A coarse grid (7001 points) keeps each run small; a fuzzed grid key
        # meets a lowered point limit, so no example writes a huge spectrum.
        sections = {"spectrum": {"field_step_t": "5e-5"}, section: {}}
        sections[section][name] = value
        text = "".join(
            f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            for sec, items in sections.items()
        )
        with tempfile.TemporaryDirectory() as out:
            config = Path(out) / "fuzz.ini"
            config.write_text(text)
            with mock.patch.object(spectra, "MAX_GRID_POINTS", 10_000):
                _assert_exit_contract(["spectrum", "--config", str(config)], out)
