"""Run a fixed matrix of nvbath commands and print the sha256 of every output.

The byte-identity check for a refactor: run this once against each tree and
diff the two listings.

    PYTHONPATH=src python3 tools/cli_matrix.py /tmp/after > after.txt
    PYTHONPATH=/path/to/old/src python3 tools/cli_matrix.py /tmp/before > before.txt
    diff before.txt after.txt

Every command goes through ``nvbath.cli.main`` in this process, so the
``nvbath`` on the import path is the one measured. The matrix covers
``polarization`` (default, a 301-point grid at T_Ze = 14.7 K, four
temperatures up to 1e12 K, where the flip-flop factor is at its bound of
1/4, and 5000 temperatures from 0.02 K at T_Ze = 11.5 K, whose flip-flop
column runs from 1.9e-250 into fixed notation, through the kernel's per-cell
fallback, and linear grids of 50 and 5000 points from 2 to 300 K; every
cell of the 5000-point table enters the kernel's digit pipeline), ``spectrum``
(defaults and seven INI files, one of them with ``[center.n]`` and
``[center.nv]`` overrides, one on a window that misses every stick and one
refused for a one-point grid), Hahn-echo ``simulate`` (seed 7 at one and two
threads: 12 blocks of 155 realizations and a short one of 140; seed 3 at
4 K, seed 1 at 797406919.621389 K, in the hot limit, seed 5 on 301 sources and
200 delays, in blocks of 14, 14 and 2, the second of which starts its
geometry read inside a Philox counter's four words (301 x 14 is 2 modulo 4),
a static bath at 0.05 K, seed -5, whose stream key wraps modulo 2**64, 1111
realizations at one and two threads: 7 blocks of 155 and a short one of 26;
one realization, whose standard errors are all 0; 156, whose last block
holds one realization; and 4500 delays, whose 3-column trace goes through
the numpy kernel, ``nvbath._dtoa``), inversion recovery, the bundled NV
T1/T2 and N T2 tables, a ``fit`` of each registry model, and ``model-eval``
of both rate laws (T2 also on the linear grid). Each command's exit code,
stdout and stderr (with the output directory written as ``OUT``) go to
``commands.txt``, which is hashed with the data files, so a changed
``warning:`` or ``error:`` line, or a raw Python warning, changes the
listing. No subcommand runs the quench scan, so ``quench_scan.txt`` and
``quench_scan_1000.txt`` hold ``pulse_sim.effective_t2_scan`` of one fixed
scan at 200 and at 1000 realizations (2 blocks, and 7), written here with
``repr``-exact floats.
Uses the standard library and nvbath only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from nvbath import cli, datasets, pulse_sim

# name -> INI text for `spectrum --config`; outputs <name>_spectrum.csv and
# <name>_peaks.csv.
SPECTRUM_CONFIGS = {
    "mix": (
        "[spectrum]\ntemperature_k = 4\ntilt_deg = 3\ntilt_azimuth_deg = 15\n"
        "[populations]\nn = 1\nnv = 0.3\n"
    ),
    "cold_tilt": (
        "[spectrum]\ntemperature_k = 1.3\ntilt_deg = 17.5\ntilt_azimuth_deg = 77\n"
        "[populations]\nn = 1\nnv = 0.3\n"
    ),
    # The field at arccos(1/sqrt(3)) from <111>: no first-order zero-field
    # shift on the o111 axis.
    "magic": (
        "[spectrum]\ntemperature_k = 300\ntilt_deg = 54.735610317245346\n"
        "[populations]\nn = 1\nnv = 0.3\n"
    ),
    "nv_only": "[spectrum]\ntemperature_k = 0.5\n[populations]\nn = 0\nnv = 1\n",
    # Spin parameters overridden on both centers: the measured anisotropic
    # g of the nitrogen center and a wider N-V line.
    "centers": (
        "[center.n]\ng_perp = 2.0026\n[center.nv]\nlinewidth_pp = 3e-4\n"
        "[populations]\nn = 1\nnv = 0.3\n"
    ),
    # A window that holds no stick: one coverage warning on stderr, exit 0,
    # an all-zero spectrum and no peak.
    "uncovered": "[spectrum]\nfield_start_t = 20\nfield_stop_t = 30\nfield_step_t = 1e-3\n",
    # A step longer than the window: refused, exit 2, nothing written.
    "one_point": "[spectrum]\nfield_step_t = 1\n",
}

BUNDLED_TABLES = {
    "nv_t1.csv": ("NV", "T1"),
    "nv_t2.csv": ("NV", "T2"),
    "n_t2.csv": ("N", "T2"),
}


def commands(out: Path) -> list[list[str]]:
    """The CLI argument lists, in run order (later ones read earlier outputs)."""
    runs = [
        ["polarization"],
        ["polarization", "--t-zeeman-k", "14.7", "--temps", "0.5:400:log:301",
         "--output", "pol_147.csv"],
        ["polarization", "--temps", "300,1e9,797406919.621389,1e12",
         "--output", "pol_hot.csv"],
        ["polarization", "--t-zeeman-k", "11.5", "--temps", "0.02:1e6:log:5000",
         "--output", "pol_5000.csv"],
        ["polarization", "--temps", "2:300:lin:50", "--output", "pol_lin.csv"],
        ["polarization", "--temps", "2:300:lin:5000", "--output", "pol_lin_5000.csv"],
        ["spectrum"],
    ]
    for name in SPECTRUM_CONFIGS:
        runs.append(["spectrum", "--config", str(out / f"{name}.ini"),
                     "--output", f"{name}_spectrum.csv",
                     "--peaks-output", f"{name}_peaks.csv"])
    runs += [
        ["simulate", "--seed", "7", "--threads", "1", "--output", "hahn_t1.csv"],
        ["simulate", "--seed", "7", "--threads", "2", "--output", "hahn_t2.csv"],
        ["simulate", "--seed", "3", "--temp", "4", "--output", "hahn_4k.csv"],
        ["simulate", "--temp", "797406919.621389", "--realizations", "200",
         "--output", "hahn_ulp.csv"],
        ["simulate", "--sources", "301", "--tau-points", "200", "--realizations", "30",
         "--seed", "5", "--output", "hahn_301.csv"],
        ["simulate", "--temp", "0.05", "--realizations", "200",
         "--output", "hahn_static.csv"],
        ["simulate", "--seed", "-5", "--realizations", "50", "--output", "hahn_neg.csv"],
        ["simulate", "--seed", "2", "--realizations", "1111", "--threads", "1",
         "--output", "hahn_1111_t1.csv"],
        ["simulate", "--seed", "2", "--realizations", "1111", "--threads", "2",
         "--output", "hahn_1111_t2.csv"],
        ["simulate", "--realizations", "1", "--output", "hahn_one.csv"],
        ["simulate", "--seed", "4", "--realizations", "156", "--output", "hahn_156.csv"],
        ["simulate", "--tau-points", "4500", "--realizations", "20",
         "--output", "hahn_4500.csv"],
        ["simulate", "--sequence", "inversion", "--noise", "0.01",
         "--tau-max-s", "8e-3", "--output", "inv.csv"],
    ]
    fits = [
        ("echo_decay", "hahn_t1.csv", "fit_echo", []),
        ("inversion_recovery", "inv.csv", "fit_inv", []),
        ("t1_model", "nv_t1.csv", "fit_t1", []),
        ("t2_model", "nv_t2.csv", "fit_t2", []),
        ("t2_model", "n_t2.csv", "fit_n_t2_free", ["--free", "Gamma_res"]),
    ]
    for model, data, prefix, extra in fits:
        runs.append(["fit", "--model", model, "--data", str(out / data),
                     "--output-prefix", prefix, *extra])
    runs += [
        ["model-eval", "--model", "t1_model"],
        ["model-eval", "--model", "t2_model", "--output", "model_eval_t2.csv"],
        ["model-eval", "--model", "t2_model", "--temps", "2:300:lin:50",
         "--output", "model_eval_lin.csv"],
    ]
    return [["--outdir", str(out), *args] for args in runs]


def write_quench_scan(path: Path, realizations: int) -> None:
    """``effective_t2_scan`` at the bench's quench_scan temperatures (seed 11),
    one ``repr(T) repr(T2)`` line per temperature."""
    cfg = pulse_sim.BathNoiseConfig(seed=11)
    temperatures = (1e9, 20.0, 8.0, 4.0, 2.0, 0.01 * cfg.t_zeeman)
    scan = pulse_sim.effective_t2_scan(cfg, temperatures, realizations)
    path.write_text("".join(f"{t!r} {t2!r}\n" for t, t2 in scan))


def run(out: Path) -> dict[str, str]:
    """Run the matrix into ``out`` and return {file name: sha256}."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in SPECTRUM_CONFIGS.items():
        (out / f"{name}.ini").write_text(text)
    for name, (center, quantity) in BUNDLED_TABLES.items():
        datasets.save_csv(datasets.bundled(center, quantity), out / name)
    log = []
    for argv in commands(out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        entry = (
            f"{rc} {' '.join(argv[2:])}\n  stdout: {stdout.getvalue()!r}\n"
            f"  stderr: {stderr.getvalue()!r}\n"
        )
        log.append(entry.replace(str(out), "OUT"))
    (out / "commands.txt").write_text("".join(log))
    write_quench_scan(out / "quench_scan.txt", 200)
    write_quench_scan(out / "quench_scan_1000.txt", 1000)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.suffix != ".ini"
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: cli_matrix.py OUTDIR", file=sys.stderr)
        return 2
    for name, digest in run(Path(args[0])).items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
