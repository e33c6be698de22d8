"""The one domain check, `nvbath._domain.check`, against the hand-written
expressions it replaced, and the refusals that only it makes; and the one
membership check, `nvbath._domain.one_of`, in every refusal it makes."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nvbath
from nvbath import cli, datasets, fitkit, pulse_sim, spectra
from nvbath._domain import check, one_of
from nvbath.spin_core import N_DEFAULT, Orientation, TransitionSpec


# --- the refusal expressions `check` replaced, as they were written ---------


def old_positive(x):
    return 0 < x < math.inf


def old_non_negative(x):
    return 0 <= x < math.inf


def old_finite(x):
    return math.isfinite(x)


def old_positive_array(value, what="x"):
    """bath_model._positive, as it was."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim:  # min and max propagate NaN, so they cover every entry
        lo, hi = arr.min(initial=math.inf), arr.max(initial=-math.inf)
    else:  # a float comparison skips two numpy reductions
        lo = hi = float(arr)
    if not (lo > 0 and hi < math.inf):
        bad = arr[~((arr > 0) & (arr < math.inf))].flat[0]
        raise ValueError(f"{what} must be positive and finite, got {bad}")
    return arr


def old_non_negative_array(x):
    """DecayTrace's standard-error check, as it was."""
    return bool(np.all((x >= 0) & (x < math.inf)))


def old_finite_array(x):
    """DecayTrace's amplitude check, as it was."""
    return bool(np.all(np.isfinite(x)))


def old_integer(name, value, least=None):
    """pulse_sim._integer, as it was."""
    if not isinstance(value, (int, np.integer)) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


# --- the values drawn --------------------------------------------------------

EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308,
         2.2250738585072014e-308]
floats = st.one_of(st.sampled_from(EDGES), st.floats(allow_subnormal=True))
ints = st.integers(-(2**1000), 2**1000)
scalars = st.one_of(
    floats,
    ints,
    floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    floats.map(np.array),  # 0-d
)
float_arrays = hnp.arrays(np.float64, st.integers(0, 12), elements=floats)


@settings(max_examples=400, deadline=None)
@given(x=scalars)
@example(x=True)
@example(x=np.float64(math.nan))
def test_scalar_decisions_match_the_replaced_expressions(x):
    assert accepts(lambda: check("x", x)) == bool(old_positive(x))
    assert accepts(lambda: check("x", x, strict=False)) == bool(old_non_negative(x))
    assert accepts(lambda: check("x", x, -math.inf)) == old_finite(x)
    if isinstance(x, (float, np.floating, np.ndarray)):
        assert accepts(lambda: check("x", np.asarray(x, dtype=float))) == accepts(
            lambda: old_positive_array(x))


@settings(max_examples=300, deadline=None)
@given(x=float_arrays)
@example(x=np.array([1.0, math.nan, -1.0]))
@example(x=np.array([], dtype=float))
def test_array_decisions_and_messages_match(x):
    messages = []
    for positive in (old_positive_array, lambda x: check("x", x)):
        try:
            positive(x)
            messages.append(None)
        except ValueError as exc:
            messages.append(str(exc))
    # The same refusal in the same words, naming the same first bad entry.
    assert messages[0] == messages[1]
    assert accepts(lambda: check("x", x, strict=False)) == old_non_negative_array(x)
    assert accepts(lambda: check("x", x, -math.inf)) == old_finite_array(x)


@settings(max_examples=300, deadline=None)
@given(
    value=st.one_of(scalars, st.booleans(), st.sampled_from([None, "3", np.bool_(True)])),
    least=st.sampled_from([None, 0, 1]),
)
def test_integer_decisions_match_the_old_integer_check_but_for_bool(value, least):
    low = -math.inf if least is None else least
    new = accepts(lambda: check("n", value, low, integer=True))
    if isinstance(value, bool):
        assert not new
    else:
        assert new == accepts(lambda: old_integer("n", value, least))


def test_returns_the_value_itself():
    a = np.array([1.0, 2.0])
    assert check("a", a) is a
    assert check("n", np.int64(3), 1, integer=True) == 3


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("t", -1.0), {}, "t must be positive and finite, got -1.0"),
        (("t", np.array([1.0, math.inf, -1.0])), {}, "t must be positive and finite, got inf"),
        (("t", np.array(-2.0)), {}, "t must be positive and finite, got -2.0"),
        (("e", np.float64(math.nan)), {"strict": False},
         "e must be non-negative and finite, got nan"),
        (("f", math.inf, -math.inf), {}, "f must be finite, got inf"),
        (("k", 0.5, 1.0), {"strict": False}, "k must be >= 1 and finite, got 0.5"),
        (("n", True, 1), {"integer": True}, "n must be an integer >= 1, got True"),
        (("n", 2.5, -math.inf), {"integer": True}, "n must be an integer, got 2.5"),
        (("n", np.int64(-3), 0), {"integer": True}, "n must be an integer >= 0, got -3"),
    ],
)
def test_one_message_shape(args, kwargs, message):
    with pytest.raises(ValueError) as info:
        check(*args, **kwargs)
    assert str(info.value) == message


def test_and_finite_has_one_home():
    src = Path(nvbath.__file__).parent
    homes = [p.name for p in sorted(src.glob("*.py")) if "and finite" in p.read_text()]
    assert homes == ["_domain.py"]


# --- refusals the hand-written checks missed ---------------------------------

CFG = pulse_sim.BathNoiseConfig(n_sources=2)
TAU = [0.0, 1e-6]
DATA = ([0.0, 1e-6, 2e-6], [1.0, 0.8, 0.6])

INTEGER_INPUTS = {
    "n_sources": lambda v: pulse_sim.BathNoiseConfig(n_sources=v),
    "seed": lambda v: pulse_sim.BathNoiseConfig(seed=v),
    "n_realizations": lambda v: pulse_sim.simulate_hahn_echo(CFG, TAU, v),
    "threads": lambda v: pulse_sim.simulate_hahn_echo(CFG, TAU, 2, threads=v),
    "realization": lambda v: pulse_sim.sample_couplings(CFG, v),
    "max_iterations": lambda v: fitkit.fit(fitkit.get_model("echo_decay"), *DATA,
                                           max_iterations=v),
}


@pytest.mark.parametrize("name", INTEGER_INPUTS)
def test_integer_inputs_refuse_bool_and_take_numpy_integers(name):
    call = INTEGER_INPUTS[name]
    for value in (True, False):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(value)
    call(np.int64(1))
    call(np.int32(2))


@pytest.mark.parametrize("max_iterations", [2.5, math.nan, -1])
def test_fit_refuses_a_max_iterations_that_is_not_a_count(max_iterations):
    with pytest.raises(ValueError, match="max_iterations must be an integer >= 0"):
        fitkit.fit(fitkit.get_model("echo_decay"), *DATA, max_iterations=max_iterations)


@pytest.mark.parametrize("population", [math.nan, math.inf, -1.0, 0.0])
def test_build_sticks_refuses_a_population_out_of_its_domain(population):
    message = f"population for N must be positive and finite, got {population!r}"
    with pytest.raises(ValueError) as info:
        spectra.build_sticks([(N_DEFAULT, population)], 240e9, 300.0)
    assert str(info.value) == message


def test_pinned_couplings_refuse_a_non_finite_value():
    with pytest.raises(ValueError, match="fixed_couplings must be finite, got nan"):
        replace(CFG, fixed_couplings=(1e4, math.nan))


# --- one_of: a name outside its set ------------------------------------------

ECHO = fitkit.get_model("echo_decay")
SECTIONS = "spectrum, populations, center.n, center.nv"
CENTER_KEYS = "g_parallel, g_perp, zero_field_d, hyperfine_111, hyperfine_other, linewidth_pp"

# Every refusal of a name outside its set, as the code that makes it is called.
MEMBERSHIP_REFUSALS = {
    "center label": (lambda: replace(N_DEFAULT, label="P1"),
                     "center label must be one of N, NV, got 'P1'"),
    "electron spin": (lambda: replace(N_DEFAULT, spin=1.5),
                      "electron spin must be one of 0.5, 1.0, got 1.5"),
    "axis label": (lambda: Orientation("o222", 1.0),
                   "axis label must be one of o111, oA, oB, oC, got 'o222'"),
    "sequence": (lambda: pulse_sim.DecayTrace("ramsey", np.array([0.0, 1e-6]),
                                              np.ones(2), np.zeros(2), 1, 0),
                 "sequence must be one of hahn_echo, inversion_recovery, got 'ramsey'"),
    "fit fixed": (lambda: fitkit.fit(ECHO, *DATA, fixed={"T1": 1.0}),
                  "echo_decay parameter must be one of amplitude, T2, got 'T1'"),
    "fit init": (lambda: fitkit.fit(ECHO, *DATA, init={"T2": 1e-6, "tau": 1.0}),
                 "echo_decay parameter must be one of amplitude, T2, got 'tau'"),
    "model": (lambda: fitkit.get_model("nope"),
              "model must be one of echo_decay, inversion_recovery, t1_model, t2_model, "
              "got 'nope'"),
    "bundled dataset": (lambda: datasets.bundled("NV", "T3"),
                        "bundled dataset must be one of ('NV', 'T2'), ('NV', 'T1'), "
                        "('N', 'T2'), ('N', 'T1'), got ('NV', 'T3')"),
    "nuclear projection": (lambda: TransitionSpec(N_DEFAULT, Orientation("o111", 1.0),
                                                  -0.5, 0.5, 0.5),
                           "nuclear projection m_i must be one of -1.0, 0.0, 1.0, got 0.5"),
}

# The same through `nvbath`'s command line: argv and the one stderr line, with
# the INI file (which holds the text in front of the argv) written as F.
MISSING = "no-such-data.csv"  # a name is refused before any file is read
CLI_REFUSALS = {
    "--temps range mode": (None, ["polarization", "--temps", "1:10:cubic:5"],
                           "range mode must be one of log, lin, got 'cubic'"),
    "fit --fix": (None, ["fit", "--model", "t1_model", "--data", MISSING, "--fix", "C=1"],
                  "t1_model parameter must be one of A, B, got 'C'"),
    "fit --init": (None, ["fit", "--model", "t2_model", "--data", MISSING, "--init", "T=1"],
                   "t2_model parameter must be one of C, T_Ze, Gamma_res, got 'T'"),
    "fit --free": (None, ["fit", "--model", "echo_decay", "--data", MISSING, "--free", "n"],
                   "echo_decay parameter must be one of amplitude, T2, got 'n'"),
    "model-eval --params": (None, ["model-eval", "--model", "t1_model", "--params", "A=1,D=1"],
                            "t1_model parameter must be one of A, B, got 'D'"),
    "INI section": ("[sample]\nx = 1\n", ["spectrum"],
                    f"F: section must be one of {SECTIONS}, got 'sample'"),
    "INI center section": ("[center.p1]\ng_perp = 2\n", ["spectrum"],
                           f"F: section must be one of {SECTIONS}, got 'center.p1'"),
    "INI [spectrum] key": (
        "[spectrum]\nfield_units = mT\n", ["spectrum"],
        "F: [spectrum] key must be one of frequency_hz, temperature_k, field_start_t, "
        "field_stop_t, field_step_t, tilt_deg, tilt_azimuth_deg, got 'field_units'"),
    "INI [populations] key": ("[populations]\nn = 1\np1 = 1\n", ["spectrum"],
                              "F: [populations] key must be one of n, nv, got 'p1'"),
    "INI [center.*] key": ("[center.nv]\ng = 2\n", ["spectrum"],
                           f"F: [center.nv] key must be one of {CENTER_KEYS}, got 'g'"),
}


@pytest.mark.parametrize("name", MEMBERSHIP_REFUSALS)
def test_membership_refusal_has_the_one_shape(name):
    call, message = MEMBERSHIP_REFUSALS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("name", CLI_REFUSALS)
def test_cli_membership_refusal_exits_2_with_the_one_shape(name, tmp_path, capsys):
    ini, argv, message = CLI_REFUSALS[name]
    config = tmp_path / "config.ini"
    if ini is not None:
        config.write_text(ini)
        argv = argv + ["--config", str(config)]
    assert cli.main(["--outdir", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.replace(str(config), "F") == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["config.ini"] if ini else [])


@pytest.mark.parametrize(
    "value, allowed",
    [
        (math.nan, (0.5, 1.0)),
        (np.float64(math.nan), (0.5, 1.0)),
        (True, (0.5, 1.0)),
        (False, (0.5, 1.0)),
        (1, (0.5, 1.0)),
        (np.float64(0.5), (0.5, 1.0)),
        (np.float32(0.5), (0.5, 1.0)),
        (np.int64(1), (0.5, 1.0)),
        (np.float64(0.25), (0.5, 1.0)),
        ("", ("N", "NV")),
        ("", {"n": 1.0, "nv": 0.0}),
        (np.str_("NV"), ("N", "NV")),
        ("n", ("N", "NV")),
        ("NV ", ("N", "NV")),
        ("nv", {"n": 1.0, "nv": 0.0}),
    ],
)
def test_membership_decision_is_the_replaced_not_in(value, allowed):
    assert accepts(lambda: one_of("x", allowed, value)) == (value in allowed)


def test_one_of_names_the_first_value_outside_the_set():
    assert one_of("x", ("a", "b")) is None
    assert one_of("x", {"b": 0, "a": 1}, "a", "b", "a") is None
    with pytest.raises(ValueError) as info:
        one_of("x", {"b": 0, "a": 1}, "a", "c", "d")
    assert str(info.value) == "x must be one of b, a, got 'c'"


def test_must_be_one_of_has_one_home():
    src = Path(nvbath.__file__).parent
    homes = [p.name for p in sorted(src.glob("*.py")) if "must be one of" in p.read_text()]
    assert homes == ["_domain.py"]
