"""No command-line input ends in a traceback.

Every model of ``cli.MODELS`` runs ``evolve``, ``cp-check``, ``rates``
and ``scan`` with flags drawn from finite, zero, negative, tiny (5e-324,
1e-30), huge (1e300), NaN and infinite values.  Each run must exit 0, 1
or 3, and no exception may escape ``main``: the installed command would
show it as a traceback.  Exit 1 comes with exactly one ``error:`` line,
the last line on stderr.  Warnings are printed to stderr as the
installed command prints them, and ``rates`` to stdout with exit 0 must
leave only its JSON sidecar there, so a numpy warning fails it.

The same options are drawn a second way, as the entries of a --config
file, some of whose values may be null, booleans, lists or non-numeric
strings.  Such a value exits 1.  Without one, the run must print what
the flags print, byte for byte, but for the file's name before an
argparse error.

The example count per model and command comes from the hypothesis
profile (tests/conftest.py): 15 by default, 150 with
``--hypothesis-profile=deep``.  ``--steps`` is 200 or fewer, or not an
integer, so that no run allocates much memory.
"""

import contextlib
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasecov.cli import (EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, MODELS, RATES_HEADER,
                          RunConfig, main)

# the options that take a float, and the values drawn for them
FLOAT_OPTIONS = [f.name for f in dataclasses.fields(RunConfig) if isinstance(f.default, float)]
SPECIAL = [0.0, -1.0, 5e-324, 1e-30, 1e300, -1e300, math.nan, math.inf, -math.inf]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-20.0, 20.0),
                   st.sampled_from([0.3, 0.5, 0.6, 2.0, 3.5, 10.0]))
STEPS = st.sampled_from(["-1", "0", "1", "2", "3", "57", "200", "nan", "1e3"])
# config values that no option takes
JUNK = st.sampled_from([None, True, False, [], [1.0], {}, "", "x", "1,2"])


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """A rates table on [0, 10], some of its rates negative."""
    t = np.linspace(0.0, 10.0, 41)
    path = tmp_path_factory.mktemp("table") / "rates.csv"
    np.savetxt(path, np.column_stack([t, 0.1 * t, 0.5 + 0.0 * t, np.cos(t), 0.2 + 0.0 * t]),
               delimiter=",", header=RATES_HEADER, comments="")
    return str(path)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@st.composite
def options(draw):
    """Option values by name: floats, and the text of --steps and --kernel."""
    names = draw(st.lists(st.sampled_from(FLOAT_OPTIONS), unique=True, max_size=6))
    values = {name: draw(VALUES) for name in names}
    if draw(st.booleans()):
        values["steps"] = draw(STEPS)
    values["kernel"] = draw(st.sampled_from(["paper", "literature"]))
    return values


def as_flags(values):
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


@st.composite
def scan_flags(draw, model):
    swept = [name for env in MODELS[model] for name in env.sweep]
    param = draw(st.sampled_from(swept or ["R"]))
    values = draw(st.lists(VALUES, min_size=1, max_size=3))
    return ["--param", param, "--values", ",".join(map(repr, values))]


def run(argv):
    """The exit code, stdout and stderr of main(argv)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    # a warning is printed to stderr, as the installed command prints it
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def check(command, code, err):
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VIOLATION), (code, err)
    if code == EXIT_USAGE:
        assert [line for line in err.splitlines() if line.startswith("error:")] == \
            err.splitlines()[-1:], err
    elif command == "rates":
        assert set(json.loads(err)) == {"singular_times", "suppressed_rows"}


def head(model, command, table, data):
    scan = data.draw(scan_flags(model), label="scan") if command == "scan" else []
    return [command, "--model", model, "--rates-file", table, "--out", "-", *scan]


@pytest.mark.parametrize("command", ["evolve", "cp-check", "rates", "scan"])
@pytest.mark.parametrize("model", list(MODELS))
@given(data=st.data())
def test_no_input_ends_in_a_traceback(model, command, table, data):
    argv = head(model, command, table, data) + as_flags(data.draw(options(), label="flags"))
    code, _, err = run(argv)
    check(command, code, err)


@pytest.mark.parametrize("command", ["evolve", "cp-check", "rates", "scan"])
@pytest.mark.parametrize("model", list(MODELS))
@given(data=st.data())
def test_config_entries_are_parsed_as_their_flags(model, command, table, config_path, data):
    argv = head(model, command, table, data)
    values = data.draw(options(), label="entries")
    # --steps as a JSON number where it is an integer, else as a string
    entries = {name: int(value) if name == "steps" and value.lstrip("-").isdigit() else value
               for name, value in values.items()}
    junk = data.draw(st.dictionaries(st.sampled_from(list(entries)), JUNK, max_size=2),
                     label="junk")
    config_path.write_text(json.dumps({**entries, **junk}))
    code, out, err = run([*argv, "--config", str(config_path)])
    check(command, code, err)
    if junk:
        assert code == EXIT_USAGE and out == ""
    else:
        err = err.replace(f"error: config file {config_path}: ", "error: ")
        assert (code, out, err) == run(argv + as_flags(values))
