"""Fuzz of the entry points that take a product input label.

A label names one of |0>, |1>, |+> per qubit, qubit 0 first. Every entry point
that reads one (`prepare_state`, `run_batch`, `Scenario`, a scenario file's
`input =` and `magic-forge run --input`) must either run a valid label or raise
its own layer's error naming the label: never a bare exception, and never a
warning (an error under Tier-1's -W error). Hostile labels are drawn on purpose:
empty, a fullwidth digit, an unknown letter, blanks, a trailing newline, too
long, and, where Python objects can enter, a list, bytes and an int.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicforge import cli, harness
from magicforge.engine import EngineError, NoiseModel, prepare_state, run_batch
from magicforge.program import FreeEvolve, PulseProgram, Rotate

TOKENS = "01+"
PROGRAM = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(1e-3)])
J = np.array([[0.0, 229.3, 97.4], [229.3, 0.0, 229.3], [97.4, 229.3, 0.0]])

text_labels = (st.text(alphabet=TOKENS, min_size=3, max_size=3)
               | st.text(alphabet=TOKENS + "x ", max_size=5)
               | st.sampled_from(["", "０", "x", " ", "+\n", "0" * 11]))
python_labels = text_labels | st.sampled_from([["0", "1", "+"], b"01+", 5])


def is_valid(label):
    return isinstance(label, str) and len(label) == 3 and set(label) <= set(TOKENS)


def check_runs_or_names(label, error, call):
    """`call()` runs if `label` is a valid 3-qubit label, else raises `error` naming it."""
    if is_valid(label):
        return call()
    with pytest.raises(error) as caught:
        call()
    assert repr(label) in str(caught.value)


@settings(max_examples=50, deadline=None)
@given(python_labels)
@example(["0", "1", "+"])
def test_prepare_state_runs_or_names_the_label(label):
    state = check_runs_or_names(label, EngineError, lambda: prepare_state(3, label))
    if state is not None:
        assert state.rho.shape == (8, 8) and abs(np.trace(state.rho) - 1) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(python_labels)
def test_run_batch_runs_or_names_the_label(label):
    results = check_runs_or_names(
        label, EngineError, lambda: run_batch(PROGRAM, J, ["000", label], NoiseModel.off()))
    if results is not None:
        assert len(results) == 2


def test_run_batch_names_a_string_of_inputs():
    # a string is a sequence of one-character labels: "0+1" ran three 1-qubit inputs
    with pytest.raises(EngineError, match=r"inputs must be a list of product labels, "
                                          r"not the string '0\+1'"):
        run_batch(PulseProgram(1, []), np.zeros((1, 1)), "0+1")
    # an int once escaped as a bare TypeError from iterating it
    with pytest.raises(EngineError, match="inputs must be a list of product labels, "
                                          "not the int 5"):
        run_batch(PulseProgram(1, []), np.zeros((1, 1)), 5)


@settings(max_examples=50, deadline=None)
@given(python_labels)
def test_scenario_runs_or_names_the_label(label):
    scenario = check_runs_or_names(
        label, harness.HarnessError, lambda: harness.Scenario("s", PROGRAM, J, input_state=label))
    if scenario is not None:
        assert scenario.input_state == label


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("labels")
    (root / "p.pulse").write_text(PROGRAM.to_text())
    np.savetxt(root / "j.txt", J)
    return root


@settings(max_examples=50, deadline=None)
@given(text_labels)
def test_scenario_file_input_runs_or_names_the_label(run_files, label):
    # the INI reader strips the value, and a trailing newline ends it
    path = run_files / "s.ini"
    path.write_text(f"[scenario]\nprogram = p.pulse\ncouplings = j.txt\ninput = {label}\n")
    check_runs_or_names(label.strip(), harness.HarnessError,
                        lambda: harness.load_scenario_file(path))


@settings(max_examples=50, deadline=None)
@given(text_labels)
def test_cli_run_input_runs_or_names_the_label(run_files, label):
    out, err = io.StringIO(), io.StringIO()
    argv = ["run", str(run_files / "p.pulse"), "--j", str(run_files / "j.txt"), "--input", label]
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.setenv(cli.OUTPUT_ROOT_VAR, str(run_files / "out"))
        rc = cli.main(argv)
    if is_valid(label):
        assert rc == 0 and "wrote" in out.getvalue()
    else:
        assert rc == 1 and err.getvalue().startswith("error: input")
        assert repr(label) in err.getvalue()
