"""Fuzz of the readers: trap files, coupling files, scenario files and the command line.

Every reader either returns what it read, which then runs to a finite result, or raises
its layer's error naming the file (for `cli.main`, exits 1 with an "error:" line, or 2
when argparse itself refuses the arguments): never a bare exception, and never a warning
(an error under Tier-1's -W error). Values are drawn from each grammar's tokens plus
hostile ones: nan, +-inf, 1e308, 1e-300, 1e400, 1e290, -0, empty, a huge integer, a
fullwidth digit, a word and a misspelt key.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicforge import cli, harness
from magicforge.chain import (
    ChainModelError,
    coupling_matrix,
    load_couplings,
    read_ini,
    solve_trap_file,
)
from magicforge.constants import MAX_IONS
from magicforge.encoding import effective_couplings, parse_topology
from magicforge.engine import EngineError

HOSTILE = ["nan", "inf", "-inf", "1e308", "1e-300", "1e400", "1e290", "-0", "", str(10**400),
           "３", "x"]


def values(low, high):
    """A number in [low, high] as text, or a hostile token."""
    return st.floats(low, high).map(repr) | st.sampled_from(HOSTILE)


TRAP_KEYS = {
    "ion_count": st.integers(-1, MAX_IONS + 1).map(str) | st.sampled_from(HOSTILE),
    "ion_mass_amu": values(1.0, 300.0),
    "axial_frequency_hz": values(1e4, 1e7),
    "magnetic_gradient_t_per_m": values(0.0, 100.0),
    "bias_field_t": values(1e-4, 1e-1),
    "reference_coordinate_m": values(-1e-3, 1e-3),
    "g_factor": values(-3.0, 3.0),
    "magnetic_gradent_t_per_m": values(0.0, 100.0),  # misspelt
}
SCENARIO_KEYS = {
    "program": st.sampled_from(["p.pulse", "missing.pulse", "bad.pulse", ""]),
    "couplings": st.sampled_from(["j.txt", "j2.txt", "missing.txt", ""]),
    "trap": st.sampled_from(["trap.ini", "bad.ini", "missing.ini"]),
    "topology": st.sampled_from(["A", "E", "-,+,0", "-,-", "x", ""]),
    "input": st.sampled_from(["000", "+1+", "01", "0x1", "", "０００"]),
    "noise": st.sampled_from(["true", "no", "maybe", ""]),
    "shots": st.integers(-1, 300).map(str) | st.sampled_from(HOSTILE + [str(2**63 - 1)]),
    "seed": st.integers(-1, 2**40).map(str) | st.sampled_from(HOSTILE),
    "name": st.sampled_from(["custom", "../escaped", "", "a/b"]),
    "pulse_duration": values(0.0, 1e-4),
    "shot": st.just("100"),  # misspelt
}


def section(name, drawn):
    """The INI section [`name`] setting each key of `drawn` to its value."""
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in drawn.items())


def ini(name, keys):
    """An INI section of a drawn subset of `keys`, each with a drawn value."""
    return st.fixed_dictionaries({}, optional=keys).map(lambda drawn: section(name, drawn))


def runs_or_names(call, path, errors):
    """`call()` if it runs, else None when it raised one of `errors` naming `path`."""
    try:
        return call()
    except errors as exc:
        assert type(exc) in errors and str(path) in str(exc), repr(exc)
    return None


@contextlib.contextmanager
def workdir():
    """A directory holding a program, two coupling files and two trap files."""
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "p.pulse").write_text("# qubits: 3\nR 0 0.5pi 0\nEV 2e-3\nR 0 0.5pi 0.5pi\n")
        (root / "bad.pulse").write_text("# qubits: 3\nR 0 0.5xpi 0\n")
        np.savetxt(root / "j.txt", harness.demo_couplings())
        np.savetxt(root / "j2.txt", np.eye(2))
        (root / "trap.ini").write_text("[trap]\nion_count = 3\n")
        (root / "bad.ini").write_text("[trap]\nion_count = 0\n")
        yield root


@settings(max_examples=60, deadline=None)
@given(ini("trap", TRAP_KEYS) | st.sampled_from(["", "ion_count = 3\n", "[trap]\n[trap]\n"]))
@example("[trap]\nmagnetic_gradient_t_per_m = 1e290\nbias_field_t = 1e290\n")  # J overflowed
def test_a_trap_file_runs_or_is_named(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trap.ini"
        path.write_text(text)
        j = runs_or_names(lambda: coupling_matrix(*solve_trap_file(path)).j, path,
                          (ValueError, ChainModelError))
    assert j is None or np.isfinite(j).all()


cells = st.floats(-1e3, 1e3).map(repr) | st.sampled_from(HOSTILE)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(cells, min_size=1, max_size=4), max_size=4))
def test_a_coupling_file_runs_or_is_named(rows):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "j.txt"
        path.write_text("".join(" ".join(row) + "\n" for row in rows))
        couplings = runs_or_names(lambda: load_couplings(path), path, (ValueError,))
    assert couplings is None or np.isfinite(couplings.j).all()


def reads_to_its_source(path, drawn):
    """Whether a scenario file's keys and values read and its program loads, so that the
    readers go on to its coupling source."""
    try:
        read_ini(path, "scenario", harness._SCENARIO_FIELDS)
    except ValueError:
        return False
    return drawn.get("program") == "p.pulse"  # the one program of `workdir` that loads


def source_couplings(root, drawn):
    """The J a scenario file drawn as `drawn`, naming one coupling source, must carry: its
    couplings file's J, or its trap's J shaped by its topology."""
    if "couplings" in drawn:
        return load_couplings(root / drawn["couplings"]).j
    j = coupling_matrix(*solve_trap_file(root / drawn["trap"])).j
    topology = drawn.get("topology")
    return effective_couplings(j, parse_topology(topology)) if topology else j


# a fully drawn file mostly fails before its coupling source, so about half the draws take the
# program that loads and a subset of the readable sources' keys: every source combination runs
SOURCE_KEYS = {"couplings": st.just("j.txt"), "trap": st.just("trap.ini"),
               "topology": SCENARIO_KEYS["topology"]}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=SCENARIO_KEYS)
       | st.fixed_dictionaries({"program": st.just("p.pulse")}, optional=SOURCE_KEYS))
@example({"program": "p.pulse", "couplings": "j.txt", "trap": "trap.ini"})
@example({"program": "p.pulse", "couplings": "j.txt", "trap": "trap.ini", "topology": "A"})
@example({"program": "p.pulse", "couplings": "j.txt"})
@example({"program": "p.pulse", "trap": "trap.ini"})
@example({"program": "p.pulse", "trap": "trap.ini", "topology": "-,+,0"})
def test_a_scenario_file_runs_or_is_named(drawn):
    with workdir() as root:
        path = root / "s.ini"
        path.write_text(section("scenario", drawn))
        try:
            scenario = harness.load_scenario_file(path)
        except harness.HarnessError as exc:
            assert type(exc) is harness.HarnessError and str(path) in str(exc), repr(exc)
            # the readers check [scenario]'s keys and values, then the program, then the source
            if "couplings" in drawn and "trap" in drawn and reads_to_its_source(path, drawn):
                assert "need either couplings or trap, not both" in str(exc), repr(exc)
            return
        assert ("couplings" in drawn) != ("trap" in drawn), drawn
        assert scenario.couplings.tobytes() == source_couplings(root, drawn).tobytes()
        try:
            records = harness.run_custom_scenario(scenario, root / "out")
        except EngineError as exc:  # a pulse_duration at which the run clock overflows
            assert "duration" in str(exc), exc
            return
    assert all(np.isfinite(rec.values["p_simulated"]) for rec in records)


# the subcommands, each with the flag values it may draw; a file name is one of `workdir`'s
FILES = ("trap.ini", "bad.ini", "missing.ini", "p.pulse", "bad.pulse", "missing.pulse", "j.txt",
         "j2.txt", "missing.txt", "s.ini")
ARGV = st.one_of(
    st.tuples(st.just("chain"), st.sampled_from(["trap.ini", "bad.ini", "missing.ini", "p.pulse"])),
    st.tuples(st.just("couplings"), st.sampled_from(["trap.ini", "bad.ini"]),
              st.just("--topology"), st.sampled_from(["A", "D", "x", ""])),
    st.tuples(st.just("run"), st.sampled_from(["p.pulse", "bad.pulse", "missing.pulse"]),
              st.just("--j"), st.sampled_from(["j.txt", "j2.txt", "trap.ini"]),
              st.sampled_from(["--shots", "--seed", "--input"]),
              st.sampled_from(["5", "-1", "0", "+1+", "01"] + HOSTILE),
              st.sampled_from(["--seed", "--noise", "--shots"]),
              st.sampled_from(["3", "-1"] + HOSTILE)),
    st.tuples(st.just("compile-qft"), st.just("--j"), st.sampled_from(["j2.txt", "missing.txt"])),
    st.tuples(st.just("scenario"), st.sampled_from(["fig2", "fig9", "s.ini", "missing.ini"]),
              st.just("--seed"), st.sampled_from(["7", "-1"] + HOSTILE)),
    st.tuples(st.sampled_from(["frobnicate", "run", "--help-me"])),
)


@settings(max_examples=40, deadline=None)
@given(ARGV)
def test_the_command_line_runs_or_names_its_error(argv):
    with workdir() as root:
        (root / "s.ini").write_text("[scenario]\nprogram = p.pulse\ncouplings = j.txt\nshots = 5\n")
        argv = [str(root / token) if token in FILES else token for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {cli.OUTPUT_ROOT_VAR: str(root / "out")}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refused the arguments
                code = exc.code
    assert code in (0, 1, 2), code
    if code == 1:
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
