import csv
import dataclasses
import filecmp
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from magicforge import engine, harness, qft


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    directory = tmp_path_factory.mktemp("all")
    out = harness.run_all(directory, seed=harness.DEFAULT_SEED)
    return directory, out


def test_run_all_produces_every_table(full_run):
    directory, out = full_run
    stems = ("precession", "topologies", "transform_fringes",
             "distributions", "distribution_summary", "fidelity_table")
    assert set(out) == set(stems)
    for stem in stems:
        assert (directory / f"{stem}.csv").exists()
        assert (directory / f"{stem}.json").exists()


FROZEN = Path(__file__).resolve().parents[1] / "bench" / "expected" / "reproduce"
# Columns drawn from shot sampling; they must match the frozen tables exactly.
SAMPLED = {
    "precession": {"contrast", "contrast_err", "phase", "phase_err"},
    "transform_fringes": {"contrast", "contrast_err", "phase", "fringe_fidelity"},
    "distributions": {"p_simulated_noisy", "counts"},
    "distribution_summary": {"sso", "distinguishability"},
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_tables_match_frozen_reproduction(full_run):
    directory, _ = full_run
    frozen = sorted(FROZEN.glob("*.csv"))
    assert {p.stem for p in frozen} == {p.stem for p in directory.glob("*.csv")}
    for path in frozen:
        want = read_csv(path)
        got = read_csv(directory / path.name)
        assert got[0] == want[0] and len(got) == len(want), path.stem
        for r, (row, want_row) in enumerate(zip(got[1:], want[1:])):
            for column, cell, want_cell in zip(want[0], row, want_row):
                where = f"{path.stem} row {r} {column}"
                if column in SAMPLED.get(path.stem, ()) or cell == want_cell:
                    assert cell == want_cell, where
                else:
                    w = float(want_cell)
                    assert abs(float(cell) - w) <= 1e-12 + 1e-9 * abs(w), where


DATA = Path(__file__).resolve().parent / "data"


def assert_files_frozen(directory, frozen_dir):
    frozen = sorted(path.name for path in frozen_dir.iterdir())
    assert len(frozen) == 12
    assert sorted(path.name for path in Path(directory).iterdir()) == frozen
    for name in frozen:
        assert (Path(directory) / name).read_bytes() == (frozen_dir / name).read_bytes(), \
            f"{name} differs"


def test_run_all_bytes_at_seed_7_are_frozen(tmp_path):
    # every file run_all writes, byte for byte, at a second seed: a change that leaves
    # the model's numbers alone moves none of them
    harness.run_all(tmp_path, seed=7)
    assert_files_frozen(tmp_path, DATA / "run_all_seed7")


def test_run_all_bytes_at_the_default_seed_are_frozen(full_run):
    # byte for byte, so a %.10g flip in an unsampled cell fails here, where
    # test_tables_match_frozen_reproduction's 1e-9 relative tolerance lets it pass
    directory, _ = full_run
    assert_files_frozen(directory, DATA / "run_all_default")


def test_single_scenario_reproduces_full_run_bytes(full_run, tmp_path):
    # a transform scenario run alone stacks only its own inputs, and still writes the
    # bytes of its slices of run_all's one stack
    directory, _ = full_run
    for name in ("transform_fringes", "distributions", "fidelity_table"):
        out = harness.run_scenario(name, tmp_path / name, seed=harness.DEFAULT_SEED)
        for stem in out:
            for ext in (".csv", ".json"):
                assert filecmp.cmp(directory / f"{stem}{ext}", tmp_path / name / f"{stem}{ext}",
                                   shallow=False), stem


def test_same_seed_same_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    harness.run_scenario("distributions", a, seed=123)
    harness.run_scenario("distributions", b, seed=123)
    assert filecmp.cmp(a / "distributions.csv", b / "distributions.csv", shallow=False)
    c = tmp_path / "c"
    harness.run_scenario("distributions", c, seed=124)
    assert not filecmp.cmp(a / "distributions.csv", c / "distributions.csv", shallow=False)


def test_transform_compiled_once_per_run(monkeypatch, tmp_path):
    calls = []
    compile_qft = harness.compile_qft

    def counting_compile(*args, **kwargs):
        calls.append(1)
        return compile_qft(*args, **kwargs)

    monkeypatch.setattr(harness, "compile_qft", counting_compile)
    harness.run_all(tmp_path / "all")
    assert len(calls) == 1
    calls.clear()
    harness.run_scenario("fidelity_table", tmp_path / "one")
    assert len(calls) == 1


def test_transform_program_walked_once_per_run(monkeypatch, tmp_path):
    # run_all runs the transform once, over one stack of the 17 distinct inputs its
    # three scenarios read; a scenario run alone walks it once over its own inputs
    compiled = harness._compile_transform()
    walked = []
    walk = engine._walk

    def counting_walk(program, j, frame):
        walked.append((program, None if frame.time is None else frame.time.size))
        return walk(program, j, frame)

    monkeypatch.setattr(engine, "_walk", counting_walk)

    def transform_stacks():
        # the fidelity gate walks the program too, with no stack
        stacks = [size for program, size in walked
                  if program.name == compiled.program.name and size is not None]
        walked.clear()
        return stacks

    harness.run_all(tmp_path / "all")
    assert transform_stacks() == [17]
    for name, inputs in (("transform_fringes", 1), ("distributions", 4), ("fidelity_table", 15)):
        harness.run_scenario(name, tmp_path / name)
        assert transform_stacks() == [inputs], name
    harness.scenario_precession(np.random.default_rng(0))
    assert [p.name for p, _ in walked if p.name.startswith("ramsey")] == [
        f"ramsey q0 T={t:.6g}" for t in (1e-3, 2e-3, 3e-3, 4e-3)]


def test_ideal_outputs_are_built_once_and_read_only():
    # the harness reads the transform's ideal outputs and their factors from qft's record
    assert harness.reference_answer is qft.reference_answer
    for label in harness.PRODUCT_INPUTS:
        answer = harness.reference_answer(label)
        assert harness.reference_answer(label) is answer
        assert answer.output.tobytes() == \
            (qft.reference_qft() @ engine.product_input_ket(label)).tobytes()
        for array in (answer.output, answer.factors):
            if array is not None:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0


def test_fringe_scans_run_once_per_configuration(monkeypatch):
    calls = []

    def counting(run):
        def counting_run(*args, **kwargs):
            calls.append(1)
            return run(*args, **kwargs)
        return counting_run

    monkeypatch.setattr(engine, "run_batch", counting(engine.run_batch))
    p = engine.ramsey_scan(0, 1e-3, harness._PHASES, harness.demo_couplings(), dd_pulses=20)
    assert len(calls) == 1 and p.shape == harness._PHASES.shape
    calls.clear()
    monkeypatch.setattr(harness, "run_batch", counting(harness.run_batch))
    harness.scenario_topologies()
    assert len(calls) == 2  # both neighbours active; outer neighbour parked


def test_csv_and_json_carry_identical_numbers(full_run):
    directory, _ = full_run
    rows = json.loads((directory / "distributions.json").read_text())
    csv_lines = (directory / "distributions.csv").read_text().splitlines()
    header = csv_lines[0].split(",")
    assert header == ["scenario", "label", "input", "state_label",
                      "p_simulated_noisy", "p_ideal", "p_simulated", "counts"]
    assert len(rows) == len(csv_lines) - 1 == 32
    for row, line in zip(rows, csv_lines[1:]):
        cells = line.split(",")
        for key, cell in zip(header, cells):
            v = row[key]
            expected = f"{v:.10g}" if isinstance(v, float) else str(v)
            assert cell == expected


def test_distribution_summary_has_overlap_columns(full_run):
    directory, out = full_run
    summary = out["distribution_summary"]
    assert [rec.values["input"] for rec in summary] == ["111", "+11", "++1", "+++"]
    for rec in summary:
        assert 0.0 <= rec.values["sso"] <= 1.0
        assert 0.0 <= rec.values["distinguishability"] <= 1.0
        assert rec.values["shots"] == 1250


def test_empty_record_list_gives_header_only_files(tmp_path):
    csv_path, json_path = harness.emit_records([], tmp_path, "empty")
    assert Path(csv_path).read_text() == "scenario,label\n"
    assert json.loads(Path(json_path).read_text()) == []


def test_alias_resolution():
    assert harness.resolve_scenario_name("fig5") == "distributions"
    assert harness.resolve_scenario_name("table1") == "fidelity_table"
    assert harness.resolve_scenario_name("precession") == "precession"
    with pytest.raises(harness.HarnessError, match="unknown scenario"):
        harness.resolve_scenario_name("fig9")


def test_expected_precession_rate():
    j = harness.demo_couplings()
    assert harness.expected_precession_rate(j, 0, {1: 1, 2: 1}) == pytest.approx(
        j[0, 1] + j[0, 2])
    assert harness.expected_precession_rate(j, 0, {1: 1, 2: 0}) == pytest.approx(
        j[0, 1] - j[0, 2])
    assert harness.expected_precession_rate(j, 0, {}) == 0.0


def write_scenario_files(tmp_path, extra=""):
    np.savetxt(tmp_path / "j.txt", harness.demo_couplings(), fmt="%.12e")
    (tmp_path / "p.pulse").write_text(
        "# qubits: 3\nR 0 0.5pi 0\nEV 2e-3\nR 0 0.5pi 0.5pi\n")
    (tmp_path / "s.ini").write_text(
        "[scenario]\nname = custom\nprogram = p.pulse\ncouplings = j.txt\n"
        "input = 011\nshots = 100\nseed = 5\nnoise = true\n" + extra)
    return tmp_path / "s.ini"


def test_custom_scenario_round_trip(tmp_path):
    path = write_scenario_files(tmp_path)
    scenario = harness.load_scenario_file(path)
    assert scenario.name == "custom"
    assert scenario.shots == 100 and scenario.noise
    records = harness.run_custom_scenario(scenario, tmp_path / "out")
    assert len(records) == 8
    counts = sum(rec.values["counts"] for rec in records)
    assert counts == 100
    assert (tmp_path / "out" / "custom.csv").exists()
    # deterministic across repeats
    again = harness.run_custom_scenario(scenario, tmp_path / "out2")
    assert [r.values["counts"] for r in again] == [r.values["counts"] for r in records]


def test_custom_run_writes_the_distributions_layout(tmp_path):
    # one histogram layout: input, state_label, [p_simulated_noisy,] p_ideal,
    # p_simulated, [counts], each row labelled "<input> -> <state>"
    scenario = harness.load_scenario_file(write_scenario_files(tmp_path))
    records = harness.run_custom_scenario(scenario, tmp_path / "shots")
    analytic = harness.run_custom_scenario(dataclasses.replace(scenario, shots=0),
                                           tmp_path / "analytic")
    assert (tmp_path / "shots" / "custom.csv").read_text().splitlines()[0] == (
        "scenario,label,input,state_label,p_simulated_noisy,p_ideal,p_simulated,counts")
    assert (tmp_path / "analytic" / "custom.csv").read_text().splitlines()[0] == (
        "scenario,label,input,state_label,p_ideal,p_simulated")
    assert [rec.label for rec in records] == [f"011 -> {k:03b}" for k in range(8)]
    for rec, plain in zip(records, analytic):
        assert rec.values["p_simulated_noisy"] == rec.values["counts"] / 100
        assert {k: v for k, v in rec.values.items()
                if k not in ("p_simulated_noisy", "counts")} == plain.values


def test_scenario_file_reads_inline_comments_as_a_trap_file_does(tmp_path):
    write_scenario_files(tmp_path)
    (tmp_path / "c.ini").write_text(
        "[scenario]\nprogram = p.pulse ; the probe\ncouplings = j.txt\n"
        "shots = 5 ; five\nseed = 3  # three\n")
    scenario = harness.load_scenario_file(tmp_path / "c.ini")
    assert (scenario.shots, scenario.seed) == (5, 3)


def test_custom_scenario_without_shots_is_analytic(tmp_path):
    np.savetxt(tmp_path / "j.txt", harness.demo_couplings(), fmt="%.12e")
    (tmp_path / "p.pulse").write_text("# qubits: 3\nR 1 pi 0\n")
    (tmp_path / "s.ini").write_text(
        "[scenario]\nprogram = p.pulse\ncouplings = j.txt\n")
    scenario = harness.load_scenario_file(tmp_path / "s.ini")
    records = harness.run_custom_scenario(scenario, tmp_path / "out")
    values = {rec.values["state_label"]: rec.values["p_simulated"] for rec in records}
    assert values["010"] == pytest.approx(1.0, abs=1e-12)
    assert "counts" not in records[0].values


def test_scenario_input_defaults_to_all_zero():
    # the default is set from the program's width, so it fits any register
    for n in (1, 2, 5):
        prog = harness.PulseProgram(n, [])
        scenario = harness.Scenario("s", prog, np.zeros((n, n)))
        assert scenario.input_state == "0" * n


def test_scenario_built_in_code_checks_its_output_stem(tmp_path):
    # the stem check lives in Scenario, so a scenario built in code or by the CLI
    # cannot write next to the output directory either
    prog = harness.PulseProgram(3, [])
    for name in ("../escaped", "..", ".", "", "a/b", "a\\b", "a\nb"):
        with pytest.raises(harness.HarnessError, match="name must"):
            harness.run_custom_scenario(harness.Scenario(name, prog, np.zeros((3, 3))),
                                        tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_scenario_file_error_reporting(tmp_path):
    with pytest.raises(harness.HarnessError, match="cannot read"):
        harness.load_scenario_file(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[other]\nx = 1\n")
    with pytest.raises(harness.HarnessError, match="scenario"):
        harness.load_scenario_file(bad)
    bad.write_text("[scenario]\ncouplings = j.txt\n")
    with pytest.raises(harness.HarnessError, match="program"):
        harness.load_scenario_file(bad)
    np.savetxt(tmp_path / "j.txt", harness.demo_couplings(), fmt="%.12e")
    (tmp_path / "broken.pulse").write_text("# qubits: 3\nR 0 pi 0\nNOPE\n")
    bad.write_text("[scenario]\nprogram = broken.pulse\ncouplings = j.txt\n")
    with pytest.raises(harness.HarnessError, match="line 3"):
        harness.load_scenario_file(bad)
    (tmp_path / "ok.pulse").write_text("# qubits: 3\nR 0 pi 0\n")
    bad.write_text("[scenario]\nprogram = ok.pulse\n")
    with pytest.raises(harness.HarnessError, match="couplings or trap"):
        harness.load_scenario_file(bad)
    bad.write_text("[scenario]\nprogram = ok.pulse\ncouplings = j.txt\ntopology = E\n")
    with pytest.raises(harness.HarnessError, match="topology needs a trap"):
        harness.load_scenario_file(bad)
    bad.write_text("[scenario]\nprogram = ok.pulse\ncouplings = j.txt\nname = a\n  b\n")
    with pytest.raises(harness.HarnessError, match="name must not contain a line break"):
        harness.load_scenario_file(bad)
    for name in ("../escaped", "..", "a\\b"):
        bad.write_text(f"[scenario]\nprogram = ok.pulse\ncouplings = j.txt\nname = {name}\n")
        with pytest.raises(harness.HarnessError, match="name must be a plain file stem"):
            harness.load_scenario_file(bad)
    for line, message in (("pulse_duration = nan", "pulse_duration must be finite and >= 0"),
                          ("pulse_duration = inf", "pulse_duration must be finite and >= 0"),
                          ("pulse_duration = -1", "pulse_duration must be finite and >= 0"),
                          ("shots = -5", "shots must be >= 0, got -5"),
                          (f"shots = {10**22}",
                           f"shots must be an int below 2\\^63, got {10**22}"),
                          ("seed = -1", "seed must be >= 0, got -1"),
                          ("input = 0x1", "input: bad preparation label '0x1'"),
                          ("input = 01", "input '01' does not match a 3-qubit program"),
                          ("input = 0001", "input '0001' does not match a 3-qubit program")):
        bad.write_text(f"[scenario]\nprogram = ok.pulse\ncouplings = j.txt\n{line}\n")
        with pytest.raises(harness.HarnessError, match=f"bad.ini: {message}"):
            harness.load_scenario_file(bad)


def test_scenario_takes_an_int_shot_count():
    # 10**22 reached sample_counts and escaped the CLI as a bare OverflowError
    prog = harness.PulseProgram(3, [])
    for shots in (1.5, True, "5", 10**22, 2**63):
        with pytest.raises(harness.HarnessError, match=r"shots must be an int below 2\^63, got "
                                                       + re.escape(repr(shots))):
            harness.Scenario("s", prog, np.zeros((3, 3)), shots=shots)
    assert harness.Scenario("s", prog, np.zeros((3, 3)), shots=2**63 - 1).shots == 2**63 - 1


def test_scenario_takes_an_int_seed():
    # 1.5 died in the run with a bare TypeError from SeedSequence, and True ran as seed 1
    prog = harness.PulseProgram(3, [])
    for seed in (1.5, True, "5"):
        with pytest.raises(harness.HarnessError, match="seed must be an int, got "
                                                       + re.escape(repr(seed))):
            harness.Scenario("s", prog, np.zeros((3, 3)), seed=seed)
    assert harness.Scenario("s", prog, np.zeros((3, 3)), seed=np.int64(7)).seed == 7


def test_scenario_file_rejects_unknown_keys(tmp_path):
    # a misspelt key once ran with its default: shot = 100 drew no shots, and a
    # trap's magnetic_gradent_t_per_m = 40 ran at the default gradient
    (tmp_path / "ok.pulse").write_text("# qubits: 3\nR 0 pi 0\n")
    np.savetxt(tmp_path / "j.txt", harness.demo_couplings(), fmt="%.12e")
    (tmp_path / "trap.ini").write_text("[trap]\nmagnetic_gradent_t_per_m = 40\n")
    bad = tmp_path / "bad.ini"
    for source, message in (("couplings = j.txt\nshot = 100",
                             r"bad.ini: \[scenario\] has unknown key 'shot'; known: "),
                            ("trap = trap.ini", r"bad.ini: .*trap.ini: \[trap\] has unknown "
                                                r"key 'magnetic_gradent_t_per_m'; known: ")):
        bad.write_text(f"[scenario]\nprogram = ok.pulse\n{source}\n")
        with pytest.raises(harness.HarnessError, match=message):
            harness.load_scenario_file(bad)


def test_scenario_file_names_a_bad_coupling_source(tmp_path):
    # a coupling source that does not fit the program fails at load, naming every file
    (tmp_path / "one.pulse").write_text("# qubits: 1\nR 0 pi 0\n")
    np.savetxt(tmp_path / "j2.txt", np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.savetxt(tmp_path / "asym.txt", np.array([[0.0, 1.0], [2.0, 0.0]]))
    (tmp_path / "headless.ini").write_text("ion_count = 1\n")
    (tmp_path / "twice.ini").write_text("[trap]\n[trap]\n")
    (tmp_path / "zero.ini").write_text("[trap]\nion_count = 0\n")
    bad = tmp_path / "bad.ini"
    for source, message in (("couplings = j2.txt", r"shape \(2, 2\) is not \(1, 1\)"),
                            ("couplings = asym.txt", r"asym.txt: coupling J\[0, 1\]"),
                            ("trap = headless.ini", "headless.ini: File contains no section"),
                            ("trap = twice.ini", "twice.ini: .*already exists"),
                            ("trap = zero.ini", "zero.ini: ion_count must be an int")):
        bad.write_text(f"[scenario]\nprogram = one.pulse\n{source}\n")
        with pytest.raises(harness.HarnessError, match=f"bad.ini: .*{message}"):
            harness.load_scenario_file(bad)
    with pytest.raises(harness.HarnessError, match=r"shape \(2, 2\) is not \(1, 1\)"):
        harness.Scenario("s", harness.PulseProgram(1, []), np.zeros((2, 2)))


def test_traced_run_all_times_every_scenario(tmp_path, monkeypatch):
    # the benchmark's tracer wraps module attributes, so run_scenario must call each
    # scenario through its module attribute for the per-scenario rows to read
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.begin(0)
    try:
        harness.run_all(tmp_path)
    finally:
        tracer.end()
    rows = tracer.layer_metrics()
    for layer in [f"scenario_{name}" for name in harness.SCENARIO_NAMES] + ["emit_records"]:
        assert rows[f"harness.{layer}.ms"] > 0, layer


def test_topologies_scenario_rows(full_run):
    _, out = full_run
    rows = out["topologies"]
    labels = [rec.label for rec in rows]
    for preset in ("A", "B", "C", "D", "E"):
        assert any(preset in lab for lab in labels)
