import csv
import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from magicforge import engine, harness


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


def test_single_scenario_reproduces_full_run_bytes(full_run, tmp_path):
    directory, _ = full_run
    harness.run_scenario("distributions", tmp_path, seed=harness.DEFAULT_SEED)
    for stem in ("distributions", "distribution_summary"):
        for ext in (".csv", ".json"):
            assert filecmp.cmp(directory / f"{stem}{ext}", tmp_path / f"{stem}{ext}",
                               shallow=False)


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


def test_fringe_scans_run_once_per_configuration(monkeypatch):
    calls = []

    def counting(run):
        def counting_run(*args, **kwargs):
            calls.append(1)
            return run(*args, **kwargs)
        return counting_run

    monkeypatch.setattr(engine, "run_program", counting(engine.run_program))
    p = engine.ramsey_scan(0, 1e-3, harness._PHASES, harness.demo_couplings(), dd_pulses=20)
    assert len(calls) == 1 and p.shape == harness._PHASES.shape
    calls.clear()
    monkeypatch.setattr(harness, "run_program", counting(harness.run_program))
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
    csv_text = open(csv_path).read()
    assert csv_text == "scenario,label\n"
    assert json.loads(open(json_path).read()) == []


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


def test_topologies_scenario_rows(full_run):
    _, out = full_run
    rows = out["topologies"]
    labels = [rec.label for rec in rows]
    for preset in ("A", "B", "C", "D", "E"):
        assert any(preset in lab for lab in labels)
