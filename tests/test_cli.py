from pathlib import Path

import numpy as np
import pytest

from magicforge import cli, harness, qft
from magicforge.chain import load_couplings
from magicforge.cli import main
from magicforge.engine import program_unitary
from magicforge.program import parse_program
from magicforge.qft import calibrated_couplings, compile_qft

TRAP_INI = """[trap]
ion_count = 3
ion_mass_amu = 171.0
axial_frequency_hz = 130e3
magnetic_gradient_t_per_m = 19.0
bias_field_t = 0.4146e-3
"""


@pytest.fixture
def out_root(tmp_path, monkeypatch):
    root = tmp_path / "out"
    monkeypatch.setenv("MAGIC_FORGE_OUT", str(root))
    return root


@pytest.fixture
def trap_file(tmp_path):
    path = tmp_path / "trap.ini"
    path.write_text(TRAP_INI)
    return str(path)


@pytest.fixture
def j_file(tmp_path):
    path = tmp_path / "j.txt"
    np.savetxt(path, calibrated_couplings(), fmt="%.12e")
    return str(path)


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "scan.pulse"
    path.write_text("# qubits: 3\nR 0 0.5pi 0\nEV 2e-3\nR 0 0.5pi 0.5pi\n")
    return str(path)


def test_chain_report(trap_file, out_root, capsys):
    assert main(["chain", trap_file]) == 0
    out = capsys.readouterr().out
    assert "mode frequencies (kHz): 130.0000  225.1666  313.0815" in out
    assert "J/2pi" in out


def test_chain_bad_config(tmp_path, out_root, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nope]\nx = 1\n")
    assert main(["chain", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_file_errors_name_the_file(tmp_path, program_file, j_file, out_root, capsys):
    broken = tmp_path / "broken.pulse"
    broken.write_text("# qubits: 3\nR 0 pi 0\nNOPE\n")
    bad_j = tmp_path / "bad_j.txt"
    bad_j.write_text("0 1 2\n1 0 x\n2 1 0\n")
    headless = tmp_path / "headless.ini"
    headless.write_text("ion_count = 3\n")
    # the field's sign check needs the chain's positions, so it runs after from_ini and
    # named no file
    steep = tmp_path / "steep.ini"
    steep.write_text("[trap]\nmagnetic_gradient_t_per_m = 1e290\n")
    sign = (f"{steep}: bias_field too small: the field changes sign across the chain "
            "(bias_field 0.0004146 T, magnetic_gradient 1e+290 T/m)")
    for argv, message in ((["run", str(broken), "--j", j_file], f"{broken}: line 3"),
                          (["run", program_file, "--j", str(bad_j)], f"{bad_j}: could not"),
                          (["compile-qft", "--j", str(bad_j)], f"{bad_j}: could not"),
                          (["chain", str(headless)], f"{headless}: File contains no section"),
                          (["chain", str(steep)], sign), (["couplings", str(steep)], sign)):
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err


def test_couplings_with_topology(trap_file, out_root):
    assert main(["couplings", trap_file, "--topology", "D"]) == 0
    j = load_couplings(out_root / "couplings_D.txt").j
    assert j[0, 1] == 0.0 and j[1, 2] == 0.0
    assert j[0, 2] > 0.0


def test_run_requires_seed_with_shots(program_file, j_file, out_root, capsys):
    assert main(["run", program_file, "--j", j_file, "--shots", "50"]) == 1
    assert "--seed is required" in capsys.readouterr().err


def test_run_rejects_bad_input_and_seed(program_file, j_file, out_root, capsys):
    for extra, message in ((["--input", "01"], "input '01' does not match a 3-qubit program"),
                           (["--input", "0x1"], "input: bad preparation label '0x1'"),
                           (["--shots", "5", "--seed", "-1"], "seed must be >= 0, got -1"),
                           (["--shots", str(10**22), "--seed", "1"],
                            f"shots must be an int below 2^63, got {10**22}"),
                           # argparse's type=int read a fullwidth digit: this drew 3 shots
                           (["--shots", "\uff13", "--seed", "\uff17"],
                            "--shots '\uff13' is malformed: a number must be ASCII text"),
                           (["--shots", "3", "--seed", "\uff17"],
                            "--seed '\uff17' is malformed: a number must be ASCII text")):
        assert main(["run", program_file, "--j", j_file, *extra]) == 1
        assert message in capsys.readouterr().err


def test_run_emits_histogram(program_file, j_file, out_root, capsys):
    rc = main(["run", program_file, "--j", j_file, "--noise",
               "--shots", "200", "--seed", "9", "--input", "011"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "state_label" in out and "counts" in out
    assert (out_root / "scan.csv").exists()
    assert (out_root / "scan.json").exists()


def test_run_analytic_when_no_shots(program_file, j_file, out_root, capsys):
    assert main(["run", program_file, "--j", j_file]) == 0
    out = capsys.readouterr().out
    assert "p_simulated" in out and "counts" not in out


def test_compile_qft_writes_plan_and_programs(j_file, out_root, capsys):
    assert main(["compile-qft", "--j", j_file, "--form", "optimized"]) == 0
    for name in ("qft_plan.txt", "qft_exact.pulse", "qft_optimized.pulse"):
        assert (out_root / name).exists()
    plan = (out_root / "qft_plan.txt").read_text()
    assert "T3=4.870000 ms" in plan
    assert "process fidelity: 1.0000000000" in plan
    out = capsys.readouterr().out
    assert "serial one-pair-at-a-time baseline" in out


FROZEN = Path(__file__).resolve().parent / "data" / "cli"


def counting(calls, function):
    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)
    return counted


def test_compile_qft_solves_once_and_writes_the_frozen_files(j_file, out_root, monkeypatch):
    # one window solve serves both forms; the files are those the command wrote when
    # it compiled each form on its own
    calls = []
    for module in (cli, qft):
        monkeypatch.setattr(module, "solve_entangling_params",
                            counting(calls, qft.solve_entangling_params))
    assert main(["compile-qft", "--j", j_file, "--form", "optimized"]) == 0
    assert len(calls) == 1
    for name in ("qft_exact.pulse", "qft_optimized.pulse"):
        assert (out_root / name).read_bytes() == (FROZEN / "qft" / name).read_bytes(), name
    plan = (out_root / "qft_plan.txt").read_text().replace(str(out_root), "{root}")
    assert plan == (FROZEN / "qft" / "qft_plan.txt").read_text()


def test_run_without_noise_runs_the_program_once(program_file, j_file, out_root, monkeypatch):
    # with noise off the model run is the ideal run, so it serves as both
    calls = []
    monkeypatch.setattr(harness, "run_batch", counting(calls, harness.run_batch))
    argv = ["run", program_file, "--j", j_file, "--shots", "200", "--seed", "9", "--input", "+1+"]
    assert main(argv) == 0
    assert len(calls) == 1
    for name in ("scan.csv", "scan.json"):
        assert (out_root / name).read_bytes() == (FROZEN / "run" / name).read_bytes(), name
    calls.clear()
    assert main([*argv, "--noise"]) == 0
    assert len(calls) == 2


def test_compile_qft_program_file_reads_back_exactly(j_file, out_root):
    assert main(["compile-qft", "--j", j_file, "--form", "exact"]) == 0
    compiled = compile_qft(load_couplings(j_file).j, form="exact")
    again = parse_program((out_root / "qft_exact.pulse").read_text())
    assert again.instructions == compiled.program.instructions
    assert again.relabel == compiled.program.relabel
    assert np.array_equal(program_unitary(again, compiled.couplings),
                          program_unitary(compiled.program, compiled.couplings))


def test_compile_qft_selected_form_survives_other_forms_gate(tmp_path, out_root, capsys,
                                                           monkeypatch):
    # Couplings where the folded form misses its fidelity gate but the exact
    # form is fine. Asking for exact must still succeed, with the skip noted;
    # asking for the gated form must fail loudly.
    j = np.array([[0.0, 400.0, 60.0], [400.0, 0.0, 90.0], [60.0, 90.0, 0.0]])
    path = tmp_path / "hard.txt"
    np.savetxt(path, j, fmt="%.12e")

    assert main(["compile-qft", "--j", str(path), "--form", "exact"]) == 0
    assert (out_root / "qft_exact.pulse").exists()
    assert not (out_root / "qft_optimized.pulse").exists()
    plan = (out_root / "qft_plan.txt").read_text()
    assert "[optimized] not emitted" in plan
    capsys.readouterr()

    # the failing form is compiled before anything is written, so a fresh output
    # root is left without either program or a plan
    fresh = tmp_path / "fresh"
    monkeypatch.setenv("MAGIC_FORGE_OUT", str(fresh))
    assert main(["compile-qft", "--j", str(path), "--form", "optimized"]) == 1
    assert "process fidelity" in capsys.readouterr().err
    assert not list(fresh.glob("qft_*.pulse")) and not (fresh / "qft_plan.txt").exists()


def test_scenario_builtin_alias(out_root, capsys):
    assert main(["scenario", "table1"]) == 0
    assert (out_root / "fidelity_table.csv").exists()
    assert main(["scenario", "fig9"]) == 1
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["scenario", "fig1", "--seed", "\uff17"]) == 1
    assert "error: --seed '\uff17' is malformed" in capsys.readouterr().err
    # SeedSequence's own "expected non-negative integer" named neither the flag nor the field
    assert main(["scenario", "fig1", "--seed", "-1"]) == 1
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err


def test_scenario_file(tmp_path, j_file, program_file, out_root):
    ini = tmp_path / "custom.ini"
    ini.write_text(
        f"[scenario]\nname = filecase\nprogram = {program_file}\n"
        f"couplings = {j_file}\ninput = 000\nshots = 64\nseed = 3\n")
    assert main(["scenario", str(ini)]) == 0
    assert (out_root / "filecase.csv").exists()
