import numpy as np
import pytest

from magicforge.program import (
    Echo,
    FreeEvolve,
    Measure,
    ProgramError,
    PulseProgram,
    Rotate,
    TransferBasis,
    load_program,
    parse_angle,
    parse_program,
)


def test_text_round_trip():
    prog = PulseProgram(
        n_qubits=3,
        instructions=[
            Rotate(0, np.pi / 2, -np.pi / 2),
            FreeEvolve(3.69e-3, dd_pulses=20, dd_scheme="kdd"),
            TransferBasis(1, "pi"),
            Echo(2, np.pi / 2),
            FreeEvolve(1e-4),
            Measure(),
        ],
        relabel=(2, 1, 0),
        name="round trip",
    )
    again = parse_program(prog.to_text())
    assert again.n_qubits == 3
    assert again.relabel == (2, 1, 0)
    assert again.instructions == prog.instructions
    # the name is one comment line of the text; a line break in it would leak
    # the rest of the name into the program
    for name in ("x\nR 0 pi 0", "x\r", "x\u2028y"):
        with pytest.raises(ProgramError, match="name must not contain a line break"):
            PulseProgram(3, [], name=name)


def test_parse_angle_pi_notation():
    assert parse_angle("0.5pi") == pytest.approx(np.pi / 2)
    assert parse_angle("-pi") == pytest.approx(-np.pi)
    assert parse_angle("1.25") == pytest.approx(1.25)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ProgramError, match="line 3"):
        parse_program("R 0 pi 0\nEV 1e-3\nWOBBLE 1\n")
    with pytest.raises(ProgramError, match="line 1"):
        parse_program("R 0 pi\n")
    with pytest.raises(ProgramError, match="line 2: MEAS takes no operands, got 1"):
        parse_program("R 0 pi 0\nMEAS 3\n")
    with pytest.raises(ProgramError, match="line 3: MEAS must be the last instruction"):
        parse_program("# qubits: 1\nMEAS\nR 0 pi 0")
    with pytest.raises(ProgramError, match="line 2: unknown decoupling scheme 'foo'"):
        parse_program("R 0 pi 0\nEV 1e-3 dd=0,foo\n")
    with pytest.raises(ProgramError, match="unknown decoupling scheme 'bogus'"):
        FreeEvolve(1e-3, 0, "bogus")
    with pytest.raises(ProgramError, match="line 2: register declared twice"):
        parse_program("# qubits: 2\n# qubits: 3\nR 0 pi 0\n")
    with pytest.raises(ProgramError, match="line 3: RELABEL given twice"):
        parse_program("# qubits: 2\nRELABEL 1 0\nRELABEL 0 1\n")
    with pytest.raises(ProgramError, match="line 2: RELABEL 0 0 is not a permutation of 0..1"):
        parse_program("R 0 pi 0\nRELABEL 0 0\n")
    with pytest.raises(ProgramError, match="line 1: RELABEL +is not a permutation of 0..0"):
        parse_program("RELABEL\n")


def test_load_program_names_the_file(tmp_path):
    path = tmp_path / "p.pulse"
    path.write_text("# qubits: 2\nR 1 pi 0\n")
    assert load_program(path).to_text() == parse_program(path.read_text()).to_text()
    path.write_text("R 0 pi 0\nNOPE\n")
    with pytest.raises(ProgramError, match="p.pulse: line 2: unknown instruction"):
        load_program(path)
    path.write_bytes(b"R 0 pi 0\n\xff\n")
    with pytest.raises(ProgramError, match="p.pulse: .*codec can't decode"):
        load_program(path)


def test_non_finite_values_are_rejected_where_they_enter():
    with pytest.raises(ProgramError, match="line 2: duration must be finite, got nan"):
        parse_program("R 0 pi 0\nEV nan\n")
    with pytest.raises(ProgramError, match="line 1: theta must be finite, got inf"):
        parse_program("R 0 inf 0\n")
    with pytest.raises(ProgramError, match="line 1: phi must be finite"):
        parse_program("PH 1 -inf\n")
    with pytest.raises(ProgramError, match="line 1: phi must be finite"):
        parse_program("ECHO 1 nan\n")
    with pytest.raises(ProgramError, match="phi must be finite"):
        Rotate(0, np.pi, float("nan"))
    with pytest.raises(ProgramError, match="unknown encoding basis 'bogus'"):
        TransferBasis(0, "bogus")


def test_decoupling_pulse_counts_checked_at_parse_time():
    with pytest.raises(ProgramError, match="line 1: kdd pulse count must be a multiple of 10"):
        parse_program("EV 1e-3 dd=3,kdd\n")
    with pytest.raises(ProgramError, match="line 2: cpmg pulse count must be even"):
        parse_program("R 0 pi 0\nEV 1e-3 dd=5\n")
    with pytest.raises(ProgramError, match="unknown decoupling scheme"):
        FreeEvolve(1e-3, 4, "xy8")
    assert parse_program("EV 1e-3 dd=20,kdd\n").instructions[0].dd_pulses == 20


def test_relabel_must_be_permutation():
    with pytest.raises(ProgramError):
        PulseProgram(n_qubits=3, instructions=[], relabel=(0, 0, 2))


def test_duration_counts_only_free_evolution():
    prog = PulseProgram(
        n_qubits=2,
        instructions=[Rotate(0, np.pi, 0.0), FreeEvolve(2e-3), FreeEvolve(0.5e-3)],
    )
    assert prog.duration == pytest.approx(2.5e-3)


def test_qubit_indices_validated_against_register():
    with pytest.raises(ProgramError, match="line 1: bad register size 'abc'"):
        parse_program("# qubits: abc\nR 0 pi 0\n")
    with pytest.raises(ProgramError, match="line 2: qubit 5 outside register of 3"):
        parse_program("# qubits: 3\nR 5 pi 0\n")
    with pytest.raises(ProgramError, match="line 3: RELABEL .* not a permutation of 0..2"):
        parse_program("# qubits: 3\nR 0 pi 0\nRELABEL 5 4 3 2 1 0\n")
    with pytest.raises(ProgramError, match="line 2: register declared after"):
        parse_program("R 0 pi 0\n# qubits: 3\n")
    with pytest.raises(ProgramError, match="line 1: Rotate qubit must be a non-negative int"):
        parse_program("R -1 pi 0\n")
    # only XFER takes "all"
    with pytest.raises(ProgramError, match="line 2: Rotate qubit must be a non-negative int, "
                                           "got 'all'"):
        parse_program("# qubits: 3\nR all pi 0\n")
    prog = parse_program("# qubits: 4\nR 1 pi 0\nRELABEL 3 2 1 0\n")
    assert prog.n_qubits == 4 and prog.relabel == (3, 2, 1, 0)
