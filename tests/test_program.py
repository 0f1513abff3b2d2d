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


def test_extend_merges_instructions_and_relabel():
    a = PulseProgram(n_qubits=3, instructions=[Rotate(0, np.pi, 0.0)])
    b = PulseProgram(n_qubits=3, instructions=[FreeEvolve(1e-3)], relabel=(1, 0, 2))
    a.extend(b)
    assert len(a.instructions) == 2
    assert a.relabel == (1, 0, 2)
    with pytest.raises(ProgramError):
        a.extend(PulseProgram(n_qubits=2, instructions=[]))


def test_duration_counts_only_free_evolution():
    prog = PulseProgram(
        n_qubits=2,
        instructions=[Rotate(0, np.pi, 0.0), FreeEvolve(2e-3), FreeEvolve(0.5e-3)],
    )
    assert prog.duration == pytest.approx(2.5e-3)


def test_qubit_indices_validated_against_register():
    with pytest.raises(ProgramError, match="line 1"):
        parse_program("R 5 pi 0\n", n_qubits=3)
    with pytest.raises(ProgramError, match="line 1: bad register size 'abc'"):
        parse_program("# qubits: abc\nR 0 pi 0\n")
    with pytest.raises(ProgramError, match="line 2: qubit 5 outside register of 3"):
        parse_program("# qubits: 3\nR 5 pi 0\n")
    with pytest.raises(ProgramError, match="line 3: RELABEL .* not a permutation of 0..2"):
        parse_program("# qubits: 3\nR 0 pi 0\nRELABEL 5 4 3 2 1 0\n")
    with pytest.raises(ProgramError, match="line 2: register declared after"):
        parse_program("R 0 pi 0\n# qubits: 3\n")
    with pytest.raises(ProgramError, match="line 1: negative qubit index"):
        parse_program("R -1 pi 0\n")
    prog = parse_program("# qubits: 4\nR 1 pi 0\nRELABEL 3 2 1 0\n")
    assert prog.n_qubits == 4 and prog.relabel == (3, 2, 1, 0)
