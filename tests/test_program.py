import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicforge.engine import MAX_QUBITS, EngineError, NoiseModel, run_program
from magicforge.program import (
    BASES,
    Echo,
    FreeEvolve,
    Measure,
    PhaseShift,
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
    with pytest.raises(ProgramError, match="line 2: bad angle token '0.5xpi'"):
        parse_program("R 0 pi 0\nR 1 0.5xpi 0\n")
    with pytest.raises(ProgramError, match="line 2: register declared twice"):
        parse_program("# qubits: 2\n# qubits: 3\nR 0 pi 0\n")
    with pytest.raises(ProgramError, match="line 3: RELABEL given twice"):
        parse_program("# qubits: 2\nRELABEL 1 0\nRELABEL 0 1\n")
    with pytest.raises(ProgramError, match="line 2: RELABEL 0 0 is not a permutation of 0..1"):
        parse_program("R 0 pi 0\nRELABEL 0 0\n")
    with pytest.raises(ProgramError, match="line 1: RELABEL +is not a permutation of 0..0"):
        parse_program("RELABEL\n")
    # int() and float() read fullwidth and other non-ASCII numerals; the grammar is ASCII
    for text, line in (("# qubits: \uff13\nR 0 pi 0\n", 1),
                       ("R \uff10 \uff10.\uff15pi \uff10\n", 1), ("R 0 pi 0\nEV \uff11e-3\n", 2),
                       ("EV 1e-3 dd=\uff12\n", 1), ("R 0 pi 0\nRELABEL \uff10\n", 2)):
        with pytest.raises(ProgramError, match=f"line {line}: "):
            parse_program(text)
    # a comment is free text
    assert parse_program("R 0 pi 0  # \u03c0 pulse\n").n_qubits == 1


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
    # bools and floats sort as a permutation, but to_text would write what no parse reads
    for relabel in ((True, False), (1.0, 0.0)):
        with pytest.raises(ProgramError, match="is not a permutation of 0..1"):
            PulseProgram(2, [], relabel=relabel)


def test_a_program_is_checked_when_it_is_built():
    # each of these once built; some ran wrong, some died in the run, some wrote text
    # that parse_program rejects
    for build, message in (
            (lambda: PulseProgram(3, [Measure(), Rotate(0, 1.0)]), "MEAS must be the last"),
            (lambda: PulseProgram(3, [Rotate(5, 0.1)]), "qubit 5 outside register of 3"),
            (lambda: PulseProgram(3, [TransferBasis(3, "pi")]), "qubit 3 outside register"),
            (lambda: PulseProgram(MAX_QUBITS + 1, []), f"register of {MAX_QUBITS + 1} qubits"),
            (lambda: PulseProgram(0, []), "register of 0 qubits"),
            (lambda: PulseProgram(True, []), "register of True qubits"),
            (lambda: PulseProgram(3.0, []), "register of 3.0 qubits"),
            (lambda: PulseProgram(3, ["R 0 pi 0"]), "unknown instruction 'R 0 pi 0'"),
            (lambda: Rotate(True, np.pi), "qubit must be a non-negative int, got True"),
            (lambda: Rotate(0, "pi"), "theta must be a real number, got 'pi'"),
            (lambda: FreeEvolve(None), "duration must be a real number, got None"),
            (lambda: FreeEvolve(1e-3, 10.0), "dd_pulses must be an int in 0..10000, got 10.0"),
            (lambda: FreeEvolve(1e-3, True), "dd_pulses must be an int in 0..10000, got True"),
            (lambda: FreeEvolve(1e-3, 2**70), "dd_pulses must be an int in 0..10000"),
            (lambda: FreeEvolve(1e-3, -2), "dd_pulses must be an int in 0..10000, got -2"),
            # these three raised a bare AttributeError or TypeError
            (lambda: PulseProgram(3, [], name=5), "name must be a str, got 5"),
            (lambda: PulseProgram(3, None), "instructions must be a sequence, got None"),
            (lambda: PulseProgram(3, [], relabel=5), "relabel must be a sequence, got 5")):
        with pytest.raises(ProgramError, match=re.escape(message)):
            build()


def test_programs_are_immutable():
    prog = PulseProgram(2, [Rotate(0, np.pi)], relabel=[1, 0])
    assert prog.instructions == (Rotate(0, np.pi),) and prog.relabel == (1, 0)
    for target, name in ((prog, "n_qubits"), (prog, "instructions"),
                         (prog.instructions[0], "qubit")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, 5)
    # a changed program is a new one, checked as any other
    assert dataclasses.replace(prog, instructions=[*prog.instructions, Measure()]).to_text() \
        == "# pulse program: unnamed\n# qubits: 2\nR 0 3.141592653589793 0.0\nMEAS\nRELABEL 1 0\n"
    with pytest.raises(ProgramError, match="qubit 2 outside register of 2"):
        dataclasses.replace(prog, instructions=[Rotate(2, np.pi)])


def test_duration_counts_only_free_evolution():
    prog = PulseProgram(
        n_qubits=2,
        instructions=[Rotate(0, np.pi, 0.0), FreeEvolve(2e-3), FreeEvolve(0.5e-3)],
    )
    assert prog.duration == pytest.approx(2.5e-3)


def test_register_above_the_engine_cap_is_rejected_at_its_line():
    assert parse_program(f"# qubits: {MAX_QUBITS}\nR 0 pi 0\n").n_qubits == MAX_QUBITS
    assert parse_program(f"R {MAX_QUBITS - 1} pi 0\n").n_qubits == MAX_QUBITS
    with pytest.raises(ProgramError, match=f"line 2: register of {MAX_QUBITS + 1} qubits"):
        parse_program(f"# pulse program\n# qubits: {MAX_QUBITS + 1}\nR 0 pi 0\n")
    # an undeclared register widened past the cap fails at the widening line
    with pytest.raises(ProgramError, match=f"line 3: qubit {MAX_QUBITS} needs a register"):
        parse_program(f"R 0 pi 0\nEV 1e-3\nXFER {MAX_QUBITS} pi\n")
    relabel = " ".join(str(q) for q in range(MAX_QUBITS + 1))
    with pytest.raises(ProgramError, match=f"line 2: RELABEL of {MAX_QUBITS + 1} qubits"):
        parse_program(f"R 0 pi 0\nRELABEL {relabel}\n")


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
    # an undeclared register widened past the RELABEL by a later instruction
    with pytest.raises(ProgramError, match="line 1: RELABEL 1 0 is not a permutation of 0..3"):
        parse_program("RELABEL 1 0\nR 3 pi 0\n")
    prog = parse_program("# qubits: 4\nR 1 pi 0\nRELABEL 3 2 1 0\n")
    assert prog.n_qubits == 4 and prog.relabel == (3, 2, 1, 0)


# The program entry property: instruction sequences from the grammar's tokens and hostile
# ones (nan, inf, 1e308, -0, bools, floats as counts, huge ints, qubits past the register,
# MEAS mid-program), built in code or parsed from text, either fail with a ProgramError or
# give a program that round-trips through its text and runs. Half the sequences draw only
# grammar tokens, so that both outcomes are common.
HUGE = 2**70
_gaps = np.subtract.outer(np.arange(MAX_QUBITS), np.arange(MAX_QUBITS))
PROPERTY_J = np.where(_gaps == 0, 0.0, 229.3 / np.maximum(_gaps**2, 1))
# operand kind: hostile tokens, as Python values and as text
HOSTILE_CODE = {
    "register": [0, MAX_QUBITS + 1, True, 3.0, HUGE],
    "qubit": [5, -1, True, 1.0, HUGE],
    "number": [1e308, -1e308, -1e-3, float("nan"), float("inf"), -float("inf"), True, HUGE,
               "1"],
    "count": [3, -2, 10.0, True, HUGE, 10_010],
    "scheme": ["xy8"],
    "relabel": [(0, 0, 1), (True, False), (1.0, 0.0)],
}
HOSTILE_TEXT = {
    "register": ["0", "11", "3.0", str(HUGE), "\uff13"],
    "qubit": ["5", "-1", "True", "1.0", str(HUGE), "\uff10"],
    "number": ["1e308", "-1e308", "-pi", "nan", "inf", "True", str(HUGE), "\uff11e-3"],
    "suffix": [" dd=3", " dd=10.0", " dd=True", f" dd={HUGE}", " dd=-2", " dd=20,xy8"],
    "relabel": ["0 0 1", "3 2 1 0 5", "True False"],
}


@st.composite
def sequences(draw, hostile_tokens, grammar_tokens, write):
    """One instruction sequence in the register of its drawn size: grammar tokens only in
    a clean sequence (then MEAS only last), else with hostile tokens mixed in."""
    n = draw(st.integers(1, 4))
    hostile = draw(st.booleans())
    grammar = grammar_tokens(n)

    def token(kind):
        return draw(st.sampled_from(grammar[kind] + (hostile_tokens[kind] if hostile else [])))
    kinds = ["R", "PH", "EV", "XFER", "ECHO"] + ["MEAS"] * hostile
    steps = [write(draw(st.sampled_from(kinds)), token, draw)
             for _ in range(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        steps.append(write("MEAS", token, draw))
    return token("register"), steps, token("relabel")


def write_code(kind, token, draw):
    """(instruction class, its arguments), built only in the test, where an error may raise."""
    cls = {"R": Rotate, "PH": PhaseShift, "EV": FreeEvolve, "XFER": TransferBasis,
           "ECHO": Echo, "MEAS": Measure}[kind]
    args = {"R": lambda: (token("qubit"), token("number"), token("number")),
            "EV": lambda: (token("number"), token("count"), token("scheme")),
            "XFER": lambda: (draw(st.sampled_from(["all", token("qubit")])),
                             draw(st.sampled_from(BASES))),
            "MEAS": lambda: ()}.get(kind, lambda: (token("qubit"), token("number")))()
    return cls, args


def write_text(kind, token, draw):
    operands = {"R": lambda: f" {token('qubit')} {token('number')} {token('number')}",
                "EV": lambda: f" {token('number')}{token('suffix')}",
                "XFER": lambda: f" {token('qubit')} {draw(st.sampled_from(BASES))}",
                "MEAS": lambda: ""}.get(kind, lambda: f" {token('qubit')} {token('number')}")
    return kind + operands()


code_sequences = sequences(HOSTILE_CODE, lambda n: {
    "register": [n], "qubit": [*range(n)],
    "number": [0.0, -0.0, 0.5, np.pi, 1e-3, 2e-4, np.float64(0.25), 3],
    "count": [0, 2, 10, 20], "scheme": ["cpmg", "kdd"],
    "relabel": [None, tuple(range(n)), tuple(reversed(range(n)))]}, write_code)


@st.composite
def text_sequences(draw):
    """A program's text: an optional register line, its instruction lines, an optional RELABEL."""
    register, lines, relabel = draw(sequences(HOSTILE_TEXT, lambda n: {
        "register": [str(n), ""], "qubit": [*map(str, range(n))],
        "number": ["0", "-0", "0.5pi", "pi", "1e-3", "2e-4"],
        "suffix": ["", " dd=0", " dd=2", " dd=20,kdd"],
        "relabel": ["", " ".join(map(str, range(n))), " ".join(map(str, reversed(range(n))))]},
        write_text))
    lines = ([f"# qubits: {register}"] if register else []) + lines
    return "\n".join(lines + ([f"RELABEL {relabel}"] if relabel else [])) + "\n"


def check_built_program(prog):
    """A built program reads back from its text and runs to a finite state, unless a window
    overflows, which names its duration, or it transfers between sigma- and sigma+."""
    again = parse_program(prog.to_text())
    assert again.n_qubits == prog.n_qubits and again.relabel == prog.relabel
    assert again.instructions == prog.instructions
    n = prog.n_qubits
    try:
        state = run_program(prog, PROPERTY_J[:n, :n], noise=NoiseModel()).state
    except EngineError as exc:
        # or the one rule a run keeps, as it depends on the encodings in force
        assert "duration" in str(exc) or "route it through pi" in str(exc), exc
    else:
        assert np.isfinite(state.rho).all() and np.isfinite(state.time)


@settings(max_examples=150, deadline=None)
@given(code_sequences)
@example((3, [(Measure, ()), (Rotate, (0, 1.0))], None))
@example((3, [(FreeEvolve, (1e308, 20, "kdd"))], None))
def test_a_program_built_in_code_is_rejected_or_runs(sequence):
    n, steps, relabel = sequence
    try:
        prog = PulseProgram(n, [cls(*args) for cls, args in steps], relabel=relabel)
    except ProgramError:
        return
    check_built_program(prog)


@settings(max_examples=150, deadline=None)
@given(text_sequences())
@example("# qubits: 3\nMEAS\nR 0 pi 0\n")
@example("R 5 pi 0\nEV 1e308 dd=20,kdd\n")
def test_a_program_parsed_from_text_is_rejected_at_its_line_or_runs(text):
    try:
        prog = parse_program(text)
    except ProgramError as exc:
        assert re.match(r"line \d+: ", str(exc)), exc
        return
    check_built_program(prog)
