"""Pulse-program data model and its plain-text serialization.

A program is an ordered tuple of instructions on an n-qubit register plus an
optional classical relabeling applied at the end (a permutation of qubit
labels; it never touches the physical state, only how outcomes are indexed).
Programs and instructions are frozen and checked once, when built: an
instruction its operands, `PulseProgram` the register, each instruction's place
in it (`_check_instruction`, which the parser calls per line) and the relabeling.

In text, each line holds one instruction and `#` starts a comment. The
grammar lives in `_SYNTAX`: each opcode (R, PH, EV, XFER, ECHO, MEAS) names
its instruction class and the fields it takes as operands, in order, and
`parse_program` reads by that table as `PulseProgram.to_text` writes by it.
Only three forms are special: EV's optional `dd=<n>,<scheme>` decoupling
suffix, the `# qubits: <n>` register declaration, and the directive
`RELABEL <q0> <q1> ...`.

Instruction text is ASCII: a fullwidth numeral is an error. Qubit indices are
0-based; XFER also takes `all` and a basis (sigma-, sigma+, pi). Durations are
seconds. Angles are radians, and a trailing ``pi`` multiplies by pi (``0.5pi``,
``-pi``). Floats are written as their shortest exact repr, so parsing a
program's text gives back its register, instructions and relabeling exactly.
"""

from dataclasses import dataclass

import numpy as np

from .constants import MAX_DD_PULSES, MAX_QUBITS
from .gates import check_int, check_real

BASIS_SIGMA_MINUS = "sigma-"
BASIS_SIGMA_PLUS = "sigma+"
BASIS_PI = "pi"
BASES = (BASIS_SIGMA_MINUS, BASIS_SIGMA_PLUS, BASIS_PI)
MF = {BASIS_SIGMA_MINUS: -1, BASIS_SIGMA_PLUS: +1, BASIS_PI: 0}

DD_SCHEMES = ("cpmg", "kdd")


class ProgramError(ValueError):
    """Raised for malformed programs or text that does not parse."""


def check_decoupling(n_pulses, scheme):
    """Reject a pulse count the decoupling scheme cannot use.

    The count is an int in 0..MAX_DD_PULSES; cpmg needs an even count, kdd a multiple of ten.
    """
    check_int(n_pulses, "dd_pulses", ProgramError, 0, MAX_DD_PULSES)
    if scheme not in DD_SCHEMES:
        raise ProgramError(f"unknown decoupling scheme {scheme!r}")
    if scheme == "cpmg" and n_pulses % 2:
        raise ProgramError(f"cpmg pulse count must be even, got {n_pulses}")
    if scheme == "kdd" and n_pulses % 10:
        raise ProgramError(f"kdd pulse count must be a multiple of 10, got {n_pulses}")


def _check_qubit(ins):
    """Reject a qubit that is not an int in 0..2^64-1; only a transfer also takes "all"."""
    q = ins.qubit
    if not (isinstance(ins, TransferBasis) and q == "all"):
        check_int(q, "qubit", ProgramError, 0,
                  message=f"{type(ins).__name__} qubit must be a non-negative int, got {q!r}")
        check_int(q, "qubit", ProgramError, high=2**64 - 1,
                  message=f"{type(ins).__name__} qubit {q} is not below 2^64")


def check_name(name, error):
    """Raise an `error` (the caller's class) unless `name` is a str `to_text` keeps on one line."""
    if not isinstance(name, str):
        raise error(f"name must be a str, got {name!r}")
    if "".join(name.splitlines()) != name:
        raise error(f"name must not contain a line break, got {name!r}")


def _as_tuple(value, field):
    """`value`, any iterable, as a tuple; else a ProgramError naming `field`."""
    try:
        return tuple(value)
    except TypeError:
        raise ProgramError(f"{field} must be a sequence, got {value!r}") from None


@dataclass(frozen=True)
class Rotate:
    qubit: int
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        _check_qubit(self)
        check_real(self.theta, "theta", ProgramError)
        check_real(self.phi, "phi", ProgramError)


@dataclass(frozen=True)
class PhaseShift:
    qubit: int
    phi: float

    def __post_init__(self):
        _check_qubit(self)
        check_real(self.phi, "phi", ProgramError)


@dataclass(frozen=True)
class FreeEvolve:
    duration: float
    dd_pulses: int = 0
    dd_scheme: str = "cpmg"

    def __post_init__(self):
        check_real(self.duration, "duration", ProgramError)
        check_real(self.duration, "duration", ProgramError, 0,
                   message=f"free evolution duration must be >= 0, got {self.duration}")
        check_decoupling(self.dd_pulses, self.dd_scheme)


@dataclass(frozen=True)
class TransferBasis:
    qubit: object  # int or "all"
    target: str

    def __post_init__(self):
        _check_qubit(self)
        if self.target not in BASES:
            raise ProgramError(f"unknown encoding basis {self.target!r}")


@dataclass(frozen=True)
class Echo:
    qubit: int
    phi: float = np.pi / 2

    def __post_init__(self):
        _check_qubit(self)
        check_real(self.phi, "phi", ProgramError)


@dataclass(frozen=True)
class Measure:
    pass


@dataclass(frozen=True)
class PulseProgram:
    n_qubits: int
    instructions: tuple = ()
    relabel: tuple = None
    name: str = ""

    def __post_init__(self):
        n = check_int(self.n_qubits, "n_qubits", ProgramError, 1, MAX_QUBITS,
                      f"register of {self.n_qubits!r} qubits is not an int in 1..{MAX_QUBITS}")
        check_name(self.name, ProgramError)
        object.__setattr__(self, "instructions", _as_tuple(self.instructions, "instructions"))
        for previous, ins in zip((None, *self.instructions), self.instructions):
            _check_instruction(ins, n, previous)
        if self.relabel is not None:
            perm = _as_tuple(self.relabel, "relabel")
            message = f"RELABEL {' '.join(map(str, perm))} is not a permutation of 0..{n - 1}"
            if sorted(check_int(q, "relabel", ProgramError, 0, n - 1, message)
                      for q in perm) != list(range(n)):
                raise ProgramError(message)
            object.__setattr__(self, "relabel", perm)

    @property
    def duration(self):
        """Total free-evolution time in seconds (pulses are instantaneous by default)."""
        return sum(ins.duration for ins in self.instructions if isinstance(ins, FreeEvolve))

    def to_text(self):
        lines = [f"# pulse program: {self.name or 'unnamed'}", f"# qubits: {self.n_qubits}"]
        for ins in self.instructions:
            lines.append(_format_instruction(ins))
        if self.relabel is not None:
            lines.append("RELABEL " + " ".join(str(q) for q in self.relabel))
        return "\n".join(lines) + "\n"


# The instruction grammar: opcode -> (instruction class, the fields it takes
# as operands, in text order).
_SYNTAX = {
    "R": (Rotate, ("qubit", "theta", "phi")),
    "PH": (PhaseShift, ("qubit", "phi")),
    "EV": (FreeEvolve, ("duration",)),
    "XFER": (TransferBasis, ("qubit", "target")),
    "ECHO": (Echo, ("qubit", "phi")),
    "MEAS": (Measure, ()),
}
_OPCODES = {cls: op for op, (cls, _) in _SYNTAX.items()}


def _check_instruction(ins, n_qubits, previous=None):
    """Raise a ProgramError unless `ins`, of a grammar class, may follow `previous` (not MEAS)
    with its qubits inside a register of `n_qubits` (None: undeclared, up to MAX_QUBITS)."""
    if type(ins) not in _OPCODES:
        raise ProgramError(f"unknown instruction {ins!r}")
    if isinstance(previous, Measure):
        raise ProgramError("MEAS must be the last instruction")
    q = getattr(ins, "qubit", "all")  # windows and MEAS name no qubit
    if q != "all" and q >= (n_qubits or MAX_QUBITS):
        raise ProgramError(f"qubit {q} outside register of {n_qubits}" if n_qubits else
                           f"qubit {q} needs a register above the {MAX_QUBITS}-qubit cap")


def _write_operand(name, value):
    # repr is the shortest text that reads back to the same float
    return str(value) if name in ("qubit", "target") else repr(float(value))


def _format_instruction(ins):
    op = _OPCODES[type(ins)]
    words = [op] + [_write_operand(name, getattr(ins, name)) for name in _SYNTAX[op][1]]
    if isinstance(ins, FreeEvolve) and (ins.dd_pulses or ins.dd_scheme != "cpmg"):
        words.append(f"dd={ins.dd_pulses},{ins.dd_scheme}")
    return " ".join(words)


def parse_angle(token):
    """Parse '0.75', '0.5pi', 'pi', '-pi' into radians."""
    t = token.strip().lower()
    factor = 1.0
    if t.endswith("pi"):
        factor = np.pi
        t = t[:-2]
        if t in ("", "+"):
            t = "1"
        elif t == "-":
            t = "-1"
    try:
        return float(t) * factor
    except ValueError as exc:
        raise ProgramError(f"bad angle token {token!r}") from exc


def _parse_qubit(token):
    if token == "all":
        return "all"
    try:
        return int(token)
    except ValueError as exc:
        raise ProgramError(f"bad qubit index {token!r}") from exc


def _read_operand(name, token):
    if name == "qubit":
        return _parse_qubit(token)
    if name == "target":
        return token
    return float(token) if name == "duration" else parse_angle(token)


def parse_program(text):
    """Parse the text grammar; raises ProgramError with the offending line number.

    The register is the `# qubits: N` declared once before the first
    instruction, else the smallest that holds every index and the one RELABEL
    permutation; a declared register bounds every qubit index and the RELABEL.
    Either way the register may not exceed MAX_QUBITS. Each instruction is checked
    at its line, the RELABEL against the final register, which a later one may widen.
    """
    instructions = []
    relabel = None
    limit = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("# qubits:"):
            value = stripped.split(":", 1)[1].strip()
            if not (value.isascii() and value.isdigit()) or int(value) < 1:
                raise ProgramError(f"line {line_no}: bad register size {value!r}")
            if int(value) > MAX_QUBITS:
                raise ProgramError(f"line {line_no}: register of {value} qubits is above "
                                   f"the {MAX_QUBITS}-qubit cap")
            if instructions or relabel is not None:
                raise ProgramError(f"line {line_no}: register declared after the first "
                                   "instruction")
            if limit is not None:
                raise ProgramError(f"line {line_no}: register declared twice")
            limit = int(value)
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, *operands = line.split()
        op = word.upper()
        try:
            if not line.isascii():
                raise ProgramError(f"{line!r} is not ASCII text")
            if op == "RELABEL":
                if relabel is not None:
                    raise ProgramError("RELABEL given twice")
                relabel = tuple(int(t) for t in operands)
                if len(relabel) > MAX_QUBITS:
                    raise ProgramError(f"RELABEL of {len(relabel)} qubits is above the "
                                       f"{MAX_QUBITS}-qubit cap")
                relabel_line = line_no
                continue
            if op not in _SYNTAX:
                raise ProgramError(f"unknown instruction {word!r}")
            cls, names = _SYNTAX[op]
            options = {}
            if cls is FreeEvolve and operands and operands[-1].startswith("dd="):
                n_str, _, scheme = operands.pop()[3:].partition(",")
                options = {"dd_pulses": int(n_str), "dd_scheme": scheme or "cpmg"}
            if len(operands) != len(names):
                usage = " ".join(f"<{name}>" for name in names) or "no operands"
                if cls is FreeEvolve:
                    usage += " [dd=<n>,<scheme>]"
                raise ProgramError(f"{op} takes {usage}, got {len(operands)} operand(s)")
            ins = cls(*[_read_operand(name, token) for name, token in zip(names, operands)],
                      **options)
            _check_instruction(ins, limit, instructions[-1] if instructions else None)
            instructions.append(ins)
        except ValueError as exc:  # ProgramError included
            raise ProgramError(f"line {line_no}: {exc}") from None
    if limit is None:
        limit = len(relabel or ()) or 1
        for ins in instructions:
            q = getattr(ins, "qubit", "all")  # windows and MEAS name no qubit
            if q != "all":
                limit = max(limit, q + 1)
    try:
        return PulseProgram(n_qubits=limit, instructions=instructions, relabel=relabel)
    except ProgramError as exc:  # only the RELABEL is left to fail
        raise ProgramError(f"line {relabel_line}: {exc}") from None


def load_program(path):
    """Read and parse a program file; a text or grammar error names the file."""
    with open(path) as fh:
        try:
            return parse_program(fh.read())
        except ValueError as exc:  # a ProgramError, or text that is not UTF-8
            raise ProgramError(f"{path}: {exc}") from exc
