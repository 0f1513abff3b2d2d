"""Pulse-program data model and its plain-text serialization.

A program is an ordered list of instructions on an n-qubit register plus an
optional classical relabeling applied at the end (a permutation of qubit
labels; it never touches the physical state, only how outcomes are indexed).

Text grammar, one instruction per line, `#` starts a comment:

    R <qubit> <theta> <phi>        equatorial rotation
    PH <qubit> <phi>               z phase gate
    EV <seconds> [dd=<n>,<scheme>] free evolution window, optional decoupling
    XFER <qubit|all> <basis>       re-house qubit(s) in sigma-/sigma+/pi
    ECHO <qubit> <phi>             spin-echo pi pulse (logged as an echo)
    MEAS                           record the outcome distribution
    RELABEL <q0> <q1> ...          classical label permutation (directive)

Angles are radians; a trailing ``pi`` multiplies by pi (``0.5pi``, ``-pi``).
Qubit indices are 0-based.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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

    cpmg needs an even count, kdd a multiple of ten.
    """
    if scheme not in DD_SCHEMES:
        raise ProgramError(f"unknown decoupling scheme {scheme!r}")
    if scheme == "cpmg" and n_pulses % 2:
        raise ProgramError(f"cpmg pulse count must be even, got {n_pulses}")
    if scheme == "kdd" and n_pulses % 10:
        raise ProgramError(f"kdd pulse count must be a multiple of 10, got {n_pulses}")


def _check_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ProgramError(f"{name} must be finite, got {value}")


@dataclass
class Rotate:
    qubit: int
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        _check_finite(theta=self.theta, phi=self.phi)


@dataclass
class PhaseShift:
    qubit: int
    phi: float

    def __post_init__(self):
        _check_finite(phi=self.phi)


@dataclass
class FreeEvolve:
    duration: float
    dd_pulses: int = 0
    dd_scheme: str = "cpmg"

    def __post_init__(self):
        _check_finite(duration=self.duration)
        if self.duration < 0:
            raise ProgramError(f"free evolution duration must be >= 0, got {self.duration}")
        if self.dd_pulses < 0:
            raise ProgramError("dd_pulses must be >= 0")
        if self.dd_pulses:
            check_decoupling(self.dd_pulses, self.dd_scheme)


@dataclass
class TransferBasis:
    qubit: object  # int or "all"
    target: str

    def __post_init__(self):
        if self.target not in BASES:
            raise ProgramError(f"unknown encoding basis {self.target!r}")


@dataclass
class Echo:
    qubit: int
    phi: float = np.pi / 2

    def __post_init__(self):
        _check_finite(phi=self.phi)


@dataclass
class Measure:
    pass


@dataclass
class PulseProgram:
    n_qubits: int
    instructions: list = field(default_factory=list)
    relabel: tuple = None
    name: str = ""

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ProgramError("n_qubits must be at least 1")
        if self.relabel is not None:
            perm = tuple(self.relabel)
            if sorted(perm) != list(range(self.n_qubits)):
                raise ProgramError(f"relabel {perm} is not a permutation of 0..{self.n_qubits - 1}")
            self.relabel = perm

    @property
    def duration(self):
        """Total free-evolution time in seconds (pulses are instantaneous by default)."""
        return sum(ins.duration for ins in self.instructions if isinstance(ins, FreeEvolve))

    def extend(self, fragment):
        """Append another program's instructions in place; registers must match."""
        if fragment.n_qubits != self.n_qubits:
            raise ProgramError("cannot extend: register sizes differ")
        self.instructions.extend(fragment.instructions)
        if fragment.relabel is not None:
            self.relabel = fragment.relabel
        return self

    def to_text(self):
        lines = [f"# pulse program: {self.name or 'unnamed'}", f"# qubits: {self.n_qubits}"]
        for ins in self.instructions:
            lines.append(_format_instruction(ins))
        if self.relabel is not None:
            lines.append("RELABEL " + " ".join(str(q) for q in self.relabel))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, n_qubits=None):
        return parse_program(text, n_qubits=n_qubits)


def _fmt(x):
    return f"{x:.12g}"


def _format_instruction(ins):
    if isinstance(ins, Rotate):
        return f"R {ins.qubit} {_fmt(ins.theta)} {_fmt(ins.phi)}"
    if isinstance(ins, PhaseShift):
        return f"PH {ins.qubit} {_fmt(ins.phi)}"
    if isinstance(ins, FreeEvolve):
        base = f"EV {_fmt(ins.duration)}"
        if ins.dd_pulses:
            base += f" dd={ins.dd_pulses},{ins.dd_scheme}"
        return base
    if isinstance(ins, TransferBasis):
        return f"XFER {ins.qubit} {ins.target}"
    if isinstance(ins, Echo):
        return f"ECHO {ins.qubit} {_fmt(ins.phi)}"
    if isinstance(ins, Measure):
        return "MEAS"
    raise ProgramError(f"cannot serialize instruction {ins!r}")


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


def _parse_qubit(token, n_qubits):
    if token == "all":
        return "all"
    try:
        q = int(token)
    except ValueError as exc:
        raise ProgramError(f"bad qubit index {token!r}") from exc
    if q < 0:
        raise ProgramError(f"negative qubit index {q}")
    if n_qubits is not None and not 0 <= q < n_qubits:
        raise ProgramError(f"qubit {q} outside register of {n_qubits}")
    return q


def parse_program(text, n_qubits=None):
    """Parse the text grammar; raises ProgramError with the offending line number.

    The register is `n_qubits`, else the `# qubits: N` declared before the first
    instruction, else the smallest that holds every index; a given or declared
    register bounds every qubit index and the RELABEL permutation.
    """
    instructions = []
    relabel = None
    limit = n_qubits
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("# qubits:"):
            value = stripped.split(":", 1)[1].strip()
            if not value.isdigit() or int(value) < 1:
                raise ProgramError(f"line {line_no}: bad register size {value!r}")
            if instructions or relabel is not None:
                raise ProgramError(f"line {line_no}: register declared after the first "
                                   "instruction")
            if n_qubits is None:
                limit = int(value)
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0].upper()
        try:
            if op == "R":
                if len(parts) != 4:
                    raise ProgramError("R needs <qubit> <theta> <phi>")
                q = _parse_qubit(parts[1], limit)
                instructions.append(Rotate(q, parse_angle(parts[2]), parse_angle(parts[3])))
            elif op == "PH":
                if len(parts) != 3:
                    raise ProgramError("PH needs <qubit> <phi>")
                q = _parse_qubit(parts[1], limit)
                instructions.append(PhaseShift(q, parse_angle(parts[2])))
            elif op == "EV":
                if len(parts) not in (2, 3):
                    raise ProgramError("EV needs <seconds> [dd=<n>,<scheme>]")
                duration = float(parts[1])
                dd_pulses, dd_scheme = 0, "cpmg"
                if len(parts) == 3:
                    if not parts[2].startswith("dd="):
                        raise ProgramError(f"bad EV option {parts[2]!r}")
                    spec_str = parts[2][3:]
                    n_str, _, scheme = spec_str.partition(",")
                    dd_pulses = int(n_str)
                    dd_scheme = scheme or "cpmg"
                instructions.append(FreeEvolve(duration, dd_pulses, dd_scheme))
            elif op == "XFER":
                if len(parts) != 3:
                    raise ProgramError("XFER needs <qubit|all> <basis>")
                q = _parse_qubit(parts[1], limit)
                instructions.append(TransferBasis(q, parts[2]))
            elif op == "ECHO":
                if len(parts) != 3:
                    raise ProgramError("ECHO needs <qubit> <phi>")
                q = _parse_qubit(parts[1], limit)
                instructions.append(Echo(q, parse_angle(parts[2])))
            elif op == "MEAS":
                instructions.append(Measure())
            elif op == "RELABEL":
                relabel = tuple(int(t) for t in parts[1:])
                if limit is not None and sorted(relabel) != list(range(limit)):
                    raise ProgramError(f"RELABEL {' '.join(parts[1:])} is not a permutation "
                                       f"of 0..{limit - 1}")
            else:
                raise ProgramError(f"unknown instruction {parts[0]!r}")
        except ValueError as exc:  # ProgramError included
            raise ProgramError(f"line {line_no}: {exc}") from None
    if limit is None:
        limit = len(relabel or ()) or 1
        for ins in instructions:
            q = getattr(ins, "qubit", None)
            if isinstance(q, int):
                limit = max(limit, q + 1)
    return PulseProgram(n_qubits=limit, instructions=instructions, relabel=relabel)
