"""Exact density-matrix execution of pulse programs with a dephasing noise model.

The register state is an explicit 2^n x 2^n density matrix. Pulses are
instantaneous by default; free-evolution windows apply the diagonal Ising
propagator exp(+i T/2 sum J_ij sz_i sz_j) together with single-qubit phase
damping at a per-encoding rate (magnetic sigma levels dephase fast, the
field-insensitive pi level slowly). Per-qubit dephasing over a window of
length T multiplies coherence element (a, b) by exp(-gamma_k T) for every
qubit k whose bit differs between a and b; that is exactly a phase-flip
channel per qubit and window, so windows compose correctly.

Basis transfers are identities on the logical state but change which
couplings and which dephasing rate a qubit sees from then on: the coupling
window scales by s_i s_j where s_k is the qubit's magnetic moment relative to
the encoding it held when the supplied coupling matrix was calibrated (a
qubit parked in pi has s = 0 and is fully decoupled; a round trip restores
the original signs). A sigma- <-> sigma+ transfer is not a native block and
must pass through pi.

One walk over a program (`_walk`) resolves every instruction into a pulse
(qubit and 2x2 operator) or a window (duration and Ising phases under the
encodings in force), tracking transfers and bounding qubit indices on the way.
`run_program` applies the steps to the density matrix; `program_unitary`
multiplies them into the ideal unitary. A pulse is never lifted to a
2^n x 2^n matrix: `_apply_local` applies its 2x2 operator on the qubit's axis.
Registers are capped at MAX_QUBITS; entering density matrices are checked.

`fringe_scan` reads a Ramsey fringe in closed form off the probe's reduced
state, so a scan over analysis phases runs its program once, not per phase.

A depolarizing fraction zeta is folded in once at the end of a run,
rho -> zeta I/2^n + (1 - zeta) rho, modelling accumulated pulse error over a
whole sequence rather than per-gate noise. Readout error is classical and is
applied to outcome distributions only, never to the state.
"""

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .gates import (
    bit_table,
    check_finite_couplings,
    free_phases,
    ket,
    permutation_matrix,
    phase_2x2,
    product_ket,
    rotation_2x2,
)
from .program import (
    BASIS_PI,
    BASIS_SIGMA_MINUS,
    BASIS_SIGMA_PLUS,
    BASES,
    MF,
    Echo,
    FreeEvolve,
    Measure,
    PhaseShift,
    ProgramError,
    PulseProgram,
    Rotate,
    TransferBasis,
    check_decoupling,
)


class EngineError(RuntimeError):
    pass


# Largest register the dense engine builds: a 2^n x 2^n density matrix of
# complex doubles is 16 MB at 10 qubits and grows fourfold per qubit.
MAX_QUBITS = 10
# How far a density matrix entering the engine may be from trace 1 and from
# Hermitian (largest elementwise deviation).
STATE_TOLERANCE = 1e-9


def _register_dim(n_qubits):
    """Dimension 2^n of a register, checked against MAX_QUBITS before anything is allocated."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise EngineError(f"register of {n_qubits} qubits outside 1..{MAX_QUBITS} "
                          "(the dense engine holds 4^n amplitudes)")
    return 2**n_qubits


def _check_qubit(qubit, n_qubits):
    if not (isinstance(qubit, (int, np.integer)) and 0 <= qubit < n_qubits):
        raise EngineError(f"qubit {qubit} outside register of {n_qubits}")


@dataclass
class NoiseModel:
    """Window dephasing rates (1/s), end-of-run depolarization and readout error."""

    sigma_dephasing_rate: float = 62.5
    pi_dephasing_rate: float = 20.0
    white_noise_fraction: float = 0.25
    readout_fidelity: float = 0.96
    dephasing: bool = True
    white_noise: bool = True
    readout: bool = True

    def __post_init__(self):
        for name in ("sigma_dephasing_rate", "pi_dephasing_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {rate}")
        if not 0.0 <= self.white_noise_fraction <= 1.0:
            raise ValueError("white_noise_fraction must lie in [0, 1]")
        if not 0.5 <= self.readout_fidelity <= 1.0:
            raise ValueError("readout_fidelity must lie in [0.5, 1]")

    @classmethod
    def off(cls):
        return cls(dephasing=False, white_noise=False, readout=False)

    def rate_for(self, basis):
        return self.pi_dephasing_rate if basis == BASIS_PI else self.sigma_dephasing_rate


@dataclass
class QuantumState:
    n_qubits: int
    rho: np.ndarray
    bases: tuple
    reference_mf: tuple
    time: float = 0.0

    def __post_init__(self):
        dim = 2**self.n_qubits
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (dim, dim):
            raise EngineError(f"density matrix shape {self.rho.shape} != {(dim, dim)}")
        trace = np.trace(self.rho)
        if not abs(trace - 1.0) <= STATE_TOLERANCE:
            raise EngineError(f"rho: trace {trace:.6g} is not 1 (tolerance {STATE_TOLERANCE:g})")
        if not np.abs(self.rho - self.rho.conj().T).max() <= STATE_TOLERANCE:
            raise EngineError(f"rho: not Hermitian (tolerance {STATE_TOLERANCE:g})")
        if len(self.bases) != self.n_qubits:
            raise EngineError("one encoding basis per qubit required")
        for b in self.bases:
            if b not in BASES:
                raise EngineError(f"unknown encoding basis {b!r}")
        self.bases = tuple(self.bases)
        self.reference_mf = tuple(self.reference_mf)

    def copy(self):
        return QuantumState(self.n_qubits, self.rho.copy(), self.bases,
                            self.reference_mf, self.time)

    def populations(self):
        return np.clip(np.diag(self.rho).real, 0.0, None)

    def purity(self):
        return float(np.real(np.trace(self.rho @ self.rho)))

    def reduced_density(self, keep):
        """Partial trace keeping the listed qubits, in the order given."""
        keep = list(keep)
        n = self.n_qubits
        t = self.rho.reshape([2] * (2 * n))
        drop = [q for q in range(n) if q not in keep]
        for count, q in enumerate(sorted(drop)):
            axis = q - count  # earlier traces shrink the index space
            t = np.trace(t, axis1=axis, axis2=axis + (n - count))
        remaining = [q for q in range(n) if q not in drop]
        m = len(keep)
        order = [remaining.index(q) for q in keep]
        t = t.reshape([2] * (2 * m)).transpose(order + [o + m for o in order])
        return t.reshape(2**m, 2**m)


# Each token of a product input: its single-qubit ket, and the (theta, phi)
# of the pulse that prepares it from |0>.
_INPUT_TOKENS = {
    "0": (np.array([1.0, 0.0], dtype=complex), None),
    "1": (np.array([0.0, 1.0], dtype=complex), (np.pi, 0.0)),
    "+": (np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0), (np.pi / 2, np.pi / 2)),
}
# The 15 three-qubit inputs the transform is checked on: every basis state,
# then each nonempty set of qubits in |+> with the rest in |0>.
PRODUCT_INPUTS = tuple(format(k, "03b") for k in range(8)) + tuple(
    format(k, "03b").replace("1", "+") for k in range(1, 8))


def _input_tokens(label):
    if set(label) - set(_INPUT_TOKENS):
        raise ProgramError(f"bad preparation label {label!r}; use 0, 1 and +")
    return [_INPUT_TOKENS[ch] for ch in label]


def product_input_ket(label):
    """Ket of the product state `label` over {0, 1, +}, qubit 0 first."""
    return product_ket([k for k, _ in _input_tokens(label)])


def product_input_pulses(label):
    """Pulses preparing the product state `label` over {0, 1, +} from |0...0>."""
    return [Rotate(q, *pulse) for q, (_, pulse) in enumerate(_input_tokens(label)) if pulse]


def _start_encodings(n_qubits, assignment):
    """Starting bases (sigma- unless `assignment` gives them) and reference moments.

    A qubit's reference moment is the m_F of the encoding it held when the
    coupling matrix was calibrated; a qubit calibrated while parked in pi
    counts as sigma-, so re-housing it in sigma- restores the calibrated signs.
    """
    bases = getattr(assignment, "bases", assignment)
    if bases is None:
        bases = (BASIS_SIGMA_MINUS,) * n_qubits
    if len(bases) != n_qubits:
        raise EngineError(f"{len(bases)} encoding bases for {n_qubits} qubits")
    return tuple(bases), tuple(MF[b] or -1 for b in bases)


def prepare_state(n_qubits, spec=None, assignment=None):
    """Fresh register state: |0...0>, a bitstring, a ket vector, or a density matrix."""
    dim = _register_dim(n_qubits)
    if spec is None:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
    elif isinstance(spec, str):
        v = ket(spec)
        if v.size != dim:
            raise EngineError(f"bitstring {spec!r} does not match {n_qubits} qubits")
        rho = np.outer(v, v.conj())
    else:
        arr = np.asarray(spec, dtype=complex)
        if arr.ndim == 1:
            if arr.size != dim:
                raise EngineError("state vector has wrong dimension")
            arr = arr / np.linalg.norm(arr)
            rho = np.outer(arr, arr.conj())
        else:
            rho = arr
    return QuantumState(n_qubits, rho, *_start_encodings(n_qubits, assignment))


def _check_couplings(j, n_qubits):
    j = np.asarray(j, dtype=float)
    if j.shape != (n_qubits, n_qubits):
        raise EngineError(f"coupling matrix shape {j.shape} != {(n_qubits, n_qubits)}")
    check_finite_couplings(j, EngineError)
    if not np.allclose(j, j.T):
        raise EngineError("coupling matrix must be symmetric")
    return j


def _apply_local(a, op, qubit):
    """(op on `qubit`) @ a: contract the 2x2 `op` against that qubit's axis of a's rows."""
    return np.matmul(op, a.reshape(2**qubit, 2, -1)).reshape(a.shape)


def _conjugate(rho, op, qubit):
    """op rho op^dagger, the right factor as op* on the rows of rho^T: this order
    matches dense embed(op) @ rho @ embed(op)^dagger bit for bit on 2-7 qubits."""
    rho = _apply_local(rho, op, qubit)
    return np.ascontiguousarray(_apply_local(np.ascontiguousarray(rho.T), op.conj(), qubit).T)


def apply_rotation(state, qubit, theta, phi=0.0):
    """Apply R(theta, phi) to one qubit of `state` in place.

    A public per-step kernel: `run_program` does not go through it.
    """
    _check_qubit(qubit, state.n_qubits)
    state.rho = _conjugate(state.rho, rotation_2x2(theta, phi), qubit)


def _window_phases(j, state, duration):
    """Ising phase of each basis state over a window, under the encodings in force.

    Each qubit's couplings scale by its m_F relative to its reference moment.
    """
    s = np.array([MF[b] * r for b, r in zip(state.bases, state.reference_mf)], dtype=float)
    return free_phases(j * np.outer(s, s), duration, s.size)


@cache
def _bit_differs(n_qubits):
    """Read-only (2^n, 2^n, n) mask: does qubit k's bit differ between basis states a and b."""
    bits = bit_table(n_qubits)
    differs = bits[:, None, :] != bits[None, :, :]
    differs.setflags(write=False)
    return differs


def _dephase(state, duration, noise):
    if not (noise.dephasing and duration > 0):
        return
    rates = np.array([noise.rate_for(b) for b in state.bases])
    damp = np.exp(-duration * (_bit_differs(state.n_qubits) * rates).sum(axis=-1))
    state.rho = state.rho * damp


def _window(state, duration, phases, noise):
    """The window kernel: Ising phases, dephasing, then the clock."""
    u = np.exp(1j * phases)
    state.rho = state.rho * np.outer(u, u.conj())
    _dephase(state, duration, noise)
    state.time += duration


def free_evolution(state, duration, j, noise=None):
    """One window: Ising phases under the current encoding pattern, then dephasing.

    A public per-step kernel: `run_program` does not go through it.
    """
    if not 0.0 <= duration < np.inf:
        raise EngineError(f"window duration must be finite and >= 0, got {duration}")
    j = _check_couplings(j, state.n_qubits)
    _window(state, duration, _window_phases(j, state, duration), noise or NoiseModel.off())


def transfer_basis(state, qubit, target):
    """Re-house `qubit` (or "all") in `target`; sigma- <-> sigma+ must pass through pi."""
    if target not in BASES:
        raise EngineError(f"unknown encoding basis {target!r}")
    bases = list(state.bases)
    if qubit != "all":
        _check_qubit(qubit, len(bases))
    for q in range(len(bases)) if qubit == "all" else [qubit]:
        if {bases[q], target} == {BASIS_SIGMA_MINUS, BASIS_SIGMA_PLUS}:
            raise EngineError(f"qubit {q}: direct {bases[q]} -> {target} transfer; "
                              "route it through pi")
        bases[q] = target
    state.bases = tuple(bases)


def dd_phase_sequence(n_pulses, scheme="cpmg"):
    """Pulse phases for a decoupling train of n_pulses pi rotations.

    cpmg: all pulses along the y axis (phase pi/2); even counts only so the
    train closes to the identity.
    kdd: five-pulse composite blocks (pi/6, 0, pi/2, 0, pi/6) with every other
    block advanced by pi/2; counts must be a multiple of ten, and the train is
    the identity up to global phase at multiples of twenty.
    """
    check_decoupling(n_pulses, scheme)
    if scheme == "cpmg":
        return [np.pi / 2] * n_pulses
    block = (np.pi / 6, 0.0, np.pi / 2, 0.0, np.pi / 6)
    phases = []
    for b in range(n_pulses // 5):
        shift = (np.pi / 2) * (b % 2)
        phases.extend(p + shift for p in block)
    return phases


def dd_fragment(duration, n_pulses, scheme="cpmg", n_qubits=3, qubits=None):
    """Expand one window into [tau/2, pi, tau, pi, ..., pi, tau/2] instructions."""
    phases = dd_phase_sequence(n_pulses, scheme)
    targets = list(range(n_qubits)) if qubits is None else list(qubits)
    tau = duration / n_pulses
    instructions = [FreeEvolve(tau / 2)]
    for k, ph in enumerate(phases):
        for q in targets:
            instructions.append(Rotate(q, np.pi, ph))
        instructions.append(FreeEvolve(tau if k < n_pulses - 1 else tau / 2))
    return PulseProgram(n_qubits=n_qubits, instructions=instructions,
                        name=f"dd {scheme} n={n_pulses}")


def selective_recoupling_wrap(duration, echo_qubit, n_qubits=3):
    """Free evolution with a mid-window echo that cancels every coupling to one spin.

    [T/2, pi on k, T/2, pi on k]: the pi pair flips the sign of each zz term
    involving qubit k for the second half, so those phases cancel while the
    rest accumulate the full duration. The trailing pi restores k's frame.
    """
    if duration <= 0:
        raise EngineError("recoupling window must have positive duration")
    instructions = [
        FreeEvolve(duration / 2),
        Rotate(echo_qubit, np.pi, 0.0),
        FreeEvolve(duration / 2),
        Rotate(echo_qubit, np.pi, 0.0),
    ]
    return PulseProgram(n_qubits=n_qubits, instructions=instructions,
                        name=f"recouple echo q{echo_qubit}")


class _Pulse(NamedTuple):
    """A resolved pulse; `driven` is False for a virtual phase gate (PH)."""
    qubit: int
    op: np.ndarray
    driven: bool


class _Window(NamedTuple):
    """A resolved window: its duration and the Ising phase of each basis state."""
    duration: float
    phases: np.ndarray


@dataclass
class _Frame:
    """The encodings a walk tracks when no QuantumState carries them."""
    bases: tuple
    reference_mf: tuple


def _walk(program, j, frame):
    """Resolve `program` into `_Pulse` and `_Window` steps, in order.

    This is the one interpreter of instructions: decoupled windows are
    expanded, transfers update `frame.bases` (a QuantumState or a `_Frame`) as
    the walk passes them, and each window's phases use the encodings then in
    force. `j` must already be checked; every qubit an instruction names is
    bounded here against the program's register.
    """
    measured = False
    for ins in program.instructions:
        if measured:
            raise ProgramError("MEAS must be the last instruction")
        q = getattr(ins, "qubit", "all")
        if q != "all" and not 0 <= q < program.n_qubits:
            raise ProgramError(f"{type(ins).__name__} on qubit {q} outside register "
                               f"of {program.n_qubits}")
        if isinstance(ins, Rotate):
            yield _Pulse(ins.qubit, rotation_2x2(ins.theta, ins.phi), True)
        elif isinstance(ins, Echo):
            yield _Pulse(ins.qubit, rotation_2x2(np.pi, ins.phi), True)
        elif isinstance(ins, PhaseShift):
            yield _Pulse(ins.qubit, phase_2x2(ins.phi), False)
        elif isinstance(ins, FreeEvolve) and ins.dd_pulses:
            yield from _walk(dd_fragment(ins.duration, ins.dd_pulses, ins.dd_scheme,
                                         program.n_qubits), j, frame)
        elif isinstance(ins, FreeEvolve):
            yield _Window(ins.duration, _window_phases(j, frame, ins.duration))
        elif isinstance(ins, TransferBasis):
            transfer_basis(frame, ins.qubit, ins.target)
        elif isinstance(ins, Measure):
            measured = True
        else:
            raise ProgramError(f"cannot execute instruction {ins!r}")


@dataclass
class RunResult:
    state: QuantumState

    @property
    def duration(self):
        return self.state.time


def _relabel(state, perm):
    p = permutation_matrix(perm)
    state.rho = p @ state.rho @ p.T
    state.bases = tuple(state.bases[q] for q in perm)
    state.reference_mf = tuple(state.reference_mf[q] for q in perm)


def run_program(program, j, noise=None, initial=None, assignment=None,
                pulse_duration=0.0):
    """Execute a pulse program and return the final (noisy) register state.

    `j` is the coupling matrix calibrated for the starting encodings. With
    pulse_duration > 0 each pulse adds that much dephasing time
    while the Ising evolution stays frozen (driven qubits are spin-locked).
    """
    noise = noise or NoiseModel()
    j = _check_couplings(j, program.n_qubits)
    if isinstance(initial, QuantumState):
        state = initial.copy()
        if state.n_qubits != program.n_qubits:
            raise EngineError(f"initial state has {state.n_qubits} qubits, "
                              f"program {program.n_qubits}")
    else:
        state = prepare_state(program.n_qubits, initial, assignment)
    for step in _walk(program, j, state):
        if isinstance(step, _Window):
            _window(state, step.duration, step.phases, noise)
        else:
            state.rho = _conjugate(state.rho, step.op, step.qubit)
            if step.driven and pulse_duration > 0:
                _dephase(state, pulse_duration, noise)
                state.time += pulse_duration
    if program.relabel is not None:
        _relabel(state, program.relabel)
    if noise.white_noise and noise.white_noise_fraction > 0:
        dim = 2**state.n_qubits
        zeta = noise.white_noise_fraction
        state.rho = zeta * np.eye(dim) / dim + (1 - zeta) * state.rho
    return RunResult(state=state)


def program_unitary(program, j, assignment=None):
    """Ideal unitary of a program (relabeling included), tracking encoding windows."""
    n = program.n_qubits
    j = _check_couplings(j, n)
    u = np.eye(_register_dim(n), dtype=complex)
    for step in _walk(program, j, _Frame(*_start_encodings(n, assignment))):
        if isinstance(step, _Window):
            u = np.exp(1j * step.phases)[:, None] * u
        else:
            u = _apply_local(u, step.op, step.qubit)
    if program.relabel is not None:
        u = permutation_matrix(program.relabel).astype(complex) @ u
    return u


def apply_readout_confusion(p, fidelity, n_qubits):
    """Symmetric per-qubit classical bit-flip channel on an outcome distribution."""
    p = np.asarray(p, dtype=float)
    flips = _bit_differs(n_qubits).sum(axis=-1)
    c = fidelity ** (n_qubits - flips) * (1 - fidelity) ** flips
    return c @ p


def measurement_probabilities(state, noise=None):
    """Outcome distribution over basis states, with readout error if enabled."""
    noise = noise or NoiseModel.off()
    p = state.populations()
    p = p / p.sum()
    if noise.readout and noise.readout_fidelity < 1.0:
        p = apply_readout_confusion(p, noise.readout_fidelity, state.n_qubits)
    return p


def sample_counts(p, shots, rng):
    """Multinomial shot counts for a distribution; rng must be a numpy Generator."""
    if shots <= 0:
        raise EngineError("shots must be positive")
    if rng is None:
        raise EngineError("finite-shot sampling needs an explicit rng")
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    return rng.multinomial(shots, p / p.sum())


def ramsey_program(qubit, duration, analysis_phase, n_qubits=3, spectator_bits=None,
                   dd_pulses=0, dd_scheme="cpmg"):
    """Conditional-precession probe: pi/2 - wait - pi/2(phase) on one qubit.

    Spectators listed in `spectator_bits` (qubit -> 0/1) are flipped into the
    requested basis state before the probe pulse.
    """
    ins = []
    for q, bit in sorted((spectator_bits or {}).items()):
        if q == qubit:
            raise ProgramError("probe qubit cannot be its own spectator")
        if bit:
            ins.append(Rotate(q, np.pi, 0.0))
    ins.append(Rotate(qubit, np.pi / 2, 0.0))
    ins.append(FreeEvolve(duration, dd_pulses, dd_scheme))
    ins.append(Rotate(qubit, np.pi / 2, analysis_phase))
    return PulseProgram(n_qubits=n_qubits, instructions=ins,
                        name=f"ramsey q{qubit} T={duration:.6g}")


def ramsey_scan(qubit, duration, phases, j, noise=None, n_qubits=3,
                spectator_bits=None, dd_pulses=0, dd_scheme="cpmg"):
    """Bright-state probability of the probe qubit versus analysis phase.

    One run up to the analysis pulse, then `fringe_scan`: exact under any
    NoiseModel, as the pulse commutes with the end-of-run depolarizing mix.
    """
    prog = ramsey_program(qubit, duration, 0.0, n_qubits, spectator_bits,
                          dd_pulses, dd_scheme)
    del prog.instructions[-1]  # the analysis pulse
    return fringe_scan(run_program(prog, j, noise=noise).state, qubit, phases)


def fringe_scan(state, qubit, phases):
    """Analysis-pulse scan on a finished state: P(bright) after R(pi/2, phi).

    With r the probe's reduced state, P(phi) = (r00 + r11)/2 + Im(e^{i phi} r01).
    """
    r = state.reduced_density([qubit])
    return (r[0, 0] + r[1, 1]).real / 2 + np.imag(np.exp(1j * np.asarray(phases)) * r[0, 1])
