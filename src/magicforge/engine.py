"""Exact density-matrix execution of pulse programs with a dephasing noise model.

The register state is an explicit 2^n x 2^n density matrix. Pulses are
instantaneous by default; free-evolution windows apply the diagonal Ising
propagator exp(+i T/2 sum J_ij sz_i sz_j) together with single-qubit phase
damping at a per-encoding rate (magnetic sigma levels dephase fast, the
field-insensitive pi level slowly). Per-qubit dephasing over a window of
length T multiplies coherence element (a, b) by exp(-gamma_k T) for every
qubit k whose bit differs between a and b; that is exactly a phase-flip
channel per qubit and window, so windows compose correctly.

The coupling matrix J is calibrated with every qubit in sigma-, and every
run starts there; only a transfer (XFER) changes a qubit's encoding. A
transfer is an identity on the logical state but changes which couplings and
which dephasing rate the qubit sees from then on: the coupling window scales
by s_i s_j with s_k = -m_F of qubit k's encoding (a qubit parked in pi has
s = 0 and is fully decoupled; a round trip restores the calibrated signs). A
sigma- <-> sigma+ transfer is not a native block and must pass through pi.

One walk over a program (`_walk`) resolves every instruction into a pulse
(qubit and 2x2 operator) or a window (duration and Ising phases under the
encodings in force), tracking transfers and bounding qubit indices on the way;
it expands a decoupling train straight from its phase list, each distinct pulse
operator and window length resolved once. Every run applies the steps in place
to a stack rho[b] of density matrices (`_run`); `program_unitary` multiplies
them into the ideal unitary. A pulse is never lifted to 2^n x 2^n:
`_apply_pulse` applies its 2x2 operator on the qubit's axis through one scratch
stack. A window's phase factor and damp are rebuilt only for a new window
object, so a train's repeated window reuses them; the damp is a gather at a ^ b
(it depends only on which bits differ). Registers are capped at MAX_QUBITS;
entering density matrices are checked.

`run_program` is the one-slice case of that run. `run_batch` runs one program
on several inputs at once: each input is prepared from |0...0> by its own
pulses, never as a ket (a ket-prepared input differs in the last bits), and
the program is then walked once over the whole stack. Each slice equals the
single run of its input's pulses followed by the program, bit for bit, at
every register size.

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

from .constants import MAX_QUBITS
from .gates import (
    bit_table,
    check_couplings,
    free_phases,
    phase_2x2,
    product_ket,
    relabel_index,
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
    """Window dephasing rates (1/s), end-of-run depolarization and readout error.

    A channel is off when its number is 0, or 1 for readout_fidelity.
    """

    sigma_dephasing_rate: float = 62.5
    pi_dephasing_rate: float = 20.0
    white_noise_fraction: float = 0.25
    readout_fidelity: float = 0.96

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
        return cls(0.0, 0.0, 0.0, 1.0)

    def rate_for(self, basis):
        return self.pi_dephasing_rate if basis == BASIS_PI else self.sigma_dephasing_rate


@dataclass
class QuantumState:
    n_qubits: int
    rho: np.ndarray
    bases: tuple
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

    def populations(self):
        return np.clip(np.diag(self.rho).real, 0.0, None)

    def reduced_density(self, keep):
        """Partial trace keeping the listed qubits, in the order given."""
        keep = list(keep)
        n = self.n_qubits
        for q in keep:
            _check_qubit(q, n)
        if len(set(keep)) != len(keep):
            raise EngineError(f"qubits {keep} repeated in partial trace")
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


def prepare_state(n_qubits, spec=None):
    """Fresh register state in sigma-: |0...0>, a product label over {0, 1, +}
    (`product_input_ket`), a unit ket vector, or a density matrix."""
    dim = _register_dim(n_qubits)
    if spec is None:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
    elif isinstance(spec, str):
        if len(spec) != n_qubits:
            raise EngineError(f"bitstring {spec!r} does not match {n_qubits} qubits")
        v = product_input_ket(spec)
        rho = np.outer(v, v.conj())
    else:
        arr = np.asarray(spec, dtype=complex)
        if arr.ndim == 1:
            if arr.size != dim:
                raise EngineError("state vector has wrong dimension")
            norm = np.linalg.norm(arr)
            if not abs(norm - 1.0) <= STATE_TOLERANCE:
                raise EngineError(f"state vector: norm {norm:.6g} is not 1 "
                                  f"(tolerance {STATE_TOLERANCE:g})")
            arr = arr / norm
            rho = np.outer(arr, arr.conj())
        else:
            rho = arr
    return QuantumState(n_qubits, rho, (BASIS_SIGMA_MINUS,) * n_qubits)


def _apply_pulse(rho, scratch, op, qubit):
    """rho <- op rho op^dagger in place through `scratch` (contiguous, rho's shape): op on
    the rows, then op* on the rows of rho^T, each a matmul into scratch and a transposed
    copy back. This order matches the dense 2^n x 2^n product bit for bit on 2-7 qubits."""
    shape = rho.shape[:-2] + (2**qubit, 2, -1)
    for m in (op, op.conj()):
        np.matmul(m, rho.reshape(shape), out=scratch.reshape(shape))
        np.copyto(rho, scratch.swapaxes(-1, -2))


def apply_rotation(state, qubit, theta, phi=0.0):
    """Apply R(theta, phi) to one qubit of `state` in place.

    A public per-step kernel: `run_program` does not go through it.
    """
    _check_qubit(qubit, state.n_qubits)
    state.rho = state.rho.copy()
    _apply_pulse(state.rho, np.empty_like(state.rho), rotation_2x2(theta, phi), qubit)


def _window_phases(j, state, duration):
    """Ising phase of each basis state over a window, under the encodings in force.

    Each qubit's couplings scale by s = -m_F, its moment relative to sigma-.
    """
    s = np.array([-MF[b] for b in state.bases], dtype=float)
    return free_phases(j * np.outer(s, s), duration, s.size)


def _by_xor(values):
    """(2^n, 2^n) table values[a ^ b]: at (a, b), a function of which bits differ."""
    i = np.arange(values.size)
    return values[i[:, None] ^ i]


def _damp(bases, duration, noise):
    """(damp,): exp(-T sum_k gamma_k) over the qubits k whose bits differ; () if none dephase."""
    if not (duration > 0 and (noise.sigma_dephasing_rate or noise.pi_dephasing_rate)):
        return ()
    rates = np.array([noise.rate_for(b) for b in bases])
    return (_by_xor(np.exp(-duration * (bit_table(len(bases)) * rates).sum(axis=-1))),)


def _window_factors(window, bases, noise):
    """The window's Ising phase factor outer(u, u*), then its damp if any."""
    u = np.exp(1j * window.phases)
    return (np.outer(u, u.conj()),) + _damp(bases, window.duration, noise)


def _evolve(frame, duration, factors):
    """The window kernel, in place: each factor in turn, then the clock."""
    for factor in factors:
        frame.rho *= factor
    frame.time += duration


def free_evolution(state, duration, j, noise=None):
    """One window: Ising phases under the current encoding pattern, then dephasing.

    A public per-step kernel: `run_program` does not go through it.
    """
    if not 0.0 <= duration < np.inf:
        raise EngineError(f"window duration must be finite and >= 0, got {duration}")
    j = check_couplings(j, state.n_qubits, EngineError)
    window = _Window(duration, _window_phases(j, state, duration))
    state.rho = state.rho.copy()
    _evolve(state, duration, _window_factors(window, state.bases, noise or NoiseModel.off()))


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


def dd_fragment(duration, n_pulses, scheme="cpmg", n_qubits=3):
    """Expand one window into [tau/2, pi, tau, ..., pi, tau/2], each pi on every qubit.
    The reference expansion, on no run path (`_walk` expands trains itself): the tests'
    oracle checks the walk against it, and bench/tracing.py counts instructions with it."""
    if n_pulses < 1:
        raise ProgramError(f"a decoupled window needs at least one pulse, got {n_pulses}")
    phases = dd_phase_sequence(n_pulses, scheme)
    tau = duration / n_pulses
    instructions = [FreeEvolve(tau / 2)]
    for k, ph in enumerate(phases):
        for q in range(n_qubits):
            instructions.append(Rotate(q, np.pi, ph))
        instructions.append(FreeEvolve(tau if k < n_pulses - 1 else tau / 2))
    return PulseProgram(n_qubits=n_qubits, instructions=instructions,
                        name=f"dd {scheme} n={n_pulses}")


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
    """The encodings a walk tracks; in a run also the stack rho[b] and each slice's clock."""
    bases: tuple
    rho: np.ndarray = None
    time: np.ndarray = None

    @property
    def n_qubits(self):
        return len(self.bases)


def _walk(program, j, frame):
    """Resolve `program` into `_Pulse` and `_Window` steps, in order.

    This is the one interpreter of instructions: decoupled windows are expanded
    in `dd_fragment`'s order, transfers update `frame.bases` as the walk passes
    them, and each window's phases use the encodings then in force. `j` must be
    checked already; each qubit an instruction names is bounded here against the
    program's register.
    """
    measured = False
    for ins in program.instructions:
        if measured:
            raise ProgramError("MEAS must be the last instruction")
        q = getattr(ins, "qubit", 0)  # windows and MEAS name no qubit
        if not (q == "all" and isinstance(ins, TransferBasis) or 0 <= q < program.n_qubits):
            raise ProgramError(f"{type(ins).__name__} on qubit {q} outside register "
                               f"of {program.n_qubits}")
        if isinstance(ins, Rotate):
            yield _Pulse(ins.qubit, rotation_2x2(ins.theta, ins.phi), True)
        elif isinstance(ins, Echo):
            yield _Pulse(ins.qubit, rotation_2x2(np.pi, ins.phi), True)
        elif isinstance(ins, PhaseShift):
            yield _Pulse(ins.qubit, phase_2x2(ins.phi), False)
        elif isinstance(ins, FreeEvolve) and ins.dd_pulses:
            phases = dd_phase_sequence(ins.dd_pulses, ins.dd_scheme)
            tau = ins.duration / ins.dd_pulses
            half, full = (_Window(t, _window_phases(j, frame, t)) for t in (tau / 2, tau))
            ops = {phi: rotation_2x2(np.pi, phi) for phi in set(phases)}
            yield half
            for k, phi in enumerate(phases):
                yield from (_Pulse(qubit, ops[phi], True) for qubit in range(program.n_qubits))
                yield full if k < ins.dd_pulses - 1 else half
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


def _relabel(state, perm):
    i = relabel_index(perm)
    state.rho = state.rho[..., i[:, None], i]
    state.bases = tuple(state.bases[q] for q in perm)


def _slice(state):
    """`state` as a one-slice `_Frame` on a fresh C-ordered stack, whatever rho's layout."""
    return _Frame(state.bases, np.array([state.rho], order="C"), np.array([state.time]))


def _run_steps(frame, program, j, noise, pulse_duration):
    """Apply `program`'s steps in place to the stack frame.rho and each slice's clock.
    Factors are rebuilt only for a new window object: a train's windows, built under one
    encoding pattern, take three factor pairs (tau/2, tau, tau/2). Pulse damps are per encoding."""
    scratch = np.empty(frame.rho.shape, frame.rho.dtype)
    last = factors = None
    pulse_damp = cache(lambda bases: _damp(bases, pulse_duration, noise))
    for step in _walk(program, j, frame):
        if isinstance(step, _Window):
            if step is not last:
                last, factors = step, _window_factors(step, frame.bases, noise)
            _evolve(frame, step.duration, factors)
        else:
            _apply_pulse(frame.rho, scratch, step.op, step.qubit)
            if step.driven and pulse_duration > 0:
                _evolve(frame, pulse_duration, pulse_damp(frame.bases))


def _run(frame, program, j, noise, pulse_duration):
    """The one run path: the steps, the relabeling, then the depolarizing mix, all
    on the stack; one RunResult per slice."""
    _run_steps(frame, program, j, noise, pulse_duration)
    if program.relabel is not None:
        _relabel(frame, program.relabel)
    if noise.white_noise_fraction > 0:
        dim = 2**frame.n_qubits
        zeta = noise.white_noise_fraction
        frame.rho = zeta * np.eye(dim) / dim + (1 - zeta) * frame.rho
    return [RunResult(QuantumState(frame.n_qubits, rho, frame.bases, float(t)))
            for rho, t in zip(frame.rho, frame.time)]


def _check_pulse_duration(pulse_duration):
    if not 0.0 <= pulse_duration < np.inf:
        raise EngineError(f"pulse_duration must be finite and >= 0, got {pulse_duration}")


def run_program(program, j, noise=None, initial=None, pulse_duration=0.0):
    """Execute a pulse program and return the final (noisy) register state.

    `j` is the coupling matrix calibrated with every qubit in sigma-. With
    pulse_duration > 0 each pulse adds that much dephasing time
    while the Ising evolution stays frozen (driven qubits are spin-locked).
    The run is the one-slice case of `run_batch`'s stack; `initial` is left as it is.
    """
    _check_pulse_duration(pulse_duration)
    noise = noise or NoiseModel()
    j = check_couplings(j, program.n_qubits, EngineError)
    if not isinstance(initial, QuantumState):
        initial = prepare_state(program.n_qubits, initial)
    elif initial.n_qubits != program.n_qubits:
        raise EngineError(f"initial state has {initial.n_qubits} qubits, "
                          f"program {program.n_qubits}")
    [result] = _run(_slice(initial), program, j, noise, pulse_duration)
    return result


def run_batch(program, j, preparations, noise=None, pulse_duration=0.0):
    """Run one program on several inputs as a stack rho[b]; one RunResult per input.

    Input b is |0...0> in sigma- followed by the pulses `preparations[b]`,
    applied on its own one-slice stack; `program` is then walked once over the
    whole stack. Inputs are prepared by pulses, never as kets: a ket-prepared
    input differs from the pulse-prepared one in the last bits. Each result
    equals `run_program` on the input's pulses followed by `program`, bit for bit.
    A preparation must leave every qubit in sigma-, where `program` starts.
    """
    _check_pulse_duration(pulse_duration)
    noise = noise or NoiseModel()
    n = program.n_qubits
    j = check_couplings(j, n, EngineError)
    if not preparations:
        raise EngineError("run_batch needs at least one preparation")
    slices = []
    for prep in preparations:
        frame = _slice(prepare_state(n))
        _run_steps(frame, PulseProgram(n, list(prep)), j, noise, pulse_duration)
        if set(frame.bases) != {BASIS_SIGMA_MINUS}:
            raise EngineError(f"preparation {prep!r} leaves encodings {frame.bases}, "
                              "not sigma-")
        slices.append(frame)
    stack = _Frame(slices[0].bases, np.concatenate([f.rho for f in slices]),
                   np.concatenate([f.time for f in slices]))
    return _run(stack, program, j, noise, pulse_duration)


def program_unitary(program, j):
    """Ideal unitary of a program (relabeling included) from sigma-, tracking encoding windows."""
    n = program.n_qubits
    j = check_couplings(j, n, EngineError)
    u = np.eye(_register_dim(n), dtype=complex)
    for step in _walk(program, j, _Frame((BASIS_SIGMA_MINUS,) * n)):
        if isinstance(step, _Window):
            u = np.exp(1j * step.phases)[:, None] * u
        else:
            # the 2x2 op on the qubit's axis of the rows of u
            u = np.matmul(step.op, u.reshape(2**step.qubit, 2, -1)).reshape(u.shape)
    if program.relabel is not None:
        u = u[relabel_index(program.relabel)]
    return u


def apply_readout_confusion(p, fidelity, n_qubits):
    """Symmetric per-qubit classical bit-flip channel on an outcome distribution."""
    p = np.asarray(p, dtype=float)
    flips = _by_xor(bit_table(n_qubits).sum(axis=-1))
    c = fidelity ** (n_qubits - flips) * (1 - fidelity) ** flips
    return c @ p


def measurement_probabilities(state, noise):
    """Outcome distribution over basis states, with readout error when readout_fidelity < 1."""
    p = state.populations()
    p = p / p.sum()
    if noise.readout_fidelity < 1.0:
        p = apply_readout_confusion(p, noise.readout_fidelity, state.n_qubits)
    return p


def sample_counts(p, shots, rng):
    """Multinomial shot counts for a distribution; rng must be a numpy Generator.

    p holds one probability per basis state of a register, 2^n entries. An
    entry that is not finite or lies below -1e-12 is an error, and so is an
    all-zero p; rounding noise above -1e-12 is clipped to 0. The clipped entries
    must sum to 1 within 1e-9, and p is divided by that sum before the draw.
    """
    if shots <= 0:
        raise EngineError("shots must be positive")
    if rng is None:
        raise EngineError("finite-shot sampling needs an explicit rng")
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2 or p.size & (p.size - 1):
        raise EngineError(f"distribution of shape {p.shape} is not one probability per "
                          "basis state of a register (2^n entries)")
    bad = np.flatnonzero(~np.isfinite(p) | (p < -1e-12))
    if bad.size:
        raise EngineError(f"distribution entry p[{bad[0]}] is {float(p[bad[0]])}; "
                          "probabilities must be finite and not below -1e-12")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if not total > 0:
        raise EngineError("distribution has no weight to sample from (every entry is 0)")
    if not abs(total - 1.0) <= 1e-9:
        raise EngineError(f"distribution sums to {total:.12g}, not 1 within 1e-9")
    return rng.multinomial(shots, p / total)


def ramsey_program(qubit, duration, spectator_bits=None, dd_pulses=0):
    """Conditional-precession probe on the three-qubit register, up to its analysis pulse.

    Spectators listed in `spectator_bits` (qubit -> 0/1) are flipped into the
    requested basis state before the probe's pi/2 pulse; `dd_pulses` CPMG
    pulses decouple the wait. `fringe_scan` reads the analysis pulse off the
    finished state.
    """
    ins = []
    for q, bit in sorted((spectator_bits or {}).items()):
        if q == qubit:
            raise ProgramError("probe qubit cannot be its own spectator")
        if bit:
            ins.append(Rotate(q, np.pi, 0.0))
    ins.append(Rotate(qubit, np.pi / 2, 0.0))
    ins.append(FreeEvolve(duration, dd_pulses))
    return PulseProgram(n_qubits=3, instructions=ins,
                        name=f"ramsey q{qubit} T={duration:.6g}")


def ramsey_scan(qubit, duration, phases, j, noise=None, spectator_bits=None, dd_pulses=0):
    """Bright-state probability of the probe qubit versus analysis phase.

    One run of `ramsey_program`, then `fringe_scan`: exact under any
    NoiseModel, as the pulse commutes with the end-of-run depolarizing mix.
    """
    prog = ramsey_program(qubit, duration, spectator_bits, dd_pulses)
    return fringe_scan(run_program(prog, j, noise=noise).state, qubit, phases)


def fringe_scan(state, qubit, phases):
    """Analysis-pulse scan on a finished state: P(bright) after R(pi/2, phi).

    With r the probe's reduced state, P(phi) = (r00 + r11)/2 + Im(e^{i phi} r01).
    """
    r = state.reduced_density([qubit])
    return (r[0, 0] + r[1, 1]).real / 2 + np.imag(np.exp(1j * np.asarray(phases)) * r[0, 1])
