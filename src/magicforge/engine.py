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
which dephasing rate the qubit sees from then on: J_ij scales by m_i m_j, the
m_F of their encodings (`encoding.effective_couplings`; m = 0 in pi decouples a
qubit, and a round trip restores the calibrated signs). A sigma- <-> sigma+
transfer is not a native block and must pass through pi.

One walk over a program (`_walk`) resolves every instruction into a pulse
(qubit, 2x2 operator and its conjugate) or a window (duration and Ising phase
factor under the encodings in force). A program is checked when it is built, so
the walk keeps only the transfer rule, which hangs on those encodings, and it
expands a decoupling train from its phase list, each pulse pair and window
resolved once. Every run applies the steps in place to a (2^n, 2^n, B) stack of
density matrices, slice b last (`_run`); `program_unitary` multiplies them
into the ideal unitary. A pulse is never lifted to 2^n x 2^n. A run keeps its
stack pair-major (`_pairs`: each qubit's row and column bit adjacent, qubits in
a tracked order); a pulse on q gathers q's pair to the front if it is not there,
then applies op as one zgemm 4^n B/2 columns wide and op* as two 4^(n-1) B wide.
A walk folds each encoding pattern's Ising energies once and builds a train's two windows
once. Time passes only in windows (a driven pulse's time is one without Ising phase); a window's
factors, phase u[a] u*[b] and damp v[a ^ b], are gathered from its 2^n values, permuted into the
qubit order, by one index set per register size. Both per-step kernels, `apply_rotation` and
`free_evolution`, are one-instruction runs. Registers are capped at MAX_QUBITS; entering
density matrices are checked, and states the engine builds itself are not re-checked.
A window or pulse whose Ising phase, damp exponent or run clock would overflow
fails with an EngineError naming its duration.

`run_program` is the one-slice case of that run (of `run_batch`, for a label).
`run_batch` runs one program on several product inputs, labels over {0, 1, +},
at once: each is prepared from |0...0> by its own pulses, the one preparation
of a label (`_prepared`, which `prepare_state` returns too; `product_input_ket`
is the ideal reference ket, which differs in the last bits), and the program is
then walked once over the stack. Each slice equals the single run of its
input's pulses and the program bit for bit, by the 4-column rule: the pinned
OpenBLAS rounds every column of a product a multiple of 4 wide alike, and from
2 qubits up every product is. A 1-qubit run's products are 2 columns wide (its
op* runs on the transpose: 1 column would be a zgemv), so 1-qubit stacks run
slice by slice.

`fringe_scan` reads a Ramsey fringe in closed form off the probe's reduced
state (`partial_trace` takes one qubit), so a scan over analysis phases runs
its program once, not per phase.

A depolarizing fraction zeta is folded in once, in place, at the end of a run,
rho -> zeta I/2^n + (1 - zeta) rho, modelling accumulated pulse error over a
whole sequence rather than per-gate noise. Readout error is classical and is
applied to outcome distributions only, never to the state.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .constants import MAX_QUBITS
from .encoding import _encoded
from .gates import (
    bit_table,
    check_array,
    check_couplings,
    check_int,
    check_real,
    free_phases,
    phase_2x2,
    product_ket,
    read_only,
    relabel_index,
    rotation_2x2,
)
from .program import (
    BASIS_PI,
    BASIS_SIGMA_MINUS,
    BASIS_SIGMA_PLUS,
    Echo,
    FreeEvolve,
    PhaseShift,
    ProgramError,
    PulseProgram,
    Rotate,
    TransferBasis,
    check_bases,
    check_decoupling,
)


class EngineError(RuntimeError):
    pass


# How far a density matrix entering the engine may be from trace 1 and from
# Hermitian (largest elementwise deviation).
STATE_TOLERANCE = 1e-9


def _check_register(n_qubits):
    """`n_qubits` if it is an int in 1..MAX_QUBITS, else an EngineError naming it."""
    return check_int(n_qubits, "n_qubits", EngineError, 1, MAX_QUBITS,
                     f"register of {n_qubits!r} qubits outside 1..{MAX_QUBITS} "
                     "(the dense engine holds 4^n amplitudes)")


def _check_qubit(qubit, n_qubits):
    check_int(qubit, "qubit", EngineError, 0, n_qubits - 1,
              f"qubit {qubit!r} outside register of {n_qubits}")


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
            check_real(getattr(self, name), name, ValueError, 0)
        check_real(self.white_noise_fraction, "white_noise_fraction", ValueError, 0, 1)
        check_real(self.readout_fidelity, "readout_fidelity", ValueError, 0.5, 1)

    @classmethod
    def off(cls):
        return cls(0.0, 0.0, 0.0, 1.0)

    def rate_for(self, basis):
        return self.pi_dephasing_rate if basis == BASIS_PI else self.sigma_dephasing_rate


def _check_noise(noise, default=None):
    """`noise` if a NoiseModel, `default()` for None where there is one; else an EngineError."""
    if noise is None and default:
        return default()
    if not isinstance(noise, NoiseModel):
        raise EngineError(f"noise must be a NoiseModel{' or None' * bool(default)}, got {noise!r}")
    return noise


@dataclass
class QuantumState:
    n_qubits: int
    rho: np.ndarray
    bases: tuple
    time: float = 0.0

    def __post_init__(self):
        dim = 2 ** _check_register(self.n_qubits)
        self.rho = check_array(self.rho, "rho", EngineError, complex, finite=False)
        if self.rho.shape != (dim, dim):
            raise EngineError(f"density matrix shape {self.rho.shape} != {(dim, dim)}")
        trace = np.trace(self.rho)
        if not abs(trace - 1.0) <= STATE_TOLERANCE:
            raise EngineError(f"rho: trace {trace:.6g} is not 1 (tolerance {STATE_TOLERANCE:g})")
        check_array(self.rho, "rho", EngineError, complex)  # finite off the diagonal too
        if not np.abs(self.rho - self.rho.conj().T).max() <= STATE_TOLERANCE:
            raise EngineError(f"rho: not Hermitian (tolerance {STATE_TOLERANCE:g})")
        self.bases = check_bases(self.bases, EngineError, self.n_qubits)
        check_real(self.time, "time", EngineError)

    def populations(self):
        return np.clip(np.diag(self.rho).real, 0.0, None)


def partial_trace(rho, qubit):
    """The 2 x 2 reduced state of one qubit of a 2^n x 2^n rho.

    `rho` may be a (2^n, 2^n, B) stack, slice b last as `run_batch` runs it; each
    slice is traced as a single rho is, bit for bit, and the result is (2, 2, B).
    """
    rho = check_array(rho, "rho", EngineError, complex, (2, 3))
    n = rho.shape[0].bit_length() - 1
    if rho.shape[:2] != (2**n, 2**n):
        raise EngineError(f"rho of shape {rho.shape} is not 2^n x 2^n")
    _check_qubit(qubit, n)
    t = rho.reshape([2] * (2 * n) + list(rho.shape[2:]))
    for count, q in enumerate(q for q in range(n) if q != qubit):
        axis = q - count  # earlier traces shrink the index space
        t = np.trace(t, axis1=axis, axis2=axis + (n - count))
    return t


# Each token of a product input: its single-qubit ket, and the (theta, phi)
# of the pulse that prepares it from |0>.
_INPUT_TOKENS = {
    "0": (np.array([1.0, 0.0], dtype=complex), None),
    "1": (np.array([0.0, 1.0], dtype=complex), (np.pi, 0.0)),
    "+": (np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0), (np.pi / 2, np.pi / 2)),
}


def check_label(label, n_qubits, error):
    """`label` if it is a product input over {0, 1, +} of `n_qubits` qubits, qubit 0
    first; else an `error` (the caller's class) naming it."""
    if not (isinstance(label, str) and set(label) <= _INPUT_TOKENS.keys()):
        raise error(f"input: bad preparation label {label!r}; use 0, 1 and +")
    if len(label) != n_qubits:
        raise error(f"input {label!r} does not match a {n_qubits}-qubit program")
    return label


def product_input_ket(label):
    """Ket of the product state `label` over {0, 1, +}, qubit 0 first."""
    return product_ket([_INPUT_TOKENS[c][0] for c in check_label(label, len(label), ProgramError)])


def prepare_state(n_qubits, spec=None):
    """Fresh register state in sigma-: |0...0>, a product label over {0, 1, +} prepared
    by its pulses as a run prepares it (`_prepared`), a unit ket vector, or a density matrix."""
    dim = 2 ** _check_register(n_qubits)
    bases = (BASIS_SIGMA_MINUS,) * n_qubits
    if spec is None:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return _trusted_state(n_qubits, rho, bases)
    try:  # text, bytes or a lone number is a label; numbers make a ket or a density matrix
        label = np.ndim(spec) == 0 or np.asarray(spec).dtype.kind not in "biufc"
    except ValueError:  # a ragged sequence, which check_array names
        label = False
    if label:
        frame = _prepared(check_label(spec, n_qubits, EngineError), NoiseModel.off(), 0.0)
        return _trusted_state(n_qubits, frame.rho[..., 0], bases)
    arr = check_array(spec, "state", EngineError, complex, (1, 2), finite=False)
    if arr.ndim == 1:
        if arr.size != dim:
            raise EngineError("state vector has wrong dimension")
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= STATE_TOLERANCE:
            raise EngineError(f"state vector: norm {norm:.6g} is not 1 "
                              f"(tolerance {STATE_TOLERANCE:g})")
        arr = arr / norm
        arr = np.outer(arr, arr.conj())
    return QuantumState(n_qubits, arr, bases)


def _trusted_state(n_qubits, rho, bases, time=0.0):
    """A QuantumState of a complex rho the engine built itself, not checked again."""
    state = object.__new__(QuantumState)
    vars(state).update(n_qubits=n_qubits, rho=rho, bases=bases, time=time)
    return state


def apply_rotation(state, qubit, theta, phi=0.0):
    """Apply R(theta, phi) to one qubit of `state` in place: a one-instruction run."""
    _check_qubit(qubit, state.n_qubits)
    _step(state, Rotate(qubit, theta, phi))


def _check_exponent(value, duration, what):
    """An exponent or clock taken in Python floats, which never warn, must be finite; else
    numpy would overflow on it, so an EngineError names the duration."""
    if not value < np.inf:
        raise EngineError(f"duration {duration:g} s overflows the {what}")


def _damp(bases, duration, noise):
    """v[x] = exp(-T sum_k gamma_k), k over bits of x: the damp of (a, b) at x = a ^ b; or None."""
    if not (duration > 0 and (noise.sigma_dephasing_rate or noise.pi_dephasing_rate)):
        return None
    rates = [float(noise.rate_for(b)) for b in bases]
    _check_exponent(float(duration) * sum(rates), duration, "dephasing exponent T*sum(gamma)")
    return np.exp(-duration * (bit_table(len(bases)) * np.array(rates)).sum(axis=-1))


def free_evolution(state, duration, j, noise=None):
    """One window in place, a one-instruction run: Ising phases, then dephasing if `noise`."""
    _step(state, FreeEvolve(duration), check_couplings(j, state.n_qubits, EngineError), noise)


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
    return [p + (np.pi / 2) * (b % 2) for b in range(n_pulses // 5) for p in block]


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
        instructions += [Rotate(q, np.pi, ph) for q in range(n_qubits)]
        instructions.append(FreeEvolve(tau if k < n_pulses - 1 else tau / 2))
    return PulseProgram(n_qubits=n_qubits, instructions=instructions,
                        name=f"dd {scheme} n={n_pulses}")


class _Pulse(NamedTuple):
    """A resolved pulse, ops = (2x2 op, op*); `driven` is False for a virtual phase gate (PH)."""
    qubit: int
    ops: tuple
    driven: bool


def _ops(op):
    return op, op.conj()


@dataclass(eq=False, frozen=True)
class _Window:
    """A resolved window, hashed by identity: its duration, each state's Ising phase factor u
    (None for a driven pulse's time, J frozen) and `laid`, its damp's 2^n values (key None, None
    if no damp) and its factors laid out in each qubit order it meets (key: the order)."""
    duration: float
    phase: np.ndarray
    laid: dict = field(default_factory=dict)


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
    in `dd_fragment`'s order, a transfer sets `frame.bases` once every qubit it
    names has passed the sigma- <-> sigma+ rule, and each window's phases use the
    encodings then in force. `j` must be checked already, the program when built. Each
    pattern's sum|J| and energies E = `free_phases(_encoded(j, bases), 2.0)` are taken once per
    walk; exp(i (T / 2.0) E) holds the bits of `free_phases` at T, as 2.0 / 2.0 is exactly 1.
    """
    energies = {}
    def window(t):
        if frame.bases not in energies:
            jb = _encoded(j, frame.bases)
            total = sum(map(abs, np.triu(jb, 1).ravel().tolist()))
            energies[frame.bases] = total, free_phases(jb, 2.0) if total < np.inf else None
        total, e = energies[frame.bases]
        _check_exponent(float(t) / 2.0 * total, t, "Ising phase T/2*sum|J|")
        return _Window(t, np.exp(1j * (t / 2.0 * e)))
    for ins in program.instructions:
        if isinstance(ins, Rotate):
            yield _Pulse(ins.qubit, _ops(rotation_2x2(ins.theta, ins.phi)), True)
        elif isinstance(ins, Echo):
            yield _Pulse(ins.qubit, _ops(rotation_2x2(np.pi, ins.phi)), True)
        elif isinstance(ins, PhaseShift):
            yield _Pulse(ins.qubit, _ops(phase_2x2(ins.phi)), False)
        elif isinstance(ins, FreeEvolve) and ins.dd_pulses:
            phases = dd_phase_sequence(ins.dd_pulses, ins.dd_scheme)
            tau = ins.duration / ins.dd_pulses
            half, full = window(tau / 2), window(tau)
            layers = {phi: [_Pulse(q, ops, True) for q in range(program.n_qubits)]
                      for phi in set(phases) for ops in [_ops(rotation_2x2(np.pi, phi))]}
            yield half
            for k, phi in enumerate(phases):
                yield from layers[phi]
                yield full if k < ins.dd_pulses - 1 else half
        elif isinstance(ins, FreeEvolve):
            yield window(ins.duration)
        elif isinstance(ins, TransferBasis):
            bases = list(frame.bases)
            for q in range(program.n_qubits) if ins.qubit == "all" else [ins.qubit]:
                if {bases[q], ins.target} == {BASIS_SIGMA_MINUS, BASIS_SIGMA_PLUS}:
                    raise EngineError(f"qubit {q}: direct {bases[q]} -> {ins.target} transfer; "
                                      "route it through pi")
                bases[q] = ins.target
            frame.bases = tuple(bases)


@dataclass
class RunResult:
    state: QuantumState


def _slice(state):
    """`state` as a one-slice `_Frame` on a fresh C-ordered stack, whatever rho's layout."""
    return _Frame(state.bases, np.array(state.rho[..., None], order="C"), np.array([state.time]))


def _pairs(stack, order):
    """The (2^n, 2^n, B) `stack` viewed pair-major: bits r_q, c_q per qubit q in `order`, then b."""
    n = len(order)
    bits = stack.reshape((2,) * 2 * n + stack.shape[2:])
    return bits.transpose([axis for q in order for axis in (q, n + q)] + [2 * n])


@cache
def _pair_index(n):
    """Row r, column c and r ^ c of each entry of a pair-major (2^n, 2^n, 1) table, as indices of
    2^n values permuted into its qubit order, so one read-only set serves every order."""
    m, r, c = np.arange(4**n), 0, 0
    for k in range(n):  # bits 2k + 1 and 2k of m are the row and column bit of pair n - 1 - k
        r, c = r | ((m >> 2 * k + 1) & 1) << k, c | ((m >> 2 * k) & 1) << k
    return tuple(read_only(a.reshape(2**n, 2**n, 1)) for a in (r, c, r ^ c))


def _laid(phase, damp, order):
    """A window's factors laid out pair-major in `order`, each one gather of its 2^n values
    permuted into that order: the phase u[r] u*[c] unless u is None, then the damp v[r ^ c]."""
    r, c, x = _pair_index(len(order))
    u, v = (a if a is None else a.reshape((2,) * len(order)).transpose(order).ravel()
            for a in (phase, damp))
    return ((() if u is None else (u[r] * u.conj()[c],))
            + (() if v is None else (v.astype(complex)[x],)))


def _run_steps(frame, program, j, noise, pulse_duration):
    """Apply `program`'s steps in place to the stack frame.rho and each slice's clock. Time passes
    only in windows: a driven pulse that takes time is followed by a window without Ising phase,
    one per encoding pattern. A window builds its damp's 2^n values once and its factors once per
    qubit order, each one gather (`_laid`); it applies them, then advances the clocks."""
    n, order = frame.n_qubits, tuple(range(frame.n_qubits))
    bufs = [np.empty_like(frame.rho), frame.rho]
    pair_major = bufs[0].reshape((2,) * 2 * n + (-1,))
    np.copyto(pair_major, _pairs(frame.rho, order))
    rows, cols = [b.reshape(2, -1) for b in bufs], [b.reshape(2, 2, -1) for b in bufs]
    gather, pulse_time = {}, {}
    i, clock = 0, max(frame.time.tolist())  # i: the buffer that holds the state
    for step in _walk(program, j, frame):
        if isinstance(step, _Pulse):
            if p := order.index(step.qubit):
                if (i, p) not in gather:  # pair p of buffer i to the front of the other
                    gather[i, p] = (bufs[1 - i].reshape(4, 4**p, -1),
                                    bufs[i].reshape(4**p, 4, -1).swapaxes(0, 1))
                np.copyto(*gather[i, p])
                i, order = 1 - i, (step.qubit,) + order[:p] + order[p + 1:]
            np.matmul(step.ops[0], rows[i], out=rows[1 - i])
            if n > 1:
                np.matmul(step.ops[1], cols[1 - i], out=cols[i])
            else:  # B columns would be a zgemv at B = 1, which rounds unlike zgemm
                np.copyto(cols[i], cols[1 - i].swapaxes(0, 1))
                np.matmul(step.ops[1], rows[i], out=rows[1 - i])
                np.copyto(cols[i], cols[1 - i].swapaxes(0, 1))
            if not (step.driven and pulse_duration > 0):
                continue
            if (step := pulse_time.get(frame.bases)) is None:
                step = pulse_time[frame.bases] = _Window(pulse_duration, None)
        laid = step.laid
        if None not in laid:
            laid[None] = _damp(frame.bases, step.duration, noise)
        if order not in laid:
            laid[order] = _laid(step.phase, laid[None], order)
        clock += step.duration  # the latest slice's clock, in Python floats
        _check_exponent(clock, step.duration, "run clock")
        for factor in laid[order]:
            bufs[i] *= factor
        frame.time += step.duration
    if i:  # the state is in frame.rho's buffer, which the copy back writes
        np.copyto(bufs[0], bufs[1])
    np.copyto(_pairs(frame.rho, order), pair_major)


def _step(state, ins, j=None, noise=None):
    """Run one instruction on `state` in place, through `_run_steps` on a one-slice stack
    (no relabeling, no depolarizing mix); `noise` None is no dephasing."""
    frame = _slice(state)
    _run_steps(frame, PulseProgram(state.n_qubits, [ins]), j, _check_noise(noise, NoiseModel.off),
               0.0)
    state.rho, state.time = frame.rho[..., 0], float(frame.time[0])


def _run(frame, program, j, noise, pulse_duration):
    """The one run path: the steps, the relabeling, then the depolarizing mix, all
    on the stack; one RunResult per slice."""
    _run_steps(frame, program, j, noise, pulse_duration)
    if program.relabel is not None:
        i = relabel_index(program.relabel)
        frame.rho = frame.rho[i[:, None], i]
        frame.bases = tuple(frame.bases[q] for q in program.relabel)
    if noise.white_noise_fraction > 0:
        zeta, dim = noise.white_noise_fraction, 2**frame.n_qubits
        frame.rho *= 1 - zeta
        frame.rho += (zeta * np.eye(dim) / dim)[..., None]  # off-diagonal -0.0 + 0.0 is +0.0
    return [RunResult(_trusted_state(frame.n_qubits, np.ascontiguousarray(frame.rho[..., b]),
                                     frame.bases, float(t))) for b, t in enumerate(frame.time)]


def _prepared(label, noise, pulse_duration):
    """The one-slice frame that the checked product input `label`'s pulses (R(pi) for 1,
    R(pi/2, pi/2) for +) make from |0...0> in sigma-; each pulse takes pulse_duration."""
    frame = _slice(prepare_state(len(label)))
    pulses = [Rotate(q, *_INPUT_TOKENS[ch][1]) for q, ch in enumerate(label) if ch != "0"]
    _run_steps(frame, PulseProgram(len(label), pulses), None, noise, pulse_duration)
    return frame


def run_program(program, j, noise=None, initial=None, pulse_duration=0.0):
    """Execute a pulse program and return the final (noisy) register state.

    `j` is the coupling matrix calibrated with every qubit in sigma-. With
    pulse_duration > 0 each pulse adds that much dephasing time
    while the Ising evolution stays frozen (driven qubits are spin-locked).
    `initial` is |0...0> by default, a ket, a density matrix or a QuantumState,
    which is left as it is; the run is the one-slice case of `run_batch`'s stack.
    A product label over {0, 1, +} runs as `run_batch` on that one input: it is
    prepared by its pulses, which take pulse_duration each, never as a ket.
    """
    if isinstance(initial, str):
        return run_batch(program, j, [initial], noise, pulse_duration)[0]
    check_real(pulse_duration, "pulse_duration", EngineError, 0)
    noise = _check_noise(noise, NoiseModel)
    j = check_couplings(j, program.n_qubits, EngineError)
    if not isinstance(initial, QuantumState):
        initial = prepare_state(program.n_qubits, initial)
    elif initial.n_qubits != program.n_qubits:
        raise EngineError(f"initial state has {initial.n_qubits} qubits, "
                          f"program {program.n_qubits}")
    [result] = _run(_slice(initial), program, j, noise, pulse_duration)
    return result


def run_batch(program, j, inputs, noise=None, pulse_duration=0.0):
    """Run one program on several product inputs as a stack rho[b]; one RunResult per input.

    Input b is the label `inputs[b]` over {0, 1, +}, one character per qubit of
    `program`, qubit 0 first, prepared by its pulses on its own one-slice stack
    (`_prepared`). `program` is then walked once over the whole stack. Each result
    equals `run_program` on the input's pulses followed by `program`, bit for bit.
    """
    check_real(pulse_duration, "pulse_duration", EngineError, 0)
    noise = _check_noise(noise, NoiseModel)
    n = program.n_qubits
    j = check_couplings(j, n, EngineError)
    if not isinstance(inputs, (list, tuple)):
        kind = "string" if isinstance(inputs, str) else type(inputs).__name__
        raise EngineError(f"inputs must be a list of product labels, not the {kind} {inputs!r}")
    if not inputs:
        raise EngineError("run_batch needs at least one input")
    if n == 1 and len(inputs) > 1:  # 2 columns round unlike 4k (module docstring)
        return [run_batch(program, j, [label], noise, pulse_duration)[0] for label in inputs]
    slices = [_prepared(check_label(label, n, EngineError), noise, pulse_duration)
              for label in inputs]
    stack = _Frame(slices[0].bases, np.concatenate([f.rho for f in slices], axis=-1),
                   np.concatenate([f.time for f in slices]))
    return _run(stack, program, j, noise, pulse_duration)


def program_unitary(program, j):
    """Ideal unitary of a program (relabeling included) from sigma-, tracking encoding windows."""
    n = program.n_qubits
    j = check_couplings(j, n, EngineError)
    u = np.eye(2**n, dtype=complex)
    for step in _walk(program, j, _Frame((BASIS_SIGMA_MINUS,) * n)):
        if isinstance(step, _Window):
            u = step.phase[:, None] * u
        else:
            # the 2x2 op on the qubit's axis of the rows of u
            u = np.matmul(step.ops[0], u.reshape(2**step.qubit, 2, -1)).reshape(u.shape)
    if program.relabel is not None:
        u = u[relabel_index(program.relabel)]
    return u


def _register_of(p, axis):
    """n for 2^n entries of p along `axis`, one per basis state; else an EngineError naming p."""
    if (size := p.shape[axis]) < 2 or size & (size - 1):
        raise EngineError(f"distribution p of shape {p.shape} is not one probability per "
                          "basis state of a register (2^n entries)")
    return size.bit_length() - 1


@lru_cache(maxsize=8)
def _readout_channel(n_qubits, fidelity):
    """The bit-flip channel f^(n - d) (1 - f)^d, d the bits a ^ b; shared, read-only."""
    i = np.arange(2**n_qubits)
    flips = bit_table(n_qubits).sum(axis=-1)[i[:, None] ^ i]
    return read_only(fidelity ** (n_qubits - flips) * (1 - fidelity) ** flips)


def apply_readout_confusion(p, fidelity):
    """Symmetric per-qubit classical bit-flip channel on a distribution p (or p's columns)."""
    p = check_array(p, "p", EngineError, ndim=(1, 2))
    check_real(fidelity, "fidelity", EngineError, 0.5, 1)
    return _readout_channel(_register_of(p, 0), fidelity) @ p


def measurement_probabilities(state, noise):
    """Outcome distribution over basis states, with readout error when readout_fidelity < 1."""
    noise = _check_noise(noise)
    p = state.populations()
    p = p / p.sum()
    if noise.readout_fidelity < 1.0:
        p = apply_readout_confusion(p, noise.readout_fidelity)
    return p


def sample_counts(p, shots, rng):
    """Multinomial counts of `shots` draws (an int in 1..2^63-1) from a distribution p;
    rng must be a numpy Generator.

    p holds one probability per basis state of a register, 2^n entries, or is a stack
    of such distributions, one per row, drawn row by row in one call. An entry that is
    not finite or lies below -1e-12 is an error, and so is an all-zero row; rounding
    noise above -1e-12 is clipped to 0. Each row's clipped entries must sum to 1 within
    1e-9, and the row is divided by that sum before the draw.
    """
    check_int(shots, "shots", EngineError, 1, 2**63 - 1,
              f"shots must be an int in 1..2^63-1, got {shots!r}")
    if not isinstance(rng, np.random.Generator):
        raise EngineError(f"finite-shot sampling needs an explicit rng, a numpy Generator; "
                          f"got {rng!r}")
    p = check_array(p, "p", EngineError, ndim=(1, 2))
    _register_of(p, -1)
    bad = np.argwhere(p < -1e-12)
    if bad.size:
        raise EngineError(f"p{bad[0].tolist()} is {float(p[tuple(bad[0])])}; p must be >= -1e-12")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if not (total > 0).all():
        raise EngineError("distribution has no weight to sample from (every entry is 0)")
    off = total[~(abs(total - 1.0) <= 1e-9)]
    if off.size:
        raise EngineError(f"distribution sums to {off[0]:.12g}, not 1 within 1e-9")
    return rng.multinomial(shots, p / total)


def ramsey_program(qubit, duration, dd_pulses=0):
    """Conditional-precession probe on the three-qubit register, up to its analysis pulse.

    The probe's pi/2 pulse, then a wait that `dd_pulses` CPMG pulses decouple;
    spectator states are product inputs of `run_batch`, and `fringe_scan`
    reads the analysis pulse off the finished state.
    """
    return PulseProgram(3, [Rotate(qubit, np.pi / 2, 0.0), FreeEvolve(duration, dd_pulses)],
                        name=f"ramsey q{qubit} T={duration:.6g}")


def ramsey_scan(qubit, duration, phases, j, noise=None, spectator_bits=None, dd_pulses=0):
    """Bright-state probability of the probe qubit versus analysis phase.

    Spectators listed in `spectator_bits` (qubit -> 0/1) are prepared in that
    basis state, the rest in 0. One run of `ramsey_program` on that input, then
    `fringe_scan`: exact under any NoiseModel, as the pulse commutes with the
    end-of-run depolarizing mix.
    """
    if not isinstance(spectator_bits, (Mapping, type(None))):
        raise ProgramError(f"spectator_bits must map qubit to bit, got {spectator_bits!r}")
    label = ["0"] * 3
    for q, bit in (spectator_bits or {}).items():
        if q == qubit:
            raise ProgramError("probe qubit cannot be its own spectator")
        _check_qubit(q, 3)
        label[q] = str(check_int(bit, "bit", ProgramError, 0, 1,
                                 f"spectator qubit {q}: bit must be 0 or 1, got {bit!r}"))
    [res] = run_batch(ramsey_program(qubit, duration, dd_pulses), j, ["".join(label)], noise)
    return fringe_scan(res.state, qubit, phases)


def fringe_scan(state, qubit, phases):
    """Analysis-pulse scan on a finished state: P(bright) after R(pi/2, phi).

    With r the probe's reduced state, P(phi) = (r00 + r11)/2 + Im(e^{i phi} r01).
    `state` may also be a (2^n, 2^n, B) stack of finished states, slice b last as
    `run_batch` runs them; it gives one row of P per slice, (B, len(phases)), and
    each row holds the bits of that slice's own scan.
    """
    r = partial_trace(getattr(state, "rho", state), qubit)
    r = r[..., None] if r.ndim == 3 else r  # a stack: slice b's scan is row b
    phases = check_array(phases, "phases", EngineError, ndim=1)
    return (r[0, 0] + r[1, 1]).real / 2 + np.imag(np.exp(1j * phases) * r[0, 1])
