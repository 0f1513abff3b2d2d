import ctypes
import functools

import numpy as np
import pytest
from hypothesis import settings

from magicforge import calibrated_couplings
from magicforge.engine import dd_fragment
from magicforge.gates import (
    ID2,
    bit_table,
    free_phases,
    phase_2x2,
    relabel_index,
    rotation_2x2,
    z_eigenvalues,
)
from magicforge.program import (
    MF,
    Echo,
    FreeEvolve,
    PhaseShift,
    PulseProgram,
    Rotate,
    TransferBasis,
)

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# property failure in CI reproduces; local runs keep the default random profile.
settings.register_profile("ci", derandomize=True)


@functools.cache
def _openblas_core():
    """Name of the kernel set numpy's OpenBLAS runs on, e.g. "SkylakeX" or "Haswell".

    numpy's OpenBLAS is built DYNAMIC_ARCH: it picks its kernels by the CPU at
    load time (or by OPENBLAS_CORETYPE), and the kernels round differently.
    """
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        # numpy's wheels prefix the OpenBLAS symbols; a system OpenBLAS does not
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def _numpy_simd_tier():
    """The highest x86-64 tier numpy's own SIMD loops dispatch to, "X86_V2", "X86_V3" or
    "X86_V4", read as numpy.show_runtime() reads it; NPY_DISABLE_CPU_FEATURES lowers it."""
    from numpy._core._multiarray_umath import __cpu_features__
    return next((t for t in ("X86_V4", "X86_V3", "X86_V2") if __cpu_features__.get(t)), "unknown")


def kernel_pin(pins):
    """The value pinned for the running OpenBLAS kernel set, out of {core name: value}.

    Use it only for a value that depends on the BLAS kernels alone. A value that numpy's
    own SIMD tier (X86_V2, X86_V3 or X86_V4) also moves is not keyed by the core: pin
    what the (tier, core) pairs that real CPUs run print, as tests/test_demos.py does for
    demo 04. An unpinned core fails the test, naming itself.
    """
    core = _openblas_core()
    if core not in pins:
        pytest.fail(f"no value pinned for OpenBLAS core {core!r} (pinned: {', '.join(pins)})")
    return pins[core]


@pytest.fixture
def bench_j():
    """Coupling matrix calibrated to the benchmark schedule (rad/s)."""
    return calibrated_couplings()


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_pure_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, dim, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def embed(op2, qubit, n_qubits):
    """Lift a single-qubit operator onto qubit `qubit` of an n-qubit register.

    Dense 2^n x 2^n; the engine never builds it, tests use it as the reference.
    """
    out = np.array([[1.0 + 0.0j]])
    for k in range(n_qubits):
        out = np.kron(out, op2 if k == qubit else ID2)
    return out


def free_unitary(j, duration):
    """Dense diagonal unitary of one free-evolution window."""
    return np.diag(np.exp(1j * free_phases(j, duration)))


def selective_recoupling_wrap(duration, echo_qubit):
    """Three-qubit window with a mid-window echo that cancels every coupling to one spin.

    [T/2, pi on k, T/2, pi on k]: the pi pair flips the sign of each zz term
    involving qubit k for the second half, so those phases cancel while the
    rest accumulate the full duration. The trailing pi restores k's frame.
    """
    return PulseProgram(3, [FreeEvolve(duration / 2), Rotate(echo_qubit, np.pi, 0.0),
                            FreeEvolve(duration / 2), Rotate(echo_qubit, np.pi, 0.0)])


def label_pulses(label):
    """Pulses preparing the product input `label` over {0, 1, +} from |0...0>, built here
    so the stacked-run oracles do not take the engine's own preparation."""
    pulses = {"0": [], "1": [(np.pi, 0.0)], "+": [(np.pi / 2, np.pi / 2)]}
    return [Rotate(q, *pulse) for q, ch in enumerate(label) for pulse in pulses[ch]]


def random_distribution(rng, dim):
    p = rng.random(dim)
    return p / p.sum()


def random_product_ket(rng, n_qubits):
    factors = []
    out = np.array([1.0 + 0j])
    for _ in range(n_qubits):
        f = random_pure_state(rng, 2)
        factors.append(f)
        out = np.kron(out, f)
    return out, factors


def _local(a, op, qubit):
    return np.matmul(op, a.reshape(a.shape[:-2] + (2**qubit, 2, -1))).reshape(a.shape)


def reference_steps(instructions, n_qubits, j, rho, time, noise, pulse_duration, dtype=complex):
    """Allocating step loop: the oracle the engine's in-place steps must match bit for bit.

    Applies `instructions` to a stack rho[b] from sigma-, with decoupled windows
    expanded by `dd_fragment`. Every step makes fresh arrays: a pulse is two
    out-of-place local products, each followed by a transposed copy; a window
    multiplies by its phase factor and then by a damp summed over a (2^n, 2^n, n)
    mask of differing bits. Returns (rho, time, bases).

    With dtype np.clongdouble every step runs in long double (the 80-bit extended type on
    x86-64 Linux, eps 1.08e-19) from the float64 numbers the program, J and the noise model
    hold: a reference about 2000 times finer than the engine that no BLAS or LAPACK call
    rounds (numpy's matmul takes long doubles in its own loop). Pass rho in that dtype.
    """
    real = np.finfo(dtype).dtype.type  # float64, or longdouble
    bases = ["sigma-"] * n_qubits
    bits = bit_table(n_qubits)
    differs = bits[:, None, :] != bits[None, :, :]
    z = z_eigenvalues(n_qubits).astype(real)

    def dephase(rho, duration):
        if not (duration > 0 and (noise.sigma_dephasing_rate or noise.pi_dephasing_rate)):
            return rho
        rates = np.array([noise.rate_for(b) for b in bases], dtype=real)
        return rho * np.exp(-real(duration) * (differs * rates).sum(axis=-1))

    def window_phases(j, duration):  # T/2 sum_{i<k} J_ik z_i z_k, as gates.free_phases
        expo = np.zeros(2**n_qubits, dtype=real)
        for a in range(n_qubits):
            for b in range(a + 1, n_qubits):
                expo += j[a, b] * z[:, a] * z[:, b]
        return real(duration) / real(2.0) * expo

    expanded = []
    for ins in instructions:
        if isinstance(ins, FreeEvolve) and ins.dd_pulses:
            expanded.extend(dd_fragment(ins.duration, ins.dd_pulses, ins.dd_scheme,
                                        n_qubits).instructions)
        else:
            expanded.append(ins)
    for ins in expanded:
        if isinstance(ins, (Rotate, Echo, PhaseShift)):
            op = (phase_2x2(real(ins.phi)) if isinstance(ins, PhaseShift) else
                  rotation_2x2(real(getattr(ins, "theta", np.pi)), real(ins.phi)))
            rho = np.ascontiguousarray(np.swapaxes(_local(rho, op, ins.qubit), -1, -2))
            rho = np.ascontiguousarray(np.swapaxes(_local(rho, op.conj(), ins.qubit), -1, -2))
            if pulse_duration > 0 and not isinstance(ins, PhaseShift):
                rho = dephase(rho, pulse_duration)
                time = time + pulse_duration
        elif isinstance(ins, FreeEvolve):
            s = np.array([-MF[b] for b in bases], dtype=real)
            u = np.exp(1j * window_phases(j.astype(real) * np.outer(s, s), ins.duration))
            rho = dephase(rho * np.outer(u, u.conj()), ins.duration)
            time = time + ins.duration
        elif isinstance(ins, TransferBasis):
            for q in range(n_qubits) if ins.qubit == "all" else [ins.qubit]:
                bases[q] = ins.target
    return rho, time, tuple(bases)


def reference_run(program, j, rho, time, noise, pulse_duration, dtype=complex):
    """`reference_steps`, then the relabeling and the depolarizing mix, in `dtype`."""
    n = program.n_qubits
    rho, time, bases = reference_steps(program.instructions, n, j, rho, time, noise,
                                       pulse_duration, dtype)
    if program.relabel is not None:
        i = relabel_index(program.relabel)
        rho = rho[..., i[:, None], i]
        bases = tuple(bases[q] for q in program.relabel)
    if noise.white_noise_fraction > 0:
        zeta = np.finfo(dtype).dtype.type(noise.white_noise_fraction)
        rho = zeta * np.eye(2**n) / 2**n + (1 - zeta) * rho
    return rho, time, bases


def reference_probabilities(rho, noise):
    """Outcome distribution of each slice of a stack rho[b], in rho's precision: the clipped
    diagonal, normalized, through the readout channel written as n per-qubit bit flips
    [[f, 1 - f], [1 - f, f]] combined by Kronecker products."""
    n = rho.shape[-1].bit_length() - 1
    p = np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0, None)
    p = p / p.sum(axis=-1, keepdims=True)
    f = p.dtype.type(noise.readout_fidelity)
    return p @ functools.reduce(np.kron, [np.array([[f, 1 - f], [1 - f, f]])] * n, np.ones((1, 1)))
