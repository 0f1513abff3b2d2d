import numpy as np
import pytest
from hypothesis import settings

from magicforge import calibrated_couplings
from magicforge.gates import ID2, free_phases
from magicforge.program import FreeEvolve, PulseProgram, Rotate

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# property failure in CI reproduces; local runs keep the default random profile.
settings.register_profile("ci", derandomize=True)


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


def free_unitary(j, duration, n_qubits):
    """Dense diagonal unitary of one free-evolution window."""
    return np.diag(np.exp(1j * free_phases(j, duration, n_qubits)))


def selective_recoupling_wrap(duration, echo_qubit):
    """Three-qubit window with a mid-window echo that cancels every coupling to one spin.

    [T/2, pi on k, T/2, pi on k]: the pi pair flips the sign of each zz term
    involving qubit k for the second half, so those phases cancel while the
    rest accumulate the full duration. The trailing pi restores k's frame.
    """
    return PulseProgram(3, [FreeEvolve(duration / 2), Rotate(echo_qubit, np.pi, 0.0),
                            FreeEvolve(duration / 2), Rotate(echo_qubit, np.pi, 0.0)])


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
