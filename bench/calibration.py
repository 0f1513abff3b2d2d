"""Calibration kernels: fixed work of the same kind as each workload's op.

On a shared host the core's speed drifts as other tenants load it, and the
drift slows interpreted loops, small-matrix calls and batched array math by
different amounts. Each workload therefore times a kernel shaped like its
own op, written here and not calling the package, right before and after
every op, and run.py reports op times scaled to a core on which the kernel
takes the workload's reference time. A change to the package cannot change
these kernels, so the scaling is the same on every commit.
"""

import numpy as np


def lattice():
    """One damped Gauss-Newton step on a 16^3 start lattice of three unknowns,
    the shape of the transform compiler's window solver."""
    pts = (np.arange(16) + 0.5) / 16 * 2 * np.pi
    start = np.stack(np.meshgrid(pts, pts, pts, indexing="ij"), axis=-1).reshape(-1, 3)
    ridge = 1e-3 * np.eye(3)

    def kernel():
        x = np.exp(1j * start[:, 0])
        s1, c1 = np.sin(start[:, 1] / 2), np.cos(start[:, 1] / 2)
        s2, c2 = np.sin(start[:, 2] / 2), np.cos(start[:, 2] / 2)
        f1 = x / np.sqrt(2) - s1 * s2 * x * x + c1 * c2
        f2 = x / np.sqrt(2) - s1 * c2 * x * x - c1 * s2
        res = np.stack([f1.real, f1.imag, f2.real, f2.imag], axis=-1)
        jac = np.stack([res, 0.5 * res + 1.0, res * res], axis=-1)
        jtj = np.einsum("mri,mrk->mik", jac, jac) + ridge
        jtr = np.einsum("mri,mr->mi", jac, res)
        return start - 0.1 * np.linalg.solve(jtj, jtr[..., None])[..., 0]

    return kernel


def _embedded_gates(n_qubits, repeats):
    """Kron-embedded single-qubit gates applied to a 2^n density matrix."""
    rng = np.random.default_rng(0)
    dim = 2**n_qubits
    a = rng.random((dim, dim)) + 1j * rng.random((dim, dim))
    rho = a @ a.conj().T
    gate = np.array([[np.cos(0.3), -1j * np.sin(0.3)], [-1j * np.sin(0.3), np.cos(0.3)]])
    phases = np.exp(1j * 0.1 * np.arange(dim))

    def kernel():
        out = rho
        for r in range(repeats):
            u = np.ones((1, 1), dtype=complex)
            for k in range(n_qubits):
                u = np.kron(u, gate if k == r % n_qubits else np.eye(2))
            out = u @ out @ u.conj().T
            out = out * np.outer(phases, phases.conj())
        return out

    return kernel


def register():
    """Gates on a 6-qubit density matrix, like the wide-register programs."""
    return _embedded_gates(6, 6)


def scaled_chain():
    """Pairwise Coulomb gradient of a 30-ion chain in numpy scalars plus a
    30 x 30 eigensolve, like the chain layer."""
    u = np.linspace(-3.0, 3.0, 30)

    def kernel():
        g = u.copy()
        for k in range(len(u)):
            for m in range(len(u)):
                if m != k:
                    d = u[k] - u[m]
                    g[k] -= np.sign(d) / d**2
        return np.linalg.eigh(np.outer(g, g) + np.eye(len(u)))

    return kernel


def scenarios():
    """3-qubit gate sequences plus a solver lattice step, the mix of run_all."""
    gates = _embedded_gates(3, 40)
    solver = lattice()

    def kernel():
        gates()
        return solver()

    return kernel
