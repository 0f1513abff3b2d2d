"""Single- and multi-qubit gate primitives shared by the engine, compiler and metrics.

Conventions used everywhere in this package:

* computational basis order (|0>, |1>) with sigma_z = diag(1, -1),
* qubit 0 is the most significant bit of a basis-state index,
* R(theta, phi) = exp(-i theta/2 (sigma_x cos phi + sigma_y sin phi)),
* PH(phi)       = exp(-i phi sigma_z),
* free evolution U(T) = exp(+i T/2 sum_{i<j} J_ij sigma_z^i sigma_z^j).
"""

from functools import cache

import numpy as np

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def rotation_2x2(theta, phi):
    """Equatorial-axis rotation exp(-i theta/2 (sx cos phi + sy sin phi))."""
    axis = np.cos(phi) * SX + np.sin(phi) * SY
    return np.cos(theta / 2) * ID2 - 1j * np.sin(theta / 2) * axis


def phase_2x2(phi):
    """Z phase gate exp(-i phi sigma_z)."""
    return np.diag([np.exp(-1j * phi), np.exp(1j * phi)])


def embed(op2, qubit, n_qubits):
    """Lift a single-qubit operator onto qubit `qubit` of an n-qubit register.

    Dense 2^n x 2^n; the engine never builds it, tests use it as the reference.
    """
    out = np.array([[1.0 + 0.0j]])
    for k in range(n_qubits):
        out = np.kron(out, op2 if k == qubit else ID2)
    return out


@cache
def bit_table(n_qubits):
    """(2^n, n) array of bits; column k is the bit of qubit k (qubit 0 = MSB); shared, read-only."""
    dim = 2**n_qubits
    idx = np.arange(dim)
    table = np.array([(idx >> (n_qubits - 1 - k)) & 1 for k in range(n_qubits)]).T
    table.setflags(write=False)
    return table


@cache
def z_eigenvalues(n_qubits):
    """(2^n, n) array of sigma_z eigenvalues (+1 for bit 0, -1 for bit 1); shared, read-only."""
    z = 1.0 - 2.0 * bit_table(n_qubits)
    z.setflags(write=False)
    return z


def free_phases(j, duration, n_qubits):
    """Diagonal phase angles T/2 * sum_{i<j} J_ij z_i z_j for each basis state."""
    z = z_eigenvalues(n_qubits)
    expo = np.zeros(2**n_qubits)
    for i in range(n_qubits):
        for k in range(i + 1, n_qubits):
            expo += j[i, k] * z[:, i] * z[:, k]
    return duration / 2.0 * expo


def check_finite_couplings(j, error):
    """Raise `error` naming the first non-finite entry of the coupling matrix `j`."""
    bad = np.argwhere(~np.isfinite(j))
    if bad.size:
        a, b = bad[0]
        raise error(f"coupling J[{a}, {b}] must be finite, got {j[a, b]}")


def permutation_matrix(perm):
    """Matrix P with P|q_0 q_1 ...> = |q_perm(0) q_perm(1) ...> on basis indices.

    `perm` lists, for each output qubit slot, which input qubit lands there.
    """
    n = len(perm)
    dim = 2**n
    p = np.zeros((dim, dim))
    bits = bit_table(n)
    for src in range(dim):
        dst_bits = bits[src][list(perm)]
        dst = 0
        for b in dst_bits:
            dst = (dst << 1) | int(b)
        p[dst, src] = 1.0
    return p


def ket(bits_string):
    """Basis ket |b0 b1 ...> as a dense vector, qubit 0 first (MSB)."""
    n = len(bits_string)
    idx = int(bits_string, 2)
    v = np.zeros(2**n, dtype=complex)
    v[idx] = 1.0
    return v


def product_ket(single_kets):
    out = np.array([1.0 + 0.0j])
    for s in single_kets:
        out = np.kron(out, np.asarray(s, dtype=complex))
    return out
