import numpy as np
import pytest

from conftest import free_unitary
from magicforge.engine import _bit_differs
from magicforge.gates import (
    SX,
    SY,
    SZ,
    bit_table,
    embed,
    ket,
    permutation_matrix,
    phase_2x2,
    product_ket,
    rotation_2x2,
    z_eigenvalues,
)


def expm_herm(h):
    """exp(i h) for Hermitian h via its eigendecomposition; oracle for gate tests."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def test_rotation_matches_matrix_exponential():
    rng = np.random.default_rng(3)
    for theta, phi in rng.uniform(-2 * np.pi, 2 * np.pi, size=(25, 2)):
        axis = np.cos(phi) * SX + np.sin(phi) * SY
        assert np.allclose(rotation_2x2(theta, phi), expm_herm(-theta / 2 * axis), atol=1e-12)


def test_rotation_special_cases():
    # R(pi, 0) = -i sigma_x; R(pi/2, -pi/2) sends |0> to (|0> - |1>)/sqrt2
    assert np.allclose(rotation_2x2(np.pi, 0.0), -1j * SX, atol=1e-12)
    out = rotation_2x2(np.pi / 2, -np.pi / 2) @ np.array([1.0, 0.0])
    assert np.allclose(out, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


def test_phase_shift_convention():
    phi = 0.37
    assert np.allclose(phase_2x2(phi), expm_herm(-phi * SZ), atol=1e-13)


def test_hadamard_composition():
    # H = i R(pi/2, -pi/2) R(pi, 0) up to the stated global factor
    h = 1j * (rotation_2x2(np.pi / 2, -np.pi / 2) @ rotation_2x2(np.pi, 0.0))
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


def test_qubit_zero_is_most_significant_bit():
    table = bit_table(3)
    assert table[0b100].tolist() == [1, 0, 0]
    assert table[0b001].tolist() == [0, 0, 1]
    # embedding acts on the matching tensor slot
    x0 = embed(SX, 0, 3)
    e = np.zeros(8)
    e[0b000] = 1.0
    assert np.argmax(np.abs(x0 @ e)) == 0b100


def test_free_unitary_matches_pairwise_sum():
    rng = np.random.default_rng(5)
    j = rng.normal(size=(3, 3))
    j = (j + j.T) / 2
    np.fill_diagonal(j, 0.0)
    t = 1.7e-3
    h = np.zeros((8, 8), dtype=complex)
    for a in range(3):
        for b in range(a + 1, 3):
            h += j[a, b] * (embed(SZ, a, 3) @ embed(SZ, b, 3))
    assert np.allclose(free_unitary(j, t, 3), expm_herm(t / 2 * h), atol=1e-12)


def test_permutation_matrix_relabels_kets():
    perm = (2, 1, 0)
    p = permutation_matrix(perm)
    psi = ket("011")
    assert np.allclose(p @ psi, ket("110"), atol=1e-15)
    assert np.allclose(p @ p.T, np.eye(8), atol=1e-15)


def test_product_ket_matches_kron():
    a = np.array([1.0, 2.0j]) / np.sqrt(5)
    b = np.array([0.6, 0.8])
    assert np.allclose(product_ket([a, b]), np.kron(a, b), atol=1e-15)


def test_ket_rejects_bad_labels():
    with pytest.raises(ValueError):
        ket("01x")


def test_bit_tables_are_cached_read_only():
    for table in (bit_table(3), z_eigenvalues(3), _bit_differs(3)):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
    assert bit_table(4) is bit_table(4)
    assert z_eigenvalues(4) is z_eigenvalues(4)
