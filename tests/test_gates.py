import itertools

import numpy as np
import pytest

from conftest import embed, free_unitary
from magicforge.chain import CouplingMatrix, load_couplings
from magicforge.encoding import _encoded
from magicforge.engine import (
    EngineError,
    product_input_ket,
    program_unitary,
    run_batch,
    run_program,
)
from magicforge.gates import (
    SX,
    SY,
    SZ,
    bit_table,
    free_phases,
    phase_2x2,
    product_ket,
    relabel_index,
    rotation_2x2,
    z_eigenvalues,
)
from magicforge.program import BASIS_PI, BASIS_SIGMA_MINUS, BASIS_SIGMA_PLUS, PulseProgram, Rotate
from magicforge.qft import CompilerError, compile_qft


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
    assert np.allclose(free_unitary(j, t), expm_herm(t / 2 * h), atol=1e-12)


def test_free_phases_is_the_pair_loop_bit_for_bit():
    # free_phases folds the pair terms from 0.0 in row order in one np.add.accumulate; this
    # loop is the sum it folds, kept as the oracle. Under encodings with parked (m = 0) and
    # flipped qubits the terms include +-0.0, and a basis state whose terms are all -0.0
    # sums to +0.0 only because the fold starts at +0.0
    rng = np.random.default_rng(20261020)
    all_negative_zero = 0
    for n in range(2, 11):
        for _ in range(6):
            j = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-4, 5)
            j = np.triu(np.where(rng.random((n, n)) < 0.2, 0.0, j), 1)  # some exact zeros
            bases = tuple(rng.choice([BASIS_SIGMA_MINUS, BASIS_PI, BASIS_SIGMA_PLUS], size=n))
            j = _encoded(j + j.T, bases)
            z = z_eigenvalues(n)
            expo = np.zeros(2**n)
            terms = []
            for a, b in zip(*np.triu_indices(n, 1)):
                terms.append(j[a, b] * z[:, a] * z[:, b])
                expo += terms[-1]
            all_negative_zero += np.all((np.array(terms) == 0) & np.signbit(terms), axis=0).sum()
            for t in (2.0, 1e-3, rng.uniform(1e-6, 1e-2), -rng.uniform(1e-6, 1e-2)):
                want = t / 2.0 * expo
                assert free_phases(j, t).view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert all_negative_zero > 0


def test_relabel_index_relabels_kets():
    # slot k of the relabeled ket holds the bit of qubit perm[k]
    for perm in itertools.permutations(range(3)):
        i = relabel_index(perm)
        assert sorted(i) == list(range(8))
        for label in map("".join, itertools.product("01", repeat=3)):
            moved = "".join(label[q] for q in perm)
            assert np.array_equal(product_input_ket(label)[i], product_input_ket(moved))


def test_product_ket_matches_kron():
    a = np.array([1.0, 2.0j]) / np.sqrt(5)
    b = np.array([0.6, 0.8])
    assert np.allclose(product_ket([a, b]), np.kron(a, b), atol=1e-15)


def test_ket_rejects_bad_labels():
    with pytest.raises(ValueError, match="bad preparation label '01x'"):
        product_input_ket("01x")


def test_every_entry_point_rejects_an_asymmetric_coupling(bench_j, tmp_path):
    # the lower triangle off by 1e-3 rad/s, well inside numpy's default allclose
    j = bench_j.copy()
    j[2, 1] += 1e-3
    path = tmp_path / "j.txt"
    np.savetxt(path, j)
    named = r"coupling J\[1, 2\] = .* but J\[2, 1\] = "
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0)])
    for error, call in ((EngineError, lambda: run_program(prog, j)),
                        (EngineError, lambda: run_batch(prog, j, ["000"])),
                        (EngineError, lambda: program_unitary(prog, j)),
                        (CompilerError, lambda: compile_qft(j)),
                        (ValueError, lambda: CouplingMatrix(j=j)),
                        (ValueError, lambda: load_couplings(path))):
        with pytest.raises(error, match=named):
            call()
    # rounding-level asymmetry, far inside 1e-9 max|J|, still passes
    j[2, 1] = bench_j[2, 1] * (1 + 1e-13)
    program_unitary(prog, j)
    assert CouplingMatrix(j=j).j[2, 1] == j[2, 1]


def test_bit_tables_are_cached_read_only():
    for table in (bit_table(3), z_eigenvalues(3)):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
    assert bit_table(4) is bit_table(4)
    assert z_eigenvalues(4) is z_eigenvalues(4)
