import numpy as np
import pytest

from magicforge.encoding import (
    EncodingError,
    TopologyAssignment,
    decoupled_memory_fragment,
    effective_couplings,
    parse_topology,
    topology_preset,
)
from magicforge.engine import program_unitary
from magicforge.gates import free_phases
from magicforge.program import (
    BASIS_PI,
    BASIS_SIGMA_MINUS,
    BASIS_SIGMA_PLUS,
    Echo,
    FreeEvolve,
    PulseProgram,
    TransferBasis,
)


@pytest.fixture
def base_j():
    j = np.array([[0.0, 3.0, 2.0], [3.0, 0.0, 5.0], [2.0, 5.0, 0.0]])
    return j


def signs(j):
    return np.sign(j).astype(int)


def test_preset_sign_patterns(base_j):
    # A: uniform working basis, all couplings keep their magnitude sign
    assert signs(effective_couplings(base_j, topology_preset("A"))).tolist() == [
        [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    # B: middle ion flipped -> both couplings to it change sign
    assert signs(effective_couplings(base_j, topology_preset("B"))).tolist() == [
        [0, -1, 1], [-1, 0, -1], [1, -1, 0]]
    # C: edge ion flipped -> its two couplings change sign
    assert signs(effective_couplings(base_j, topology_preset("C"))).tolist() == [
        [0, -1, -1], [-1, 0, 1], [-1, 1, 0]]
    # D: middle ion parked -> only the edge-edge coupling survives
    assert signs(effective_couplings(base_j, topology_preset("D"))).tolist() == [
        [0, 0, 1], [0, 0, 0], [1, 0, 0]]
    # E: everything parked -> no couplings at all
    assert np.all(effective_couplings(base_j, topology_preset("E")) == 0.0)


def test_effective_couplings_are_the_engines_windows(base_j):
    # J keeps its calibrated sign: J_ij m_i m_j, the rule a run's windows follow, so a
    # negative J01 with qubit 1 in sigma+ is a positive coupling in both
    j = -100.0 * base_j
    assert np.array_equal(effective_couplings(j, topology_preset("A")), j)
    flip = PulseProgram(3, [TransferBasis(1, BASIS_PI), TransferBasis(1, BASIS_SIGMA_PLUS),
                            FreeEvolve(1e-3)])
    shaped = effective_couplings(j, topology_preset("B"))
    assert shaped[0, 1] == 300.0
    want = np.exp(1j * free_phases(shaped, 1e-3, 3))
    assert np.abs(program_unitary(flip, j) - np.diag(want)).max() <= 1e-12
    with pytest.raises(EncodingError, match=r"coupling J\[0, 1\] is nan"):
        effective_couplings(np.where(np.eye(3) == 0, np.nan, j), topology_preset("A"))


def test_parse_topology_round_trips():
    assignment = parse_topology(" -, +, 0 ")
    assert assignment.bases == (BASIS_SIGMA_MINUS, BASIS_SIGMA_PLUS, BASIS_PI)
    assert str(assignment) == "-,+,0"
    shaped = effective_couplings(1.0 - np.eye(3), assignment)
    assert shaped.tolist() == [[0, -1, 0], [-1, 0, 0], [0, 0, 0]]  # m_F = -1, +1, 0
    for label in "ABCDE":  # a preset letter reads as its assignment, in either case
        preset = topology_preset(label)
        assert parse_topology(f" {label.lower()} ") == preset == parse_topology(str(preset))
    with pytest.raises(EncodingError, match="bad topology token 'x'"):
        parse_topology("-,x,0")
    with pytest.raises(EncodingError, match="bad topology token 'F'"):
        parse_topology("F")
    # not a string: an EncodingError, not a bare AttributeError
    for read in (parse_topology, topology_preset):
        with pytest.raises(EncodingError, match="unknown topology preset 3"):
            read(3)


def test_assignment_validates_bases():
    with pytest.raises(EncodingError):
        TopologyAssignment(("sigma-", "nope", "pi"))
    # a string is one basis name, not a sequence of them (it read as "unknown basis 'p'")
    with pytest.raises(EncodingError, match="bases must be a tuple of encodings, got 'pi'"):
        TopologyAssignment("pi")


def test_assignment_length_must_match_matrix(base_j):
    with pytest.raises(EncodingError):
        effective_couplings(base_j, parse_topology("-,-"))


def test_decoupled_memory_fragment_structure():
    frag = decoupled_memory_fragment(1, 8e-3)
    echoes = [ins for ins in frag.instructions if isinstance(ins, Echo)]
    waits = [ins for ins in frag.instructions if isinstance(ins, FreeEvolve)]
    assert len(echoes) == 1 and echoes[0].qubit == 1
    assert echoes[0].phi == pytest.approx(np.pi / 2)
    assert [w.duration for w in waits] == pytest.approx([4e-3, 4e-3])
    assert frag.duration == pytest.approx(8e-3)
    # four transfers: park, fetch, park, fetch
    transfers = [ins for ins in frag.instructions if ins.__class__.__name__ == "TransferBasis"]
    assert [t.target for t in transfers] == [BASIS_PI, BASIS_SIGMA_MINUS, BASIS_PI, BASIS_SIGMA_MINUS]
