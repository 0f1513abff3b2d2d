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
from magicforge.program import BASIS_PI, BASIS_SIGMA_MINUS, BASIS_SIGMA_PLUS, Echo, FreeEvolve


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


def test_effective_couplings_use_magnitudes(base_j):
    shaped = effective_couplings(-base_j, topology_preset("A"))
    assert shaped == pytest.approx(base_j)


def test_parse_topology_round_trips():
    assignment = parse_topology(" -, +, 0 ")
    assert assignment.bases == (BASIS_SIGMA_MINUS, BASIS_SIGMA_PLUS, BASIS_PI)
    assert str(assignment) == "-,+,0"
    assert assignment.mf.tolist() == [-1, 1, 0]
    with pytest.raises(EncodingError):
        parse_topology("-,x,0")


def test_assignment_validates_bases():
    with pytest.raises(EncodingError):
        TopologyAssignment(("sigma-", "nope", "pi"))


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
