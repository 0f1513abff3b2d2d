"""Qubit encodings and interaction topology shaping.

Each spin can be housed in one of three two-level encodings of the ground
hyperfine manifold, labelled by the magnetic character of its bright level:
sigma- (m_F = -1), sigma+ (m_F = +1) and pi (m_F = 0). The gradient couples
only to the magnetic levels, so the effective Ising coupling between qubits i
and j is

    J_eff[i, j] = m_i * m_j * J[i, j]

with m in {-1, +1, 0} and J calibrated in sigma- (`effective_couplings`, whose
rule the engine's windows follow). Moving a qubit to pi switches off all its
couplings; flipping sigma- to sigma+ inverts their sign. Transfers between
encodings are composite microwave pulse blocks that permute level populations;
at the logical two-level model used here a transfer is an identity with
metadata (dephasing rate, coupling sensitivity) attached.
"""

from dataclasses import dataclass

import numpy as np

from .gates import check_couplings
from .program import (
    BASIS_PI,
    BASIS_SIGMA_MINUS,
    BASIS_SIGMA_PLUS,
    MF,
    Echo,
    FreeEvolve,
    PulseProgram,
    TransferBasis,
    check_bases,
)


class EncodingError(ValueError):
    pass


# The text symbol of each encoding, as `parse_topology` reads it and `str` writes it.
_SYMBOLS = {BASIS_SIGMA_MINUS: "-", BASIS_SIGMA_PLUS: "+", BASIS_PI: "0"}


@dataclass
class TopologyAssignment:
    bases: tuple

    def __post_init__(self):
        self.bases = check_bases(self.bases, EncodingError)

    def __str__(self):
        return ",".join(_SYMBOLS[b] for b in self.bases)


def parse_topology(text):
    """A preset letter (see `topology_preset`) or a per-qubit list like '-,+,0'."""
    if not isinstance(text, str) or text.strip().upper() in _PRESETS:
        return topology_preset(text)
    bases = {sym: basis for basis, sym in _SYMBOLS.items()}
    try:
        return TopologyAssignment(tuple(bases[tok.strip()] for tok in text.split(",")))
    except KeyError as exc:
        raise EncodingError(f"bad topology token {exc.args[0]!r}; use -, + or 0") from None


# Encodings of ions 0, 1, 2 in each named preset.
_PRESETS = {
    "A": (BASIS_SIGMA_MINUS,) * 3,
    "B": (BASIS_SIGMA_MINUS, BASIS_SIGMA_PLUS, BASIS_SIGMA_MINUS),
    "C": (BASIS_SIGMA_PLUS, BASIS_SIGMA_MINUS, BASIS_SIGMA_MINUS),
    "D": (BASIS_SIGMA_MINUS, BASIS_PI, BASIS_SIGMA_MINUS),
    "E": (BASIS_PI,) * 3,
}


def topology_preset(label):
    """Named interaction patterns for a three-spin chain.

    A: uniform sigma- (all couplings antiferromagnetic-sign),
    B: the middle ion flipped to sigma+ -> mixed signs,
    C: edge ion 0 flipped to sigma+,
    D: middle ion moved to pi -> only the edge-edge coupling survives,
    E: all ions in pi -> fully decoupled memory configuration.
    """
    if not (isinstance(label, str) and label.strip().upper() in _PRESETS):
        raise EncodingError(f"unknown topology preset {label!r}")
    return TopologyAssignment(_PRESETS[label.strip().upper()])


def effective_couplings(j, topology):
    """The couplings m_i m_j J_ij under a TopologyAssignment, J calibrated in sigma- and checked
    by `check_couplings`, by the one encoding rule (`_encoded`)."""
    return _encoded(check_couplings(j, len(topology.bases), EncodingError), topology.bases)


def _encoded(j, bases):
    """m_i m_j J_ij under the encodings `bases`, J unchecked: the engine's windows read it too."""
    m = np.array([MF[b] for b in bases])  # ints: for J >= 0 a parked qubit's couplings are +0.0
    return j * np.outer(m, m)


def decoupled_memory_fragment(qubit, total_duration):
    """Storage protocol on the three-qubit register: park a sigma- qubit in pi, echo mid-time.

    Two storage windows of total_duration/2 each; the qubit is brought back to
    sigma- halfway for a single echo pulse on the perpendicular axis (phase
    pi/2), then parked again. Four transfer blocks and one echo in total.
    """
    half = total_duration / 2.0
    return PulseProgram(n_qubits=3, name=f"decoupled memory q{qubit}", instructions=[
        TransferBasis(qubit, BASIS_PI), FreeEvolve(half),
        TransferBasis(qubit, BASIS_SIGMA_MINUS), Echo(qubit),
        TransferBasis(qubit, BASIS_PI), FreeEvolve(half),
        TransferBasis(qubit, BASIS_SIGMA_MINUS)])
