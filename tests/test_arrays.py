"""Fuzz of the entry points that take an array: states, unitaries, distributions, phases, J.

Every one of them reads its arrays by one rule, `gates.check_array`: numbers of the array's
kind, the dimensions the entry point takes, every entry finite; and then it checks the shape
it needs itself. Each entry point must either run to a finite result on a valid array or
raise its own layer's error naming the argument: never a bare exception, and never a warning
(an error under Tier-1's -W error). Hostile arrays are drawn on purpose: nan and +-inf at a
drawn entry, a string, None, a ragged list, the wrong number of dimensions and a shape that
does not fit.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix, random_distribution, random_product_ket
from magicforge.encoding import EncodingError, effective_couplings, topology_preset
from magicforge.engine import (
    EngineError,
    apply_readout_confusion,
    fringe_scan,
    partial_trace,
    prepare_state,
    run_program,
    sample_counts,
)
from magicforge.metrics import (
    MetricsError,
    distinguishability,
    equatorial_phase,
    factor_product_state,
    fidelity_via_local_rotation,
    process_fidelity,
    ramsey_fit,
    state_fidelity,
    statistical_overlap,
    total_variation,
)
from magicforge.program import FreeEvolve, PulseProgram, Rotate

PROGRAM = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(1e-3)])
PHASES = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
FIXED = np.random.default_rng(7)
RHO = random_density_matrix(FIXED, 8)
KET, FACTORS = random_product_ket(FIXED, 3)
P = random_distribution(FIXED, 8)
U = np.linalg.qr(random_density_matrix(FIXED, 4))[0]
STATE = prepare_state(3, RHO)


def seeded(build):
    """Valid arrays drawn by a seed: `build` takes a numpy Generator."""
    return st.integers(0, 2**32 - 1).map(lambda seed: build(np.random.default_rng(seed)))


def couplings(rng):
    j = rng.uniform(-1e3, 1e3, (3, 3))
    return np.triu(j, 1) + np.triu(j, 1).T


def qubit_ket(rng):  # with an equatorial component, so its azimuth is defined
    a, b = rng.uniform(0.1, np.pi / 2 - 0.1), rng.uniform(-np.pi, np.pi)
    return np.array([np.cos(a), np.exp(1j * b) * np.sin(a)])


rhos = seeded(lambda rng: random_density_matrix(rng, 8))
distributions = seeded(lambda rng: random_distribution(rng, 8))
phase_lists = st.floats(-10.0, 10.0).map(lambda offset: PHASES + offset)

# entry point: (its call on one drawn array, the valid draw, the array of the wrong number of
# dimensions and the array of a shape that does not fit, each made from a valid one (None:
# every shape fits), the layer's error, the argument its messages name)
ENTRY_POINTS = {
    "partial_trace.rho": (lambda a: partial_trace(a, 0), rhos, lambda a: a[0],
                          lambda a: a[:6, :6], EngineError, "rho"),
    "fringe_scan.phases": (lambda a: fringe_scan(STATE, 1, a), phase_lists,
                           lambda a: a[None], None, EngineError, "phases"),
    "apply_readout_confusion.p": (lambda a: apply_readout_confusion(a, 0.96), distributions,
                                  lambda a: a[None, None], lambda a: a[:6], EngineError, "p"),
    "sample_counts.p": (lambda a: sample_counts(a, 100, np.random.default_rng(1)),
                        distributions, lambda a: a[None, None], lambda a: a[:6] / a[:6].sum(),
                        EngineError, "p"),
    "run_program.j": (lambda a: run_program(PROGRAM, a).state.rho, seeded(couplings),
                      lambda a: a[0], lambda a: a[:2, :2], EngineError, "coupling"),
    "effective_couplings.j": (lambda a: effective_couplings(a, topology_preset("B")),
                              seeded(couplings), lambda a: a[0], lambda a: a[:2, :2],
                              EncodingError, "coupling"),
    "state_fidelity.state": (lambda a: state_fidelity(a, KET), rhos, lambda a: a[None, None],
                             lambda a: a[:4, :4], MetricsError, "state"),
    "state_fidelity.target": (lambda a: state_fidelity(RHO, a),
                              seeded(lambda rng: random_product_ket(rng, 3)[0]),
                              lambda a: a[None, None], lambda a: a[:4], MetricsError, "target"),
    "process_fidelity.u": (lambda a: process_fidelity(a, U),
                           seeded(lambda rng: np.linalg.qr(random_density_matrix(rng, 4))[0]),
                           lambda a: a[0], lambda a: a[:, :3], MetricsError, "u"),
    "statistical_overlap.q": (lambda a: statistical_overlap(P, a), distributions,
                              lambda a: a[None], lambda a: a[:3], MetricsError, "q"),
    "total_variation.p": (lambda a: total_variation(a, P), distributions, lambda a: a[None],
                          lambda a: a[:3], MetricsError, "p"),
    "distinguishability.q": (lambda a: distinguishability(P, a), distributions,
                             lambda a: a[None], lambda a: a[:3], MetricsError, "q"),
    "ramsey_fit.phases": (lambda a: ramsey_fit(a, 0.5 - 0.4 * np.cos(PHASES)).phase_err,
                          phase_lists, lambda a: a[None], lambda a: a[:5], MetricsError,
                          "phases"),
    "ramsey_fit.probs": (lambda a: ramsey_fit(PHASES, a).phase_err, distributions,
                         lambda a: a[None, None], lambda a: a[:5], MetricsError, "probs"),
    "equatorial_phase.state": (equatorial_phase, seeded(qubit_ket), lambda a: a[None, None],
                               lambda a: a[:1], MetricsError, "state"),
    "factor_product_state.vec": (lambda a: np.concatenate(factor_product_state(a)),
                                 seeded(lambda rng: random_product_ket(rng, 3)[0]),
                                 lambda a: a[None], lambda a: a[:6], MetricsError, "vec"),
    "fidelity_via_local_rotation.state": (lambda a: fidelity_via_local_rotation(a, FACTORS),
                                          rhos, lambda a: a[0], lambda a: a[:4, :4],
                                          MetricsError, "state"),
    "fidelity_via_local_rotation.target": (lambda a: fidelity_via_local_rotation(RHO, a),
                                           seeded(lambda rng: np.array(
                                               random_product_ket(rng, 3)[1])),
                                           lambda a: a[0], lambda a: a[:2], MetricsError,
                                           "target"),
}
KINDS = ["valid", "nan", "inf", "-inf", "string", "None", "ragged", "ndim", "shape"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_an_array_runs_or_is_named_by_its_layer(entry, data):
    call, valid, wrong_ndim, wrong_shape, error, field = ENTRY_POINTS[entry]
    a = data.draw(valid, label="valid")
    kind = data.draw(st.sampled_from(KINDS[:-1] if wrong_shape is None else KINDS), label="kind")
    if kind == "valid":
        assert np.isfinite(np.asarray(call(a), dtype=complex)).all()
        return
    if kind in ("nan", "inf", "-inf"):
        value = a.copy()
        value.flat[data.draw(st.integers(0, a.size - 1), label="entry")] = float(kind)
    elif kind == "ndim":
        value = wrong_ndim(a)
    elif kind == "shape":
        value = wrong_shape(a)
    else:
        value = {"string": "x", "None": None, "ragged": [[0.5], [0.5, 0.5]]}[kind]
    with pytest.raises(Exception) as caught:
        call(value)
    message = str(caught.value)
    assert type(caught.value) is error and re.search(rf"\b{field}\b", message), message
