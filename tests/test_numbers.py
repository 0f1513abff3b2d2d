"""Fuzz of the entry points that take a number: counts, angles, durations, rates, shots, seeds.

Every one of them reads its numbers by one rule, `gates.check_int` or `gates.check_real`.
An int is an int, numpy's included, but never a bool; a real is finite. Each entry point
must either run on a valid number or raise its own layer's error naming the field: never a
bare exception, and never a warning (an error under Tier-1's -W error). Hostile values are
drawn on purpose: bools (Python's and numpy's), a numeric string, None, nan, +-inf, 1e308,
-0.0, 2**63, 10**400 (past the largest float), 5e-324 (the least subnormal), numpy scalars,
a float where an int is due, and a Fraction, which is a numbers.Real that numpy does not
compute with.
"""

import math
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicforge import harness
from magicforge.chain import TrapConfig
from magicforge.constants import MAX_DD_PULSES, MAX_IONS, MAX_QUBITS
from magicforge.engine import (
    EngineError,
    NoiseModel,
    partial_trace,
    prepare_state,
    ramsey_scan,
    run_program,
    sample_counts,
)
from magicforge.metrics import MetricsError, error_budget, ramsey_fit
from magicforge.program import FreeEvolve, ProgramError, PulseProgram, Rotate

PROGRAM = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(1e-3)])
J = np.array([[0.0, 229.3, 97.4], [229.3, 0.0, 229.3], [97.4, 229.3, 0.0]])
PHASES = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
HOSTILE = [True, False, np.True_, "1", None, math.nan, math.inf, -math.inf, 1e308, -0.0,
           2**63, 10**400, 5e-324, np.int64(3), np.float32(0.5), 2.5, Fraction(1, 2)]

# The test's own reading of the rule, by exact types, so it does not restate the checks.
INT_TYPES = (int, np.int64)
REAL_TYPES = INT_TYPES + (float, np.float64, np.float32)


def is_int(value, low, high):
    return type(value) in INT_TYPES and low <= value <= high


def is_real(value, low=-math.inf, high=math.inf):
    if type(value) not in REAL_TYPES:
        return False
    # an int past the largest float is not finite; float(10**400) would raise OverflowError
    finite = abs(value) <= sys.float_info.max if type(value) in INT_TYPES else math.isfinite(value)
    return finite and low <= value <= high


def ints(low, high):
    valid = st.integers(low, high)
    return valid | valid.map(np.int64) | st.sampled_from(HOSTILE)


def reals(low=-1e3, high=1e3):
    valid = st.floats(low, high)
    return valid | valid.map(np.float64) | st.sampled_from(HOSTILE)


def run_scenario(seed):
    with tempfile.TemporaryDirectory() as directory:
        harness.run_scenario("fig2", directory, seed=seed)


# entry point: (its call on one drawn value, the draw, the valid rule, layer error, field named)
ENTRY_POINTS = {
    # "dd_pulses must be an int in ...", or "kdd pulse count must be a multiple of 10"
    "FreeEvolve.dd_pulses": (lambda v: FreeEvolve(1e-3, v, "kdd"), ints(-20, 40),
                             lambda v: is_int(v, 0, MAX_DD_PULSES) and v % 10 == 0,
                             ProgramError, "pulse"),
    "FreeEvolve.duration": (lambda v: FreeEvolve(v), reals(-1e-3, 1e-3),
                            lambda v: is_real(v, 0), ProgramError, "duration"),
    "Rotate.qubit": (lambda v: Rotate(v, np.pi), ints(-2, 5), lambda v: is_int(v, 0, 2**63),
                     ProgramError, "qubit"),
    "Rotate.theta": (lambda v: Rotate(0, v), reals(), is_real, ProgramError, "theta"),
    "PulseProgram.n_qubits": (lambda v: PulseProgram(v, []), ints(-1, MAX_QUBITS + 2),
                              lambda v: is_int(v, 1, MAX_QUBITS), ProgramError, "register"),
    "PulseProgram.relabel": (lambda v: PulseProgram(2, [], relabel=(v, 0)), ints(-1, 3),
                             lambda v: is_int(v, 1, 1), ProgramError, "RELABEL"),
    "TrapConfig.ion_count": (lambda v: TrapConfig(ion_count=v), ints(-1, MAX_IONS + 2),
                             lambda v: is_int(v, 1, MAX_IONS), ValueError, "ion_count"),
    "TrapConfig.reference_coordinate": (lambda v: TrapConfig(reference_coordinate=v), reals(),
                                        is_real, ValueError, "reference_coordinate"),
    # a numpy scalar's nu1^2 overflows (1e200) or its m nu1^2 underflows to 0 (1e-200) with a
    # warning where a float's raises: both give no finite Coulomb length scale
    "TrapConfig.axial_frequency": (lambda v: TrapConfig(axial_frequency=v),
                                   reals(1.0, 1e7) | st.sampled_from([np.float64(1e200),
                                                                      np.float64(1e-200)]),
                                   lambda v: is_real(v, 1e-30, 1e30), ValueError,
                                   "axial_frequency"),
    "TrapConfig.bias_field": (lambda v: TrapConfig(bias_field=v),
                              reals() | st.just(np.float64(1e300)),
                              lambda v: is_real(v, -1e30, 1e30), ValueError, "bias_field"),
    "NoiseModel.sigma_dephasing_rate": (lambda v: NoiseModel(sigma_dephasing_rate=v),
                                        reals(-10.0, 100.0), lambda v: is_real(v, 0),
                                        ValueError, "sigma_dephasing_rate"),
    "NoiseModel.white_noise_fraction": (lambda v: NoiseModel(white_noise_fraction=v),
                                        reals(-0.5, 1.5), lambda v: is_real(v, 0, 1),
                                        ValueError, "white_noise_fraction"),
    "prepare_state.n_qubits": (lambda v: prepare_state(v), ints(-1, 3),
                               lambda v: is_int(v, 1, MAX_QUBITS), EngineError, "register"),
    "partial_trace.qubit": (lambda v: partial_trace(prepare_state(3).rho, v), ints(-1, 4),
                            lambda v: is_int(v, 0, 2), EngineError, "qubit"),
    "sample_counts.shots": (lambda v: sample_counts(np.full(8, 1 / 8), v,
                                                    np.random.default_rng(1)),
                            ints(-2, 1000), lambda v: is_int(v, 1, 2**63 - 1),
                            EngineError, "shots"),
    "ramsey_scan.spectator_bits": (lambda v: ramsey_scan(0, 1e-3, PHASES, J,
                                                         spectator_bits={1: v}),
                                   ints(-1, 2), lambda v: is_int(v, 0, 1),
                                   ProgramError, "bit"),
    "run_program.pulse_duration": (lambda v: run_program(PROGRAM, J, NoiseModel.off(),
                                                         pulse_duration=v),
                                   reals(-1e-5, 1e-5), lambda v: is_real(v, 0),
                                   EngineError, "pulse_duration"),
    "Scenario.shots": (lambda v: harness.Scenario("s", PROGRAM, J, shots=v), ints(-2, 1000),
                       lambda v: is_int(v, 0, 2**63 - 1), harness.HarnessError, "shots"),
    "Scenario.seed": (lambda v: harness.Scenario("s", PROGRAM, J, seed=v), ints(-2, 2**40),
                      lambda v: is_int(v, 0, 2**63), harness.HarnessError, "seed"),
    "Scenario.pulse_duration": (lambda v: harness.Scenario("s", PROGRAM, J, pulse_duration=v),
                                reals(-1e-5, 1e-5), lambda v: is_real(v, 0),
                                harness.HarnessError, "pulse_duration"),
    "run_scenario.seed": (run_scenario, ints(-2, 2**40), lambda v: is_int(v, 0, 2**63),
                          harness.HarnessError, "seed"),
    "error_budget.dephased_fidelity": (lambda v: error_budget(v, 0.25, 0.96), reals(-1.0, 2.0),
                                       is_real, MetricsError, "dephased_fidelity"),
    "error_budget.white_noise_fraction": (lambda v: error_budget(0.9, v, 0.96), reals(-0.5, 1.5),
                                          lambda v: is_real(v, 0, 1), MetricsError,
                                          "white_noise_fraction"),
    "error_budget.readout_fidelity": (lambda v: error_budget(0.9, 0.25, v), reals(0.0, 1.5),
                                      lambda v: is_real(v, 0.5, 1), MetricsError,
                                      "readout_fidelity"),
    "ramsey_fit.shots": (lambda v: ramsey_fit(PHASES, 0.5 - 0.4 * np.cos(PHASES), shots=v),
                         reals(-10.0, 1e4),
                         lambda v: v is None or is_real(v) and v > 0, MetricsError, "shots"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_number_runs_or_is_named_by_its_layer(entry, data):
    call, values, valid, error, field = ENTRY_POINTS[entry]
    value = data.draw(values, label=entry)
    if valid(value):
        call(value)
        return
    with pytest.raises(Exception) as caught:
        call(value)
    assert type(caught.value) is error and field in str(caught.value), caught.value
