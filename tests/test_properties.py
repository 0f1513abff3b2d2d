"""Property tests of the engine on random short programs.

Programs on 2-3 qubits start from sigma-, reach a drawn starting encoding per
qubit with leading transfers, then mix R, PH, ECHO, plain and decoupled EV
windows, transfers routed through pi, and an optional RELABEL. Noiselessly
the density matrix path must agree with the ideal unitary; under the full
noise model the state must stay a density matrix. On 1-8 qubits, each slice
of a stacked run over product inputs must equal the single-state run of that
input's pulses and the program bit for bit, and a run from `prepare_state`'s
state for a label must equal the run given that label. On 1-7 qubits, both run
paths must equal the allocating step-by-step oracle (`conftest.reference_run`)
bit for bit under the full noise model. The closed-form fringe readout must agree
with applying the analysis pulse explicitly, phase by phase. The engine's
tensor-local pulse kernel must agree with the dense kron-embedded operator on
1-8 qubits. Program text must read back to the program it was written from,
the readout confusion matrix must be column-stochastic, and the CSV and JSON
forms of a record set must carry the same numbers.
"""

import csv
import itertools
import json
import math
import platform
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import embed, label_pulses, reference_probabilities, reference_run, reference_steps
from magicforge.engine import (
    EngineError,
    NoiseModel,
    apply_readout_confusion,
    apply_rotation,
    fringe_scan,
    measurement_probabilities,
    prepare_state,
    program_unitary,
    ramsey_program,
    ramsey_scan,
    run_batch,
    run_program,
)
from magicforge.gates import phase_2x2, rotation_2x2
from magicforge.harness import RunRecord, emit_records
from magicforge.program import (
    BASES,
    BASIS_PI,
    BASIS_SIGMA_MINUS,
    BASIS_SIGMA_PLUS,
    Echo,
    FreeEvolve,
    Measure,
    PhaseShift,
    PulseProgram,
    Rotate,
    TransferBasis,
    parse_program,
)

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
durations = st.floats(0.0, 2e-3, allow_nan=False)
decoupling = st.sampled_from([(0, "cpmg"), (2, "cpmg"), (4, "cpmg"), (10, "kdd"), (20, "kdd")])


@st.composite
def programs(draw, min_qubits=2, max_qubits=3):
    """(program, coupling matrix, initial-state seed)."""
    n = draw(st.integers(min_qubits, max_qubits))
    bases = draw(st.lists(st.sampled_from(BASES), min_size=n, max_size=n))
    # every run starts in sigma-; reach each drawn basis as sigma- -> pi -> sigma+
    ins = []
    for q, basis in enumerate(bases):
        if basis != BASIS_SIGMA_MINUS:
            ins.append(TransferBasis(q, BASIS_PI))
        if basis == BASIS_SIGMA_PLUS:
            ins.append(TransferBasis(q, BASIS_SIGMA_PLUS))
    for _ in range(draw(st.integers(1, 12))):
        # windows and transfers are where the encoding bookkeeping shows
        kind = draw(st.sampled_from(["R", "PH", "ECHO", "EV", "EV", "XFER", "XFER"]))
        q = draw(st.integers(0, n - 1))
        if kind == "R":
            ins.append(Rotate(q, draw(angles), draw(angles)))
        elif kind == "PH":
            ins.append(PhaseShift(q, draw(angles)))
        elif kind == "ECHO":
            ins.append(Echo(q, draw(angles)))
        elif kind == "EV":
            ins.append(FreeEvolve(draw(durations), *draw(decoupling)))
        else:
            # sigma encodings may only move to pi; pi may move anywhere
            target = draw(st.sampled_from(BASES)) if bases[q] == BASIS_PI else BASIS_PI
            ins.append(TransferBasis(q, target))
            bases[q] = target
    relabel = draw(st.none() | st.permutations(range(n)))
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            j[a, b] = j[b, a] = draw(st.floats(-2 * np.pi * 50, 2 * np.pi * 50))
    return PulseProgram(n, ins, relabel=relabel), j, draw(st.integers(0, 2**32 - 1))


def random_rho(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@settings(max_examples=100, deadline=None)
@given(programs())
def test_noiseless_run_matches_program_unitary(case):
    prog, j, seed = case
    rho0 = random_rho(seed, prog.n_qubits)
    rho = run_program(prog, j, noise=NoiseModel.off(), initial=rho0).state.rho
    u = program_unitary(prog, j)
    assert np.abs(rho - u @ rho0 @ u.conj().T).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(programs(), st.sampled_from([0.0, 2e-5]))
def test_noisy_run_keeps_a_density_matrix(case, pulse_duration):
    prog, j, seed = case
    initial = prepare_state(prog.n_qubits, random_rho(seed, prog.n_qubits))
    rho = run_program(prog, j, noise=NoiseModel(), initial=initial,
                      pulse_duration=pulse_duration).state.rho
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def labels(n):
    """Product inputs of an n-qubit register, one of 0, 1, + per qubit."""
    return st.text(alphabet="01+", min_size=n, max_size=n)


def with_inputs(cases, max_inputs):
    """(case, inputs): a drawn program case and 1..max_inputs product inputs of its register."""
    return cases.flatmap(lambda case: st.tuples(
        st.just(case), st.lists(labels(case[0].n_qubits), min_size=1, max_size=max_inputs)))


one_qubit_stack = ((PulseProgram(1, [Rotate(0, 1.1, 0.3), FreeEvolve(1e-3, 2, "cpmg")]),
                    np.zeros((1, 1)), 0), ["+", "1", "0"])


@settings(max_examples=60, deadline=None)
@given(with_inputs(programs(1, 8), 4), st.just(0.0) | st.floats(1e-7, 5e-5))
@example(one_qubit_stack, 0.0)
@example(one_qubit_stack, 2e-6)
def test_stacked_run_matches_single_runs(drawn, pulse_duration):
    # every slice of the stack is the single-state run of its input's pulses
    # followed by the program, bit for bit, clock and encodings included
    (prog, j, _), inputs = drawn
    n = prog.n_qubits
    noise = NoiseModel()
    stacked = run_batch(prog, j, inputs, noise=noise, pulse_duration=pulse_duration)
    assert len(stacked) == len(inputs)
    for label, res in zip(inputs, stacked):
        single = run_program(PulseProgram(n, [*label_pulses(label), *prog.instructions],
                                          relabel=prog.relabel),
                             j, noise=noise, pulse_duration=pulse_duration).state
        assert np.array_equal(res.state.rho, single.rho)
        assert res.state.time == single.time and res.state.bases == single.bases


@settings(max_examples=25, deadline=None)
@given(programs(1, 3), st.sampled_from([NoiseModel(), NoiseModel.off()]))
def test_a_label_names_one_state(case, noise):
    # prepare_state(n, label) is the state a run prepares for the label, by its pulses, so a
    # run from that state and a run given the label agree bit for bit, clock included
    prog, j, _ = case
    n = prog.n_qubits
    for label in map("".join, itertools.product("01+", repeat=n)):
        given = run_program(prog, j, noise, initial=prepare_state(n, label)).state
        named = run_program(prog, j, noise, initial=label).state
        assert given.rho.tobytes() == named.rho.tobytes(), label
        assert given.time == named.time and given.bases == named.bases


def check_against_oracle(prog, j, seed, inputs, pulse_duration):
    """run_program from a random rho, and run_batch on `inputs`, against the oracle."""
    n = prog.n_qubits
    noise = NoiseModel()
    rho0 = random_rho(seed, n)
    want_rho, want_time, want_bases = reference_run(prog, j, rho0[None], np.zeros(1), noise,
                                                    pulse_duration)
    got = run_program(prog, j, noise=noise, initial=rho0, pulse_duration=pulse_duration).state
    assert np.array_equal(got.rho, want_rho[0])
    assert got.time == want_time[0] and got.bases == want_bases
    # each input is prepared by its pulses on its own stack, then one stacked run
    zero = np.zeros((1, 2**n, 2**n), dtype=complex)
    zero[0, 0, 0] = 1.0
    prepared = [reference_steps(label_pulses(label), n, j, zero, np.zeros(1), noise,
                                pulse_duration) for label in inputs]
    want_rho, want_time, _ = reference_run(prog, j, np.concatenate([r for r, _, _ in prepared]),
                                           np.concatenate([t for _, t, _ in prepared]), noise,
                                           pulse_duration)
    batch = run_batch(prog, j, inputs, noise=noise, pulse_duration=pulse_duration)
    for res, rho, time in zip(batch, want_rho, want_time, strict=True):
        assert np.array_equal(res.state.rho, rho)
        assert res.state.time == time


LONG_IS_EXTENDED = np.finfo(np.longdouble).nmant <= 64  # else IEEE quad, in software and slow
long_double_case = (PulseProgram(3, [Rotate(0, np.pi / 2, 0.3), FreeEvolve(2e-3, 20, "kdd"),
                                     Rotate(2, 1.1, 0.0), FreeEvolve(2e-3)]),
                    np.array([[0.0, 300.0, -250.0], [300.0, 0.0, 280.0], [-250.0, 280.0, 0.0]]), 7)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason=f"np.longdouble is float64 on {platform.system()} {platform.machine()}")
@settings(max_examples=80, deadline=None)
@given(programs(1, 6 if LONG_IS_EXTENDED else 3), st.sampled_from([0.0, 2e-6]))
@example(long_double_case, 0.0)
def test_engine_error_against_the_long_double_oracle(case, pulse_duration):
    """The float64 engine's own error, under the full noise model (damp, white-noise mix and
    readout): max |rho - rho_long| and max |p - p_long| against `reference_run` and
    `reference_probabilities` in np.clongdouble. Over 400 drawn 1-6-qubit programs the
    largest was 7.5e-16 for rho and 3.3e-16 for p under (numpy X86_V4, OpenBLAS SkylakeX),
    1.2e-15 and 3.9e-16 under (X86_V3, Haswell), 1.1e-15 and 3.1e-16 under (X86_V2,
    Sandybridge). The bound, 1e-14, is 8 times the largest: the scale against which a change
    that moves last bits states its tolerance. A window phase off by 1e-12 relative fails it
    (`long_double_case`, 1.2e-13)."""
    prog, j, seed = case
    noise = NoiseModel()
    rho0 = random_rho(seed, prog.n_qubits)
    got = run_program(prog, j, noise=noise, initial=rho0, pulse_duration=pulse_duration).state
    want, _, _ = reference_run(prog, j, rho0[None].astype(np.clongdouble), np.zeros(1), noise,
                               pulse_duration, np.clongdouble)
    assert np.abs(got.rho - want[0]).max() <= 1e-14
    p = measurement_probabilities(got, noise)
    assert np.abs(p - reference_probabilities(want, noise)[0]).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(with_inputs(programs(1, 7), 3), st.sampled_from([0.0, 2e-6]))
def test_in_place_runs_match_allocating_oracle(drawn, pulse_duration):
    (prog, j, seed), inputs = drawn
    check_against_oracle(prog, j, seed, inputs, pulse_duration)


def test_wide_parked_trains_match_allocating_oracle():
    # seven qubits, one parked in pi through a kdd train, then a cpmg train
    rng = np.random.default_rng(5)
    j = rng.normal(scale=300.0, size=(7, 7))
    j = (j + j.T) / 2
    np.fill_diagonal(j, 0.0)
    prog = PulseProgram(7, [Rotate(q, np.pi / 2, 0.3 * q) for q in range(7)] + [
        TransferBasis(2, BASIS_PI), FreeEvolve(1e-3, 20, "kdd"), Rotate(2, np.pi, 0.0),
        FreeEvolve(4e-4, 4, "cpmg"), TransferBasis(2, BASIS_SIGMA_MINUS)],
        relabel=(6, 0, 1, 2, 3, 4, 5))
    for pulse_duration in (0.0, 2e-6):
        check_against_oracle(prog, j, 5, ["0000000", "1+0+001"], pulse_duration)


def bright_probability(rho, qubit, n):
    """Summed population of the basis states with `qubit` in |1>."""
    pops = np.diag(rho).real.reshape([2] * n)
    return float(np.take(pops, 1, axis=qubit).sum())


def explicit_fringe(state, qubit, phases):
    out = []
    for phi in phases:
        probe = replace(state, rho=state.rho.copy())
        apply_rotation(probe, qubit, np.pi / 2, phi)
        out.append(bright_probability(probe.rho, qubit, state.n_qubits))
    return np.array(out)


phase_lists = st.lists(angles, min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data(), st.integers(0, 2**32 - 1), phase_lists)
def test_fringe_scan_matches_explicit_analysis_pulse(n, data, seed, phases):
    qubit = data.draw(st.integers(0, n - 1))
    state = prepare_state(n, random_rho(seed, n))
    assert np.abs(fringe_scan(state, qubit, phases)
                  - explicit_fringe(state, qubit, phases)).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2), st.lists(st.integers(0, 1), min_size=2, max_size=2), durations,
       st.sampled_from([0, 2, 4, 20]), phase_lists)
def test_ramsey_scan_matches_per_phase_runs(qubit, bits, duration, dd_pulses, phases):
    # the scan runs once and reads every phase off the state; the oracle runs
    # the spectator flips, the probe program and its analysis pulse, once per phase
    spectators = dict(zip([q for q in range(3) if q != qubit], bits))
    j = np.array([[0.0, 229.3, 97.4], [229.3, 0.0, 229.3], [97.4, 229.3, 0.0]])
    noise = NoiseModel()
    oracle = []
    for phi in phases:
        flips = [Rotate(q, np.pi, 0.0) for q, bit in spectators.items() if bit]
        probe = ramsey_program(qubit, duration, dd_pulses=dd_pulses).instructions
        prog = PulseProgram(3, [*flips, *probe, Rotate(qubit, np.pi / 2, phi)])
        oracle.append(bright_probability(run_program(prog, j, noise=noise).state.rho, qubit, 3))
    scan = ramsey_scan(qubit, duration, phases, j, noise=noise, spectator_bits=spectators,
                       dd_pulses=dd_pulses)
    assert np.abs(scan - np.array(oracle)).max() <= 1e-12


def embed_oracle(prog):
    """Product of the kron-embedded 2^n x 2^n pulse operators of a pulse-only program."""
    n = prog.n_qubits
    u = np.eye(2**n, dtype=complex)
    for ins in prog.instructions:
        op = phase_2x2(ins.phi) if isinstance(ins, PhaseShift) else rotation_2x2(ins.theta, ins.phi)
        u = embed(op, ins.qubit, n) @ u
    return u


@st.composite
def pulse_programs(draw, n):
    ins = []
    for _ in range(draw(st.integers(1, 6))):
        q = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            ins.append(Rotate(q, draw(angles), draw(angles)))
        else:
            ins.append(PhaseShift(q, draw(angles)))
    return PulseProgram(n, ins)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), angles, angles)
@example(1, 0, np.pi / 2, 0.3)
@example(8, 0, np.pi, -1.1)
def test_local_rotation_matches_embedded_operator(n, seed, theta, phi):
    rho0 = random_rho(seed, n)
    for qubit in range(n):
        state = prepare_state(n, rho0)
        apply_rotation(state, qubit, theta, phi)
        u = embed(rotation_2x2(theta, phi), qubit, n)
        assert np.abs(state.rho - u @ rho0 @ u.conj().T).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(pulse_programs), st.integers(0, 2**32 - 1))
@example(PulseProgram(1, [PhaseShift(0, 0.7), Rotate(0, np.pi / 2, 0.2)]), 0)
@example(PulseProgram(8, [Rotate(q, np.pi, 0.4 * q) for q in range(8)] + [PhaseShift(7, 1.3)]), 0)
def test_local_pulses_match_embedded_operators(prog, seed):
    n = prog.n_qubits
    u = embed_oracle(prog)
    assert np.abs(program_unitary(prog, np.zeros((n, n))) - u).max() <= 1e-12
    rho0 = random_rho(seed, n)
    rho = run_program(prog, np.zeros((n, n)), noise=NoiseModel.off(), initial=rho0).state.rho
    assert np.abs(rho - u @ rho0 @ u.conj().T).max() <= 1e-12


# Every finite double, with signed zero, subnormals and the largest exponents
# drawn on purpose; numpy scalars too, as the compiler emits them.
edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, -1.2345678901234567e-300,
                               1.7976931348623157e308, 0.1, np.pi / 2])
exact_floats = st.floats(allow_nan=False, allow_infinity=False) | edge_floats
exact_floats = exact_floats | exact_floats.map(np.float64)
exact_durations = exact_floats.map(abs) | st.just(-0.0)
decoupling_suffixes = (
    st.sampled_from([(0, "cpmg"), (0, "kdd")])
    | st.tuples(st.integers(1, 50).map(lambda k: 2 * k), st.just("cpmg"))
    | st.tuples(st.integers(1, 10).map(lambda k: 10 * k), st.just("kdd")))


@st.composite
def text_programs(draw):
    """Programs over every opcode, as built in code, for the text round trip."""
    n = draw(st.integers(1, 6))
    qubits = st.integers(0, n - 1)
    ins = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["R", "PH", "EV", "XFER", "ECHO"]))
        if kind == "R":
            ins.append(Rotate(draw(qubits), draw(exact_floats), draw(exact_floats)))
        elif kind == "PH":
            ins.append(PhaseShift(draw(qubits), draw(exact_floats)))
        elif kind == "EV":
            ins.append(FreeEvolve(draw(exact_durations), *draw(decoupling_suffixes)))
        elif kind == "XFER":
            ins.append(TransferBasis(draw(qubits | st.just("all")), draw(st.sampled_from(BASES))))
        else:
            ins.append(Echo(draw(qubits), draw(exact_floats)))
    if draw(st.booleans()):
        ins.append(Measure())  # the parser takes MEAS only as the last instruction
    relabel = draw(st.none() | st.permutations(range(n)))
    name = draw(st.text(alphabet="abc xyz-#:019", max_size=12))
    return PulseProgram(n, ins, relabel=relabel, name=name)


@settings(max_examples=200, deadline=None)
@given(text_programs())
def test_program_text_round_trip_is_exact(prog):
    text = prog.to_text()
    again = parse_program(text)
    assert again.n_qubits == prog.n_qubits
    assert again.instructions == prog.instructions
    assert again.relabel == prog.relabel
    # == takes -0.0 for 0.0, but repr is one-to-one on a float's bits: equal
    # texts below the name line mean every float came back bit for bit
    assert again.to_text().splitlines()[1:] == text.splitlines()[1:]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.floats(0.0, 1.0))
def test_readout_confusion_is_column_stochastic(n, fidelity):
    if fidelity < 0.5:  # as NoiseModel's readout_fidelity; below it a weight went negative
        with pytest.raises(EngineError, match="fidelity must be finite and >= 0.5"):
            apply_readout_confusion(np.eye(2**n), fidelity)
        return
    c = apply_readout_confusion(np.eye(2**n), fidelity)
    assert c.min() >= 0.0
    assert np.abs(c.sum(axis=0) - 1.0).max() <= 1e-12


cell_text = st.text(alphabet=st.sampled_from('ab 1.-,"\n\r'), max_size=8)
cell_values = st.one_of(
    st.floats(), st.none(), st.booleans(),
    st.integers(-2**63, 2**63 - 1), st.integers(-2**63, 2**63 - 1).map(np.int64), cell_text)
records = st.lists(st.builds(
    RunRecord, cell_text,
    st.dictionaries(cell_text, cell_values)),
    min_size=1, max_size=5)


def assert_cell_matches(value, csv_cell, json_cell):
    if isinstance(value, str):
        assert csv_cell == json_cell == value
    elif value is None or (isinstance(value, float) and not math.isfinite(value)):
        assert csv_cell == "" and json_cell is None
    elif isinstance(value, (bool, int, np.integer)):
        assert int(csv_cell) == json_cell == int(value)
    else:
        assert float(csv_cell) == json_cell
        assert math.isclose(json_cell, value, rel_tol=1e-9, abs_tol=1e-300)


@settings(max_examples=100, deadline=None)
@given(records)
def test_csv_and_json_carry_equal_numbers(tmp_path_factory, recs):
    csv_path, json_path = emit_records(recs, tmp_path_factory.mktemp("emit"), "t")
    with open(csv_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    with open(json_path) as fh:
        objects = json.load(fh)
    assert len(rows) == len(objects) == len(recs)
    for rec, row, obj in zip(recs, rows, objects):
        assert list(obj) == header
        cells = {"scenario": "t", "label": rec.label, **rec.values}
        for column, csv_cell in zip(header, row, strict=True):
            assert_cell_matches(cells.get(column), csv_cell, obj[column])
