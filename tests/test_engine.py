import gc
import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    free_unitary,
    label_pulses,
    random_density_matrix,
    random_pure_state,
    reference_run,
    selective_recoupling_wrap,
)
from magicforge import engine, harness
from magicforge.engine import (
    MAX_QUBITS,
    STATE_TOLERANCE,
    EngineError,
    NoiseModel,
    QuantumState,
    apply_readout_confusion,
    apply_rotation,
    dd_fragment,
    dd_phase_sequence,
    free_evolution,
    fringe_scan,
    measurement_probabilities,
    prepare_state,
    product_input_ket,
    program_unitary,
    ramsey_scan,
    run_batch,
    run_program,
    sample_counts,
)
from magicforge.gates import rotation_2x2
from magicforge.program import (
    Echo,
    FreeEvolve,
    Measure,
    PhaseShift,
    ProgramError,
    PulseProgram,
    Rotate,
    TransferBasis,
)


def random_j(rng, n=3, scale=300.0):
    j = rng.normal(scale=scale, size=(n, n))
    j = (j + j.T) / 2
    np.fill_diagonal(j, 0.0)
    return j


def purity(state):
    """tr(rho^2) of a register state."""
    return float(np.real(np.trace(state.rho @ state.rho)))


@pytest.fixture
def plus_state():
    st = prepare_state(3, "000")
    for q in range(3):
        apply_rotation(st, q, np.pi / 2, np.pi / 2)
    return st


# ---- state preparation ----

def test_prepare_state_accepts_label_vector_matrix():
    assert prepare_state(3, "101").populations()[0b101] == pytest.approx(1.0)
    v = product_input_ket("010")
    assert prepare_state(3, v).populations()[0b010] == pytest.approx(1.0)
    rho = np.outer(v, v.conj())
    assert prepare_state(3, rho).populations()[0b010] == pytest.approx(1.0)
    with pytest.raises(EngineError):
        prepare_state(3, "0101")
    with pytest.raises(EngineError):
        prepare_state(3, np.ones(5))
    with pytest.raises(EngineError, match="state vector: norm 2 is not 1"):
        prepare_state(3, 2 * v)
    with pytest.raises(EngineError, match="state vector: norm nan"):
        prepare_state(3, np.full(8, np.nan))
    # within the stated tolerance a vector is accepted and normalized
    st = prepare_state(3, v * (1 + STATE_TOLERANCE / 10))
    assert st.populations()[0b010] == pytest.approx(1.0, abs=1e-15)


def test_rotation_convention_on_register():
    st = prepare_state(2, "00")
    apply_rotation(st, 1, np.pi, 0.0)
    assert st.populations()[0b01] == pytest.approx(1.0, abs=1e-14)
    assert purity(st) == pytest.approx(1.0, abs=1e-12)


# ---- invariants ----

def test_noiseless_run_preserves_purity_and_trace(rng):
    j = random_j(rng)
    prog = PulseProgram(3, [
        Rotate(0, np.pi / 2, 0.3),
        FreeEvolve(2.3e-3),
        Rotate(1, 1.1, -0.4),
        FreeEvolve(0.7e-3),
        Rotate(2, np.pi, 0.0),
    ])
    res = run_program(prog, j, noise=NoiseModel.off())
    assert purity(res.state) == pytest.approx(1.0, abs=1e-10)
    assert np.trace(res.state.rho).real == pytest.approx(1.0, abs=1e-10)


def test_noisy_channels_preserve_trace(rng):
    j = random_j(rng)
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(4e-3)])
    res = run_program(prog, j, noise=NoiseModel())
    assert np.trace(res.state.rho).real == pytest.approx(1.0, abs=1e-10)
    assert purity(res.state) < 1.0


def test_free_evolution_keeps_populations(rng, plus_state):
    j = random_j(rng)
    before = plus_state.populations()
    free_evolution(plus_state, 3.3e-3, j, noise=NoiseModel())
    assert plus_state.populations() == pytest.approx(before, abs=1e-12)


def test_diagonal_state_is_dephasing_fixed_point():
    st = prepare_state(3, "011")
    rho0 = st.rho.copy()
    free_evolution(st, 5e-3, np.zeros((3, 3)), noise=NoiseModel())
    # white noise and readout live in run_program; pure dephasing leaves a
    # computational-basis-diagonal state untouched
    assert st.rho == pytest.approx(rho0, abs=1e-14)


def test_free_evolution_composition(rng, plus_state):
    j = random_j(rng)
    a = replace(plus_state, rho=plus_state.rho.copy())
    free_evolution(a, 1.9e-3, j)
    free_evolution(a, 0.6e-3, j)
    b = replace(plus_state, rho=plus_state.rho.copy())
    free_evolution(b, 2.5e-3, j)
    assert a.rho == pytest.approx(b.rho, abs=1e-12)


def test_same_slot_pulses_commute(rng):
    j = random_j(rng)
    p1 = PulseProgram(3, [Rotate(0, 0.7, 0.1), Rotate(2, 1.3, -0.8), FreeEvolve(1e-3)])
    p2 = PulseProgram(3, [Rotate(2, 1.3, -0.8), Rotate(0, 0.7, 0.1), FreeEvolve(1e-3)])
    u1 = program_unitary(p1, j)
    u2 = program_unitary(p2, j)
    assert u1 == pytest.approx(u2, abs=1e-12)


def test_zero_duration_evolution_is_noop(plus_state):
    rho0 = plus_state.rho.copy()
    free_evolution(plus_state, 0.0, np.full((3, 3), 100.0) - np.diag([100.0] * 3))
    assert plus_state.rho == pytest.approx(rho0, abs=1e-15)


# ---- conditional phases and the free-evolution unitary ----

def test_free_evolution_matches_gate_oracle(rng):
    j = random_j(rng)
    t = 1.1e-3
    psi = random_pure_state(rng, 8)
    st = prepare_state(3, psi)
    free_evolution(st, t, j)
    u = free_unitary(j, t)
    expected = u @ psi
    assert st.rho == pytest.approx(np.outer(expected, expected.conj()), abs=1e-12)


def test_dephasing_mask_rates(plus_state):
    # full-weight coherence decays with the sum of all participating rates
    noise = NoiseModel(white_noise_fraction=0.0, readout_fidelity=1.0)
    t = 4e-3
    st = plus_state
    rho0 = st.rho.copy()
    free_evolution(st, t, np.zeros((3, 3)), noise=noise)
    gamma = noise.sigma_dephasing_rate
    assert st.rho[0, 7] == pytest.approx(rho0[0, 7] * np.exp(-3 * gamma * t), rel=1e-12)
    assert st.rho[0, 4] == pytest.approx(rho0[0, 4] * np.exp(-1 * gamma * t), rel=1e-12)
    assert st.rho[1, 6] == pytest.approx(rho0[1, 6] * np.exp(-3 * gamma * t), rel=1e-12)


def test_parked_qubit_dephases_at_pi_rate():
    noise = NoiseModel(white_noise_fraction=0.0, readout_fidelity=1.0)
    t = 10e-3
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), TransferBasis(0, "pi"), FreeEvolve(t),
                            TransferBasis(0, "sigma-")])
    st = run_program(prog, np.zeros((3, 3)), noise=noise).state
    coh = 2.0 * abs(st.rho[0b000, 0b100])
    assert coh == pytest.approx(np.exp(-noise.pi_dephasing_rate * t), rel=1e-10)


def test_transfer_to_pi_removes_conditional_phase():
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 250.0
    probe = [Rotate(0, np.pi / 2, 0.0)]
    parked = [TransferBasis(1, "pi"), FreeEvolve(3e-3), TransferBasis(1, "sigma-")]
    off = NoiseModel.off()
    st = run_program(PulseProgram(3, probe + parked), j, noise=off, initial="010").state
    ref = run_program(PulseProgram(3, probe), j, noise=off, initial="010").state
    assert st.rho == pytest.approx(ref.rho, abs=1e-9)


def test_stacked_partial_trace_and_fringe_scan_match_each_slice(rng):
    # slice b of a (8, 8, B) stack, as run_batch runs it, reads the bits of its own state
    states = [QuantumState(3, random_density_matrix(rng, 8), ("sigma-",) * 3) for _ in range(5)]
    stack = np.stack([st.rho for st in states], axis=-1)
    phases = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    for q in range(3):
        reduced = engine.partial_trace(stack, q)
        assert reduced.shape == (2, 2, 5)
        for b, st in enumerate(states):
            assert reduced[..., b].tobytes() == engine.partial_trace(st.rho, q).tobytes(), q
        rows = fringe_scan(stack, q, phases)
        assert rows.shape == (5, 16)
        for b, st in enumerate(states):
            assert rows[b].tobytes() == fringe_scan(st, q, phases).tobytes()
    with pytest.raises(EngineError, match="qubit 3"):
        engine.partial_trace(stack, 3)


def test_reencoding_flips_precession_sign():
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 250.0
    t = 2e-3

    def probe_phase(reencode):
        ins = [Rotate(0, np.pi / 2, 0.0), FreeEvolve(t)]
        if reencode:
            ins[1:1] = [TransferBasis(0, "pi"), TransferBasis(0, "sigma+")]
        st = run_program(PulseProgram(3, ins), j, noise=NoiseModel.off(), initial="010").state
        r = engine.partial_trace(st.rho, 0)
        return np.angle(r[1, 0])

    base = probe_phase(False)
    flipped = probe_phase(True)
    assert (base - flipped) == pytest.approx(2 * j[0, 1] * t, abs=1e-9)


def test_transfer_changes_only_the_encodings(bench_j):
    # a transfer is an identity on the logical state: rho and the clock keep every bit
    window = [FreeEvolve(1e-3)]
    plain = run_program(PulseProgram(3, window), bench_j, initial="+10").state
    st = run_program(PulseProgram(3, window + [TransferBasis(1, "pi")]), bench_j,
                     initial="+10").state
    assert st.bases == ("sigma-", "pi", "sigma-")
    assert st.rho.tobytes() == plain.rho.tobytes() and st.time == plain.time
    with pytest.raises(ProgramError, match="unknown encoding basis 'up'"):
        run_program(PulseProgram(3, window + [TransferBasis(0, "up")]), bench_j)


def test_direct_sigma_transfer_is_rejected(rng):
    j = random_j(rng)
    with pytest.raises(EngineError, match="qubit 0: direct sigma- -> sigma\\+"):
        run_program(PulseProgram(3, [TransferBasis(0, "sigma+")]), j)
    routed = [TransferBasis(2, "pi"), TransferBasis(2, "sigma+")]
    assert run_program(PulseProgram(3, routed), j).state.bases == ("sigma-", "sigma-", "sigma+")
    # "all" re-houses every qubit, and the rule holds for each
    with pytest.raises(EngineError, match="qubit 2: direct sigma\\+ -> sigma-"):
        run_program(PulseProgram(3, routed + [TransferBasis("all", "sigma-")]), j)
    every = routed + [TransferBasis("all", "pi"), TransferBasis("all", "sigma-")]
    assert run_program(PulseProgram(3, every), j).state.bases == ("sigma-",) * 3
    direct = PulseProgram(3, [TransferBasis(1, "sigma+"), FreeEvolve(1e-3)])
    with pytest.raises(EngineError, match="qubit 1"):
        run_program(direct, j)
    with pytest.raises(EngineError, match="qubit 1"):
        program_unitary(direct, j)
    routed = PulseProgram(3, [TransferBasis(1, "pi"), TransferBasis(1, "sigma+"),
                              FreeEvolve(1e-3)])
    assert run_program(routed, j).state.bases == ("sigma-", "sigma+", "sigma-")


# ---- dynamical decoupling ----

def test_dd_is_transparent_noiselessly(rng):
    j = random_j(rng)
    psi = random_pure_state(rng, 8)
    plain = PulseProgram(3, [FreeEvolve(4e-3)])
    dd = PulseProgram(3, [FreeEvolve(4e-3, dd_pulses=20, dd_scheme="cpmg")])
    a = run_program(plain, j, noise=NoiseModel.off(), initial=psi)
    b = run_program(dd, j, noise=NoiseModel.off(), initial=psi)
    assert a.state.rho == pytest.approx(b.state.rho, abs=1e-9)


def test_kdd_blocks_compose_to_identity():
    phases = dd_phase_sequence(20, "kdd")
    u = np.eye(2, dtype=complex)
    for ph in phases:
        u = rotation_2x2(np.pi, ph) @ u
    u /= u[0, 0] / abs(u[0, 0])
    assert u == pytest.approx(np.eye(2), abs=1e-12)


def test_dd_timing_splits_window():
    frag = dd_fragment(4e-3, 20, "cpmg")
    waits = [ins.duration for ins in frag.instructions if isinstance(ins, FreeEvolve)]
    assert len(waits) == 21
    assert waits[0] == pytest.approx(1e-4)
    assert waits[-1] == pytest.approx(1e-4)
    assert all(w == pytest.approx(2e-4) for w in waits[1:-1])
    assert sum(waits) == pytest.approx(4e-3)
    pulses = [ins for ins in frag.instructions if isinstance(ins, Rotate)]
    assert len(pulses) == 20 * 3


def test_dd_scheme_validation():
    with pytest.raises(ProgramError):
        dd_phase_sequence(7, "cpmg")
    with pytest.raises(ProgramError):
        dd_phase_sequence(12, "kdd")
    with pytest.raises(ProgramError):
        dd_phase_sequence(4, "unknown")
    with pytest.raises(ProgramError, match="at least one pulse, got 0"):
        dd_fragment(1e-3, 0)


# ---- selective recoupling ----

def test_recoupling_cancels_echoed_spin(rng, bench_j):
    frag = selective_recoupling_wrap(2.4e-3, 2)
    u = program_unitary(frag, bench_j)
    jj = bench_j.copy()
    jj[0, 2] = jj[2, 0] = 0.0
    jj[1, 2] = jj[2, 1] = 0.0
    ref = program_unitary(PulseProgram(3, [FreeEvolve(2.4e-3)]), jj)
    d = u @ ref.conj().T
    d /= d[0, 0]
    assert d == pytest.approx(np.eye(8), abs=1e-9)


# ---- noise bookkeeping in run_program ----

def test_white_noise_applied_once_at_run_end(rng):
    j = random_j(rng)
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(2e-3),
                            Rotate(1, np.pi / 2, 0.5), FreeEvolve(2e-3)])
    deph = run_program(prog, j, noise=NoiseModel(white_noise_fraction=0.0,
                                                 readout_fidelity=1.0)).state.rho
    for zeta in (0.25, 1.0):
        full = run_program(prog, j, noise=NoiseModel(white_noise_fraction=zeta)).state.rho
        # bit for bit, signed zeros included: (1 - zeta) * -x is -0.0 at zeta = 1
        assert full.tobytes() == (zeta * np.eye(8) / 8 + (1 - zeta) * deph).tobytes()


def test_readout_confusion_kernel():
    p = np.zeros(8)
    p[0b000] = 1.0
    out = apply_readout_confusion(p, 0.96)
    assert out[0b000] == pytest.approx(0.96**3)
    assert out[0b111] == pytest.approx(0.04**3)
    assert out[0b100] == pytest.approx(0.04 * 0.96**2)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_measurement_probabilities_toggle_readout():
    st = prepare_state(3, "000")
    on = measurement_probabilities(st, NoiseModel())
    off = measurement_probabilities(st, NoiseModel(readout_fidelity=1.0))
    assert off[0] == pytest.approx(1.0)
    assert on[0] == pytest.approx(0.96**3)


def test_sample_counts_deterministic():
    p = np.full(8, 1 / 8)
    a = sample_counts(p, 1000, np.random.Generator(np.random.Philox(7)))
    b = sample_counts(p, 1000, np.random.Generator(np.random.Philox(7)))
    assert a.tolist() == b.tolist()
    assert a.sum() == 1000
    with pytest.raises(TypeError):
        sample_counts(p, 1000)


def test_sample_counts_takes_an_int_shot_count():
    # a fractional count was floored, True drew one shot, "5" and 10**22 escaped bare
    p = np.full(8, 1 / 8)
    rng = np.random.default_rng(3)
    for shots in (1.5, True, "5", 10**22, 2**63, 0, -3, np.float64(4.0)):
        with pytest.raises(EngineError, match=f"shots must be an int in 1..2\\^63-1, "
                                              f"got {re.escape(repr(shots))}$"):
            sample_counts(p, shots, rng)
    for shots in (1, np.int64(5), 2**63 - 1):
        assert sample_counts(p, shots, rng).sum() == shots


def test_sample_counts_rejects_bad_distributions():
    rng = np.random.default_rng(3)
    with pytest.raises(EngineError, match=r"p\[1\] is -1.0"):
        sample_counts([2.0, -1.0], 10, rng)
    with pytest.raises(EngineError, match=r"p\[2\] is nan"):
        sample_counts([0.5, 0.5, np.nan, 0.0], 10, rng)
    with pytest.raises(EngineError, match=r"p\[0\] is inf"):
        sample_counts([np.inf, 0.0], 10, rng)
    with pytest.raises(EngineError, match=r"p\[3\] is -2e-12"):
        sample_counts([0.5, 0.25, 0.25, -2e-12], 10, rng)
    for shape in ((3,), (1,), (2, 3)):
        with pytest.raises(EngineError, match=r"2\^n entries"):
            sample_counts(np.full(shape, 1 / np.prod(shape)), 10, rng)
    with pytest.raises(EngineError, match="no weight"):
        sample_counts(np.zeros(4), 10, rng)
    # rounding noise just below zero is clipped, and the draw is the plain
    # multinomial of the renormalized distribution
    p = np.array([0.5, -1e-13, 0.3, 0.2])
    q = np.clip(p, 0.0, None)
    expected = np.random.default_rng(5).multinomial(1000, q / q.sum())
    assert sample_counts(p, 1000, np.random.default_rng(5)).tolist() == expected.tolist()


def test_sample_counts_rejects_an_unnormalized_distribution():
    rng = np.random.default_rng(3)
    with pytest.raises(EngineError, match="sums to 4, not 1 within 1e-9"):
        sample_counts([3.0, 1.0], 8, rng)
    with pytest.raises(EngineError, match="sums to 0.999999998"):
        sample_counts([0.5, 0.499999998], 8, rng)
    # within the tolerance the draw is still the multinomial of p over its sum
    p = np.array([0.75, 0.25 + 5e-10])
    expected = np.random.default_rng(5).multinomial(1000, p / p.sum())
    assert sample_counts(p, 1000, np.random.default_rng(5)).tolist() == expected.tolist()


def test_out_of_register_qubit_is_rejected(rng):
    j = random_j(rng)
    bad = [Rotate(5, np.pi, 0.0), TransferBasis(5, "pi"), PhaseShift(3, 0.2), Echo(3)]
    for ins in bad:
        # checked where the program is built, so no run or unitary ever sees it
        with pytest.raises(ProgramError, match=f"qubit {ins.qubit} outside register of 3"):
            PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), ins, FreeEvolve(1e-3)])
    # a negative qubit, or "all" on anything but a transfer, fails where it is built
    for build in (lambda: Rotate(-1, np.pi), lambda: Echo(-2), lambda: TransferBasis(-1, "pi"),
                  lambda: Rotate("all", np.pi), lambda: PhaseShift("all", 0.2),
                  lambda: Echo("all")):
        with pytest.raises(ProgramError, match="qubit must be a non-negative int"):
            build()
    # "all" is in every register; a decoupled window expands inside it
    ok = PulseProgram(3, [TransferBasis("all", "pi"), FreeEvolve(1e-3, 2, "cpmg")])
    assert run_program(ok, j).state.bases == ("pi",) * 3


def test_per_step_kernels_bound_the_qubit():
    for q in (5, 3, -1):
        st = prepare_state(3, "000")
        with pytest.raises(EngineError, match=f"qubit {q} outside register of 3"):
            apply_rotation(st, q, np.pi)
        with pytest.raises(EngineError, match=f"qubit {q} outside register of 3"):
            fringe_scan(st, q, [0.0, 1.0])
        with pytest.raises(EngineError, match=f"qubit {q} outside register of 3"):
            engine.partial_trace(st.rho, q)
        assert st.populations()[0] == 1.0 and st.bases == ("sigma-",) * 3


def test_engine_names_arrays_that_do_not_fit():
    # each once escaped as numpy's bare ValueError, or ran to a NaN fringe point
    st = prepare_state(3, "+00")
    for call, message in (
            (lambda: engine.partial_trace(np.eye(6) / 6, 0),
             r"rho of shape \(6, 6\) is not 2\^n x 2\^n"),
            (lambda: apply_readout_confusion(np.full(6, 1 / 6), 0.96),
             r"distribution p of shape \(6,\) is not one probability per basis state"),
            (lambda: fringe_scan(st, 0, [0.0, np.nan]),
             r"phases\[1\] is nan; phases must be finite"),
            (lambda: sample_counts("x", 10, np.random.default_rng(1)),
             "p must be an array of float numbers"),
            (lambda: sample_counts(np.full(4, 0.25), 10, None), "needs an explicit rng"),
            # an int died in a bare AttributeError, a RandomState with a stacked p in
            # numpy's "object too deep for desired array"
            (lambda: sample_counts(np.full(4, 0.25), 10, 7),
             "needs an explicit rng, a numpy Generator; got 7"),
            (lambda: sample_counts(np.full((2, 4), 0.25), 10, np.random.RandomState(1)),
             "a numpy Generator; got RandomState"),
            # 1.5 gave negative weights
            (lambda: apply_readout_confusion(np.full(8, 0.125), 1.5),
             "fidelity must be finite and >= 0.5 and <= 1, got 1.5"),
            # a falsy noise (0, False) silently ran the full default model, and a string
            # or None where no default exists died in a bare AttributeError
            (lambda: run_program(PulseProgram(3, []), np.zeros((3, 3)), noise=0),
             "noise must be a NoiseModel or None, got 0"),
            (lambda: run_batch(PulseProgram(3, []), np.zeros((3, 3)), ["000"], noise=False),
             "noise must be a NoiseModel or None, got False"),
            (lambda: ramsey_scan(0, 1e-3, [0.0], np.zeros((3, 3)), noise="x"),
             "noise must be a NoiseModel or None, got 'x'"),
            (lambda: free_evolution(prepare_state(3), 1e-3, np.zeros((3, 3)), noise=0),
             "noise must be a NoiseModel or None, got 0"),
            (lambda: measurement_probabilities(st, None), "noise must be a NoiseModel, got None"),
            (lambda: QuantumState(3, np.eye(4) / 4, ("sigma-",) * 3),
             r"density matrix shape \(4, 4\) != \(8, 8\)"),
            (lambda: QuantumState(1, np.eye(2) / 2, ("sigma-",) * 2),
             "one encoding basis per qubit required"),
            (lambda: QuantumState(1, np.eye(2) / 2, ("up",)), "unknown encoding basis 'up'"),
            # None and 3 raised a bare TypeError from len(); "pi" read as the bases 'p', 'i'
            (lambda: QuantumState(1, np.eye(2) / 2, None),
             "bases must be a tuple of encodings, got None"),
            (lambda: QuantumState(1, np.eye(2) / 2, 3), "bases must be a tuple of encodings, got 3"),
            (lambda: QuantumState(2, np.eye(4) / 4, "pi"),
             "bases must be a tuple of encodings, got 'pi'"),
            # an array entry raised numpy's bare "truth value ... is ambiguous" ValueError
            (lambda: QuantumState(1, np.eye(2) / 2, (np.array(["pi", "pi"]),)),
             r"unknown encoding basis array\(\['pi', 'pi'\]"),
            (lambda: run_program(PulseProgram(3, []), np.zeros((3, 3)), initial=prepare_state(2)),
             "initial state has 2 qubits, program 3")):
        with pytest.raises(EngineError, match=message):
            call()


def test_a_state_is_checked_when_it_is_built():
    # each once ran, escaped as numpy's bare ValueError or TypeError, or failed late
    rho = np.eye(2) / 2
    inf_rho = np.array([[0.5, np.inf], [np.inf, 0.5]])
    for call, message in (
            # True ran as 1 qubit
            (lambda: QuantumState(True, rho, ("sigma-",)), "register of True qubits outside"),
            (lambda: QuantumState(1, "ab", ("sigma-",)), "rho must be an array of complex"),
            # an inf off the diagonal warned in the Hermitian check
            (lambda: QuantumState(1, inf_rho, ("sigma-",)), r"rho\[0, 1\] is \(inf\+0j\)"),
            # "x" died in the run with a bare TypeError, nan as "overflows the run clock"
            (lambda: QuantumState(1, rho, ("sigma-",), time="x"),
             "time must be a real number, got 'x'"),
            (lambda: QuantumState(1, rho, ("sigma-",), time=np.nan),
             "time must be finite, got nan"),
            (lambda: prepare_state(1, [[1, 0], [0]]), "state must be an array of complex numbers"),
            # a 3-D array was called a bad preparation label
            (lambda: prepare_state(1, np.zeros((2, 2, 2))),
             r"state has shape \(2, 2, 2\); state must have \(1, 2\) dimensions")):
        with pytest.raises(EngineError, match=message):
            call()


def test_rotation_rejects_non_finite_angles(bench_j):
    for theta, phi, field in ((np.nan, 0.0, "theta"), (np.inf, 0.0, "theta"),
                              (np.pi, np.nan, "phi"), (np.pi / 2, -np.inf, "phi")):
        st = prepare_state(3, "+10")
        free_evolution(st, 1e-3, bench_j, NoiseModel())
        rho, time = st.rho.copy(), st.time
        with pytest.raises(ProgramError, match=f"{field} must be finite, got"):
            apply_rotation(st, 1, theta, phi)
        assert np.array_equal(st.rho, rho) and st.time == time


@pytest.mark.parametrize("noise", [None, NoiseModel()])
def test_per_step_kernels_match_the_run(noise):
    # the public kernels applied one by one give run_program's bits on the same
    # instruction list, with a parked qubit and without the end-of-run depolarizing mix
    rng = np.random.default_rng(20261019)
    run_noise = NoiseModel.off() if noise is None else replace(noise, white_noise_fraction=0.0)
    for n in [1, 2, 3, 4, 5, 6, 7] * 3:
        j = random_j(rng, n)
        parked = int(rng.integers(n))
        ins = [Rotate(int(rng.integers(n)), *rng.uniform(0, 2 * np.pi, 2)),
               TransferBasis(parked, "pi")]
        for _ in range(5):
            q, angles = int(rng.integers(n)), rng.uniform(0, 2 * np.pi, 2)
            ins.append(Rotate(q, *angles) if rng.integers(2) else FreeEvolve(rng.uniform(0, 2e-3)))
        ins.append(TransferBasis(parked, "sigma-"))
        ins.append(FreeEvolve(rng.uniform(0, 2e-3)))
        initial = QuantumState(n, random_density_matrix(rng, 2**n), ("sigma-",) * n, time=1e-3)
        want = run_program(PulseProgram(n, ins), j, noise=run_noise, initial=initial).state
        st = QuantumState(n, initial.rho, initial.bases, initial.time)
        for step in ins:
            if isinstance(step, Rotate):
                apply_rotation(st, step.qubit, step.theta, step.phi)
            elif isinstance(step, TransferBasis):  # the transfer rule is the walk's
                st.bases = tuple(step.target if k == step.qubit else b
                                 for k, b in enumerate(st.bases))
            else:
                free_evolution(st, step.duration, j, noise)
        assert st.rho.tobytes() == want.rho.tobytes() and st.time == want.time
        assert st.bases == want.bases == ("sigma-",) * n


def test_free_evolution_rejects_non_finite_duration(bench_j):
    # the window fails where FreeEvolve is built, before the state is touched
    for duration, message in ((float("nan"), "duration must be finite, got nan"),
                              (float("inf"), "duration must be finite, got inf"),
                              (-1e-3, "free evolution duration must be >= 0, got -0.001")):
        st = prepare_state(3, "000")
        rho = st.rho.copy()
        with pytest.raises(ProgramError, match=f"^{message}$"):
            free_evolution(st, duration, bench_j, NoiseModel())
        assert st.time == 0.0 and np.array_equal(st.rho, rho)


def test_overflowing_windows_and_pulses_are_rejected(bench_j):
    # T/2 * sum|J| overflows at 1e308 s; unchecked, numpy makes an all-NaN rho, or raises a
    # bare RuntimeWarning under -W error
    phase = r"duration 1e\+308 s overflows the Ising phase T/2\*sum\|J\|"
    damp = r"duration 1e\+308 s overflows the dephasing exponent T\*sum\(gamma\)"
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(1e308)])
    for noise in (NoiseModel(), NoiseModel.off()):
        with pytest.raises(EngineError, match=phase):
            run_program(prog, bench_j, noise=noise)
    with pytest.raises(EngineError, match=phase):
        program_unitary(prog, bench_j)
    # a J whose sum|J| overflows fails at its first window, before its energies are summed
    # (the sum would overflow too, a RuntimeWarning under -W error)
    huge, short = 1e308 * (1 - np.eye(3)), PulseProgram(3, [FreeEvolve(1e-3)])
    with pytest.raises(EngineError, match=r"^duration 0.001 s overflows the Ising phase"):
        run_program(short, huge, noise=NoiseModel.off())
    with pytest.raises(EngineError, match=r"^duration 0.001 s overflows the Ising phase"):
        program_unitary(short, huge)
    # with no coupling only the damp exponent overflows, and only when something dephases
    with pytest.raises(EngineError, match=damp):
        run_program(PulseProgram(3, [FreeEvolve(1e308)]), np.zeros((3, 3)), noise=NoiseModel())
    with pytest.raises(EngineError, match=damp):
        run_program(PulseProgram(3, [Rotate(0, np.pi / 2, 0.0)]), bench_j, noise=NoiseModel(),
                    pulse_duration=1e308)
    for j, noise, message in ((bench_j, None, phase), (bench_j, NoiseModel(), phase),
                              (np.zeros((3, 3)), NoiseModel(), damp)):
        st = prepare_state(3, "+10")
        with pytest.raises(EngineError, match=message):
            free_evolution(st, 1e308, j, noise)
        assert st.time == 0.0 and np.isfinite(st.rho).all()
    # a long window whose exponents stay finite still runs
    rho = run_program(PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(1e300)]), bench_j,
                      noise=NoiseModel()).state.rho
    assert np.isfinite(rho).all()
    # each step's exponents are finite, but the run clock's sum is not: unchecked, the run
    # returns time = inf, or warns (an error in Tier-1) "overflow encountered in add"
    clock = r"duration 1e\+308 s overflows the run clock"
    off, zero = NoiseModel.off(), np.zeros((3, 3))
    with pytest.raises(EngineError, match=clock):
        run_program(PulseProgram(3, [FreeEvolve(1e308), FreeEvolve(1e308)]), zero, off)
    with pytest.raises(EngineError, match=clock):
        run_program(PulseProgram(3, [Rotate(0, np.pi, 0.0), Rotate(1, np.pi, 0.0)]), zero, off,
                    pulse_duration=1e308)
    with pytest.raises(EngineError, match=clock):
        run_batch(PulseProgram(3, [FreeEvolve(1e308)]), zero, ["000", "100"], off,
                  pulse_duration=1e308)
    [res] = run_batch(PulseProgram(3, [FreeEvolve(1e308)]), zero, ["000"], off)
    assert res.state.time == 1e308


def test_malformed_density_matrix_is_rejected(rng, bench_j):
    empty = PulseProgram(3, [])
    with pytest.raises(EngineError, match="rho: trace 24"):
        run_program(empty, bench_j, initial=3 * np.eye(8))
    skew = random_density_matrix(rng, 8)
    skew[0, 1] += 1e-3
    with pytest.raises(EngineError, match="rho: not Hermitian"):
        prepare_state(3, skew)
    nan_rho = np.eye(8) / 8
    nan_rho[2, 2] = np.nan
    with pytest.raises(EngineError, match="rho: trace"):
        QuantumState(3, nan_rho, ("sigma-",) * 3)
    # within the stated tolerance a state is accepted unchanged
    rho = random_density_matrix(rng, 8) * (1 + STATE_TOLERANCE / 10)
    assert np.array_equal(prepare_state(3, rho).rho, rho)


def test_register_size_cap_is_checked_before_allocating():
    too_big = MAX_QUBITS + 1
    tracemalloc.start()
    try:
        with pytest.raises(EngineError, match=f"register of {too_big} qubits"):
            prepare_state(too_big)
        with pytest.raises(ProgramError, match=f"register of {too_big} qubits"):
            PulseProgram(too_big, [])
        with pytest.raises(EngineError, match="register of 64 qubits"):
            prepare_state(64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 2^11 x 2^11 complex matrix alone would be 64 MiB
    assert peak < 2**20


def test_noise_model_rejects_non_finite_rates():
    with pytest.raises(ValueError, match="sigma_dephasing_rate must be finite"):
        NoiseModel(sigma_dephasing_rate=float("nan"))
    with pytest.raises(ValueError, match="pi_dephasing_rate must be finite"):
        NoiseModel(pi_dephasing_rate=float("inf"))
    with pytest.raises(ValueError, match="pi_dephasing_rate must be finite and >= 0"):
        NoiseModel(pi_dephasing_rate=-1.0)
    with pytest.raises(ValueError, match="white_noise_fraction"):
        NoiseModel(white_noise_fraction=float("nan"))


def test_non_finite_couplings_are_rejected(bench_j):
    j = np.array(bench_j)
    j[0, 1] = j[1, 0] = np.inf
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(1e-3)])
    with pytest.raises(EngineError, match=r"coupling J\[0, 1\] is inf; coupling J must be finite"):
        run_program(prog, j)
    with pytest.raises(EngineError, match=r"coupling J\[0, 1\] is inf; coupling J must be finite"):
        program_unitary(prog, j)


def test_measure_must_be_last():
    with pytest.raises(ProgramError, match="MEAS must be the last instruction"):
        PulseProgram(3, [Measure(), FreeEvolve(1e-3)])


def test_pulse_duration_freezes_coupling():
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 300.0
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0)])
    noise = NoiseModel(white_noise_fraction=0.0, readout_fidelity=1.0)
    # pulses are spin-locked: the pulse's time is a window that dephases qubit 0's coherence
    # by exactly exp(-gamma tau) but adds none of J01's phase, so R(pi/2) leaves its phase at
    # pi/2; a PhaseShift is virtual and adds no time, also around the pulse
    tau, gamma = 1e-3, noise.sigma_dephasing_rate
    for ins in ([prog.instructions[0]],
                [PhaseShift(1, 0.3), prog.instructions[0], PhaseShift(2, 0.7)]):
        st = run_program(PulseProgram(3, ins), j, noise=noise, pulse_duration=tau).state
        assert st.populations()[0b000] == pytest.approx(0.5, abs=1e-12)
        assert st.time == tau and gamma == 62.5
        assert 2 * abs(st.rho[0b000, 0b100]) == np.exp(-gamma * tau)
        assert np.angle(st.rho[0b000, 0b100]) == np.pi / 2
    for bad in (float("nan"), float("inf"), -1e-6):
        with pytest.raises(EngineError, match=f"pulse_duration must be finite and >= 0, "
                                              f"got {bad}"):
            run_program(prog, j, noise=noise, pulse_duration=bad)
    # a string or None once escaped as a bare TypeError, and True ran as a 1 s pulse
    for bad in ("1e-5", None, True, 10**400):
        message = re.escape(f"pulse_duration must be finite and >= 0, got {bad!r}")
        with pytest.raises(EngineError, match=message):
            run_program(prog, j, noise=noise, pulse_duration=bad)
        with pytest.raises(EngineError, match=message):
            run_batch(prog, j, ["000"], noise=noise, pulse_duration=bad)


def test_run_program_leaves_initial_state_unchanged(rng, bench_j):
    # the run stacks its own copy of the initial rho; transfers, windows, driven
    # pulses and the relabeling all act on that stack, never on the caller's state
    rho0 = random_density_matrix(rng, 8)
    initial = QuantumState(3, rho0.copy(), ("sigma-",) * 3, time=1e-3)
    prog = PulseProgram(3, [TransferBasis(1, "pi"), Rotate(0, np.pi / 2, 0.3),
                            FreeEvolve(1e-3)], relabel=(2, 0, 1))
    res = run_program(prog, bench_j, noise=NoiseModel(), initial=initial, pulse_duration=1e-5)
    assert np.array_equal(initial.rho, rho0)
    assert initial.bases == ("sigma-",) * 3 and initial.time == 1e-3
    assert res.state.bases == ("sigma-", "sigma-", "pi")
    assert res.state.time == pytest.approx(2e-3 + 1e-5)
    # with nothing to apply, the result is still a copy, not the caller's matrix
    empty = run_program(PulseProgram(3, []), bench_j, noise=NoiseModel.off(), initial=initial)
    assert np.array_equal(empty.state.rho, rho0)
    assert not np.shares_memory(empty.state.rho, initial.rho)


def test_run_batch_rejects_bad_preparations(bench_j):
    prog = PulseProgram(3, [FreeEvolve(1e-3, 20, "kdd")])
    with pytest.raises(EngineError, match="at least one input"):
        run_batch(prog, bench_j, [])
    # every input is checked, so a short one cannot prepare fewer qubits
    with pytest.raises(EngineError, match="input '01' does not match a 3-qubit program"):
        run_batch(prog, bench_j, ["000", "01"])
    with pytest.raises(EngineError, match="input: bad preparation label '0-1'"):
        run_batch(prog, bench_j, ["0-1"])
    with pytest.raises(EngineError, match="pulse_duration must be finite"):
        run_batch(prog, bench_j, ["000"], pulse_duration=float("nan"))


def test_decoupled_window_builds_each_factor_once(monkeypatch, bench_j):
    # a window object builds its damp's 2^n values once (`_damp`), and lays its factors out
    # once per qubit order it meets (`_laid`, one gather each)
    built = {"_damp": 0, "_laid": 0, "free_phases": 0}
    for name in built:
        def counting(*args, _real=getattr(engine, name), _name=name):
            built[_name] += 1
            return _real(*args)
        monkeypatch.setattr(engine, name, counting)
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(1e-3, 20, "cpmg")])
    # 21 windows (tau/2, 19 x tau, tau/2) share two objects, each keeping its own damp and
    # layouts; the Ising energies are folded once, for the one encoding pattern
    windows = [s for s in engine._walk(prog, bench_j, engine._Frame(("sigma-",) * 3))
               if isinstance(s, engine._Window)]
    assert len(windows) == 21 and len({id(w) for w in windows}) == 2
    built.update(free_phases=0)
    run_program(prog, bench_j, noise=NoiseModel())
    # a pulse brings its qubit's pair to the front of the qubit order, and every layer pulses
    # qubits 0, 1, 2 in turn, so each layer leaves the order (2, 1, 0): the first tau/2 is laid
    # out in (0, 1, 2), tau and the last tau/2 in (2, 1, 0), so three layouts
    assert built == {"_damp": 2, "_laid": 3, "free_phases": 1}
    # the time of the 61 driven pulses is one more window, without Ising phase: one encoding
    # pattern, so its damp is built once; it meets the orders after each pulse, four in all:
    # (0, 1, 2), then (1, 0, 2) and (2, 1, 0) in every layer, and (0, 2, 1) from the second on
    built.update(_damp=0, _laid=0, free_phases=0)
    run_program(prog, bench_j, noise=NoiseModel(), pulse_duration=1e-6)
    assert built == {"_damp": 3, "_laid": 3 + 4, "free_phases": 1}
    # a transfer between timed pulses: two encoding patterns, so two pulse-time windows; the
    # first meets the orders (0, 1, 2) and (1, 0, 2), the second (0, 1, 2) and (2, 0, 1)
    built.update(_damp=0, _laid=0, free_phases=0)
    run_program(PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), Rotate(1, np.pi, 0.0),
                                 TransferBasis(2, "pi"), Rotate(0, np.pi, 0.3),
                                 Rotate(2, np.pi / 2, 0.0)]),
                bench_j, noise=NoiseModel(), pulse_duration=1e-6)
    assert built == {"_damp": 2, "_laid": 4, "free_phases": 0}
    # a transfer between two trains: the second train's windows are new objects built
    # under the new encodings, so two per train, and one fold per encoding pattern; the
    # second train starts in the order (2, 1, 0), so each of its windows meets only that one
    built.update(_damp=0, _laid=0, free_phases=0)
    train = FreeEvolve(1e-3, 20, "cpmg")
    run_program(PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), train, TransferBasis(1, "pi"), train]),
                bench_j, noise=NoiseModel())
    assert built == {"_damp": 4, "_laid": 3 + 2, "free_phases": 2}
    # back to the first pattern: its energies are kept for the run, not folded again; the
    # first train is laid out as above, and the two plain windows and the second train's two
    # meet only (2, 1, 0)
    built.update(_damp=0, _laid=0, free_phases=0)
    run_program(PulseProgram(3, [train, TransferBasis(1, "pi"), FreeEvolve(2e-4),
                                 TransferBasis(1, "sigma-"), FreeEvolve(3e-4), train]),
                bench_j, noise=NoiseModel())
    assert built == {"_damp": 6, "_laid": 3 + 2 + 2, "free_phases": 2}


def test_laid_factors_match_the_copied_tables_bit_for_bit(monkeypatch):
    # the oracle is the construction each factor had before it was one gather: the natural
    # (2^n, 2^n) table, outer(u, u*) for the phase and v[a ^ b] for the damp, copied into the
    # pair-major layout of the qubit order
    def by_xor(values):
        i = np.arange(values.size)
        return values[i[:, None] ^ i]

    def copied(table, order):
        return np.ascontiguousarray(engine._pairs(table[..., None], order)).reshape(-1)

    rng = np.random.default_rng(20261021)
    for n in [*range(1, 8), 10]:
        bases = tuple(rng.choice(["sigma-", "sigma+", "pi"], n))
        noise = NoiseModel(*rng.uniform(1.0, 200.0, 2))
        duration = rng.uniform(1e-6, 2e-3)
        u = np.exp(1j * rng.uniform(-np.pi, np.pi, 2**n))
        v = engine._damp(bases, duration, noise)
        rates = np.array([noise.rate_for(b) for b in bases])
        assert v.tobytes() == np.exp(-duration * (engine.bit_table(n) * rates).sum(-1)).tobytes()
        orders = [tuple(range(n)), tuple(range(n))[::-1]]
        orders += [tuple(rng.permutation(n).tolist()) for _ in range(3 if n < 10 else 1)]
        for order in orders:
            phase, damp = engine._laid(u, v, order)
            assert phase.shape == damp.shape == (2**n, 2**n, 1)
            want = copied(np.outer(u, u.conj()), order)
            assert np.array_equal(phase.reshape(-1).view(np.uint64), want.view(np.uint64))
            # the run multiplies by the damp as by the float table, which numpy casts to d + 0j
            want = copied(by_xor(v), order)
            assert np.array_equal(damp.reshape(-1).view(np.uint64),
                                  want.astype(complex).view(np.uint64))
            rho = rng.normal(size=4**n) + 1j * rng.normal(size=4**n)
            assert np.array_equal((rho * damp.reshape(-1)).view(np.uint64),
                                  (rho * want).view(np.uint64))
            # a driven pulse's time has no phase, a window without noise no damp
            [alone] = engine._laid(None, v, order)
            assert alone.tobytes() == damp.tobytes()
            [alone] = engine._laid(u, None, order)
            assert alone.tobytes() == phase.tobytes()
        # one shared, read-only index set per register size: three 4^n arrays, nothing larger
        index = engine._pair_index(n)
        assert engine._pair_index(n) is index and len(index) == 3
        assert all(a.size == 4**n and a.nbytes <= 8 * 4**n and not a.flags.writeable
                   for a in index)
    assert engine._pair_index.cache_info().currsize <= MAX_QUBITS
    engine._pair_index.cache_clear()  # the 10-qubit set is 24 MB
    # and a run copies the stack into its layout and back, but no factor: only two _pairs calls
    calls = []
    monkeypatch.setattr(engine, "_pairs", lambda *a, _real=engine._pairs: calls.append(a) or _real(*a))
    prog = PulseProgram(4, [Rotate(2, 0.7, 0.1), FreeEvolve(1e-3, 10, "kdd"), Rotate(1, np.pi, 0.0),
                            FreeEvolve(3e-4)])
    run_program(prog, random_j(rng, 4), noise=NoiseModel(), pulse_duration=1e-6)
    assert len(calls) == 2


def test_trains_run_without_building_a_program(monkeypatch, bench_j):
    progs = [PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(1e-3, 20, scheme)])
             for scheme in ("cpmg", "kdd")]
    rho0 = random_density_matrix(np.random.default_rng(5), 8)
    zero = np.zeros((1, 8, 8), dtype=complex)
    zero[0, 0, 0] = 1.0
    want = [(reference_run(prog, bench_j, rho0[None], np.zeros(1), NoiseModel(), 0.0)[0][0],
             reference_run(prog, bench_j, zero, np.zeros(1), NoiseModel.off(), 0.0)[0][0])
            for prog in progs]

    def refuse(*args):
        raise AssertionError("a run path expanded a train through dd_fragment")
    monkeypatch.setattr(engine, "dd_fragment", refuse)
    for prog, (noisy, ideal) in zip(progs, want):
        assert np.array_equal(run_program(prog, bench_j, initial=rho0).state.rho, noisy)
        [res] = run_batch(prog, bench_j, ["000"], noise=NoiseModel.off())
        assert np.array_equal(res.state.rho, ideal)
        ket = program_unitary(prog, bench_j)[:, 0]
        assert np.allclose(np.outer(ket, ket.conj()), ideal, atol=1e-12)


class RecordingNumpy:
    """numpy for `engine`, recording what its kernel does: the operand shapes of each
    matmul, and every array the engine allocates empty or writes by matmul or copyto."""

    def __init__(self):
        self.products, self.written = [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty_like(self, *args, **kwargs):
        self.written.append(np.empty_like(*args, **kwargs))
        return self.written[-1]

    def matmul(self, a, b, out=None):
        self.products.append((np.shape(a), np.shape(b)))
        self.written.append(out)
        return np.matmul(a, b, out=out)

    def copyto(self, dst, src):
        self.written.append(dst)
        np.copyto(dst, src)


def test_run_batch_results_own_their_memory(monkeypatch, bench_j):
    recorder = RecordingNumpy()
    monkeypatch.setattr(engine, "np", recorder)
    prog = PulseProgram(3, [FreeEvolve(1e-3, 20, "kdd"), Rotate(1, np.pi / 2, 0.4)])
    inputs = ["+00", "010", "000"]
    # no depolarizing mix, so each result is the run's own stack, not a fresh sum
    noise = NoiseModel(white_noise_fraction=0.0)
    first = run_batch(prog, bench_j, inputs, noise=noise, pulse_duration=1e-6)
    second = run_batch(prog, bench_j, inputs, noise=noise, pulse_duration=1e-6)
    for a, b in zip(first, second, strict=True):
        assert np.array_equal(a.state.rho, b.state.rho) and a.state.time == b.state.time
    # every buffer the runs wrote: each stack, its scratch, and the products' outputs
    written = [w for w in recorder.written if w is not None]
    assert recorder.products and any(w.shape == (8, 8, 3) for w in written)
    rhos = [r.state.rho for r in first + second]
    for k, rho in enumerate(rhos):
        assert not any(np.shares_memory(rho, other) for other in rhos[k + 1:])
        assert not any(np.shares_memory(rho, w) for w in written)


def test_a_run_leaves_no_reference_cycle(bench_j):
    # a run's window factors and their layouts, which each window object keeps, go when the run
    # returns; a cycle through its closures would leave them to the cyclic collector, which on
    # the wide_register benchmark held about 4 MB more at peak
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(1e-3, 20, "kdd"),
                            TransferBasis(1, "pi"), FreeEvolve(2e-4), Rotate(2, np.pi, 0.3)])
    gc.collect()
    gc.disable()
    try:
        run_program(prog, bench_j, noise=NoiseModel(), pulse_duration=1e-6)
        run_batch(prog, bench_j, ["+00", "010"], noise=NoiseModel())
        program_unitary(prog, bench_j)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_pulse_half_is_one_product_on_the_leading_axis(monkeypatch):
    # whatever the qubit, op is one (2x2) @ (2 x 4^n B/2) product and op* one batch of two
    # (2x2) @ (2 x 4^(n-1) B): both a multiple of 4 wide from 2 qubits up (4-column rule)
    recorder = RecordingNumpy()
    monkeypatch.setattr(engine, "np", recorder)
    rng = np.random.default_rng(33)
    for n in (2, 5, 7):
        qubits = [*range(n), *rng.permutation(n), n - 1, 0, n - 1]
        prog = PulseProgram(n, [Rotate(int(q), 1.1, 0.2 * q) for q in qubits])
        for inputs in (["0" * n], ["+" * n, "1" * n, "0" * n]):
            recorder.products.clear()
            run_batch(prog, np.zeros((n, n)), inputs, noise=NoiseModel(), pulse_duration=1e-6)
            width = 4**n * len(inputs)
            assert recorder.products[-2 * len(qubits):] == [
                ((2, 2), (2, width // 2)), ((2, 2), (2, 2, width // 4))] * len(qubits)
            assert all(len(b) == 2 or b[0] <= 2 for _, b in recorder.products)


def test_blas_rounds_every_column_of_a_4k_wide_product_alike():
    # a pulse is one (2x2) @ (2 x 4^n B/2) product on the row bit and two (2x2) @
    # (2 x 4^(n-1) B) on the column bit, B slices wide; a single run is the same products at
    # B = 1. The pinned OpenBLAS zgemm rounds each column of a product whose width is a
    # multiple of 4 as it rounds that column's 4-column block, so every slice of a stack
    # keeps its single run's bits. Checked here for every width up to 2^19 columns, the row
    # product of a 10-qubit single run (4^10 / 2). The wider stacked products of 9 and 10
    # qubits (up to 4^10 17 / 2 columns, 285 MB an operand) are not allocated here.
    rng = np.random.default_rng(20261019)
    op = rotation_2x2(*rng.uniform(0, 2 * np.pi, 2))
    widths = {(n, b): (4**n * b // 2, 4**(n - 1) * b)
              for n in range(1, MAX_QUBITS + 1) for b in (1, 2, 3, 4, 17)}
    checked = sorted({w for pair in widths.values() for w in pair if w % 4 == 0 and w <= 2**19})
    assert 8192 in checked and 2**19 in checked  # the 7- and 10-qubit single-run row products
    pool = rng.normal(size=2 * checked[-1]) + 1j * rng.normal(size=2 * checked[-1])
    for width in checked:
        x = pool[:2 * width].reshape(2, width)
        blocks = np.ascontiguousarray(x.reshape(2, width // 4, 4).swapaxes(0, 1))
        by_blocks = np.matmul(op, blocks).swapaxes(0, 1).reshape(2, width)
        assert (op @ x).tobytes() == by_blocks.tobytes(), (
            f"zgemm rounds a {width}-column product unlike its 4-column blocks: stacked "
            "runs no longer equal single runs bit for bit on this BLAS")
    # every product is a multiple of 4 wide but the 1-qubit ones (2B and B columns), so
    # run_batch keeps 1-qubit stacks slice by slice and a 1-qubit op* runs transposed
    narrow = sorted({n for (n, _), pair in widths.items() if any(w % 4 for w in pair)})
    assert narrow == [1]


def test_wide_transform_stack_matches_single_runs():
    # run_all's 17-input stack of the calibrated KDD transform, slice by slice
    compiled = harness._compile_transform()
    prog = compiled.program
    labels = list(dict.fromkeys(label for _, _, labels in harness._BUILTINS.values()
                                for label in labels))
    assert len(labels) == 17
    stacked = run_batch(prog, compiled.couplings, labels)
    for label, res in zip(labels, stacked, strict=True):
        single = run_program(PulseProgram(3, [*label_pulses(label), *prog.instructions],
                                          relabel=prog.relabel), compiled.couplings).state
        assert res.state.rho.tobytes() == single.rho.tobytes(), label
        assert res.state.time == single.time and res.state.bases == single.bases


@pytest.mark.parametrize("size", [2, 4])
def test_one_qubit_stacks_match_single_runs(size):
    j = np.zeros((1, 1))
    prog = PulseProgram(1, [Rotate(0, np.pi / 3, 0.2), FreeEvolve(1e-3, 10, "kdd"),
                            PhaseShift(0, 0.7), TransferBasis(0, "pi"), FreeEvolve(5e-4),
                            TransferBasis(0, "sigma-"), Rotate(0, np.pi / 2, 1.1)])
    labels = ["0", "+", "1", "+"][:size]
    for pulse_duration in (0.0, 2e-6):
        stacked = run_batch(prog, j, labels, pulse_duration=pulse_duration)
        for label, res in zip(labels, stacked, strict=True):
            single = run_program(PulseProgram(1, [*label_pulses(label), *prog.instructions]), j,
                                 pulse_duration=pulse_duration).state
            assert res.state.rho.tobytes() == single.rho.tobytes()
            assert res.state.time == single.time and res.state.bases == single.bases


def test_a_label_runs_as_run_batch_runs_it():
    # run_program once prepared a label as a ket and run_batch by pulses: on the compiled
    # transform the two differed by up to 6.7e-16 (111, +11, 0+0, +++), and with
    # pulse_duration > 0 the ket skipped the preparation pulses' time
    compiled = harness._compile_transform()
    j2 = np.array([[0.0, 229.3], [229.3, 0.0]])
    small = [Rotate(0, np.pi / 3, 0.2), FreeEvolve(1e-3, 10, "kdd"), PhaseShift(0, 0.7)]
    cases = [(compiled.program, compiled.couplings),
             (PulseProgram(1, small), np.zeros((1, 1))),
             (PulseProgram(2, [*small, Rotate(1, np.pi / 2, 1.1), FreeEvolve(5e-4)]), j2)]
    for prog, j in cases:
        for label in map("".join, itertools.product("01+", repeat=prog.n_qubits)):
            for pulse_duration in (0.0, 2e-6):
                single = run_program(prog, j, initial=label, pulse_duration=pulse_duration).state
                [res] = run_batch(prog, j, [label], pulse_duration=pulse_duration)
                assert single.rho.tobytes() == res.state.rho.tobytes(), label
                assert single.time == res.state.time and single.bases == res.state.bases


@pytest.mark.parametrize("pulse_duration", [0.0, 2e-6])
def test_run_is_independent_of_the_initial_layout(rng, bench_j, pulse_duration):
    # a transposed (Fortran-ordered) rho must give the C-ordered run's bits, and stay as it is
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.3), Rotate(1, np.pi / 3, 1.1),
                            FreeEvolve(1e-3, 10, "kdd"), Rotate(0, np.pi, 0.0)])
    rho = random_density_matrix(rng, 8).conj().T
    assert rho.flags.f_contiguous and not rho.flags.c_contiguous
    kept = rho.copy()
    want = run_program(prog, bench_j, initial=np.ascontiguousarray(rho),
                       pulse_duration=pulse_duration).state
    for initial in (rho, np.asfortranarray(kept),
                    QuantumState(3, rho, (engine.BASIS_SIGMA_MINUS,) * 3)):
        got = run_program(prog, bench_j, initial=initial, pulse_duration=pulse_duration).state
        assert np.array_equal(got.rho, want.rho) and got.time == want.time
    assert np.array_equal(rho, kept)


# ---- Ramsey fringes ----

def test_fringe_minimum_at_pi_for_zero_wait(bench_j):
    phases = np.linspace(0.0, 2 * np.pi, 9)
    probs = ramsey_scan(0, 0.0, phases, bench_j, noise=NoiseModel.off())
    assert probs[4] == pytest.approx(0.0, abs=1e-12)   # phi = pi
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    assert probs.max() - probs.min() == pytest.approx(1.0, abs=1e-12)


def test_fringe_phase_tracks_neighbour_state(bench_j):
    t = 4e-3
    phases = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)

    def fitted_phase(bits):
        probs = ramsey_scan(0, t, phases, bench_j, noise=NoiseModel.off(),
                            spectator_bits=bits)
        # analytic minimum: phi0 + pi
        k = np.argmin(probs)
        return phases[k]

    up_up = fitted_phase({1: 1, 2: 1})
    up_down = fitted_phase({1: 1, 2: 0})
    expected_gap = (2 * bench_j[0, 2]) * t   # flipping spectator 2 changes rate by 2 J02
    gap = (up_up - up_down) % (2 * np.pi)
    assert gap == pytest.approx(expected_gap % (2 * np.pi), abs=2 * np.pi / 24 + 1e-9)


def test_ramsey_scan_checks_its_spectators(bench_j):
    phases = np.linspace(0.0, 2 * np.pi, 5)

    def scan(bits):
        return ramsey_scan(0, 1e-3, phases, bench_j, spectator_bits=bits, dd_pulses=2)

    # a bool is refused like any other non-int (True once ran as a flipped spectator)
    for bits in ({1: 2}, {2: -1}, {1: 0.5}, {2: "1"}, {1: np.nan}, {1: True}, {2: np.False_}):
        [(q, bit)] = bits.items()
        with pytest.raises(ProgramError, match=f"spectator qubit {q}: bit must be 0 or 1"):
            scan(bits)
    with pytest.raises(ProgramError, match="probe qubit cannot be its own spectator"):
        scan({0: 1})
    # a list died in a bare AttributeError
    with pytest.raises(ProgramError, match=r"spectator_bits must map qubit to bit, got \[1, 0\]"):
        scan([1, 0])
    with pytest.raises(EngineError, match="qubit 3 outside register of 3"):
        scan({3: 0})
    # numpy ints are bits; a spectator left out is in 0
    assert scan({1: np.int64(1), 2: 0}).tobytes() == scan({1: 1}).tobytes()
    assert scan({1: 0, 2: 0}).tobytes() == scan(None).tobytes()
