import tracemalloc

import numpy as np
import pytest

from conftest import free_unitary, random_density_matrix, random_pure_state
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
    measurement_probabilities,
    prepare_state,
    program_unitary,
    ramsey_scan,
    run_program,
    sample_counts,
    selective_recoupling_wrap,
    transfer_basis,
)
from magicforge.gates import ket, rotation_2x2
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


@pytest.fixture
def plus_state():
    st = prepare_state(3, "000")
    for q in range(3):
        apply_rotation(st, q, np.pi / 2, np.pi / 2)
    return st


# ---- state preparation ----

def test_prepare_state_accepts_label_vector_matrix():
    assert prepare_state(3, "101").populations()[0b101] == pytest.approx(1.0)
    v = ket("010")
    assert prepare_state(3, v).populations()[0b010] == pytest.approx(1.0)
    rho = np.outer(v, v.conj())
    assert prepare_state(3, rho).populations()[0b010] == pytest.approx(1.0)
    with pytest.raises(EngineError):
        prepare_state(3, "0101")
    with pytest.raises(EngineError):
        prepare_state(3, np.ones(5))


def test_rotation_convention_on_register():
    st = prepare_state(2, "00")
    apply_rotation(st, 1, np.pi, 0.0)
    assert st.populations()[0b01] == pytest.approx(1.0, abs=1e-14)
    assert st.purity() == pytest.approx(1.0, abs=1e-12)


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
    assert res.state.purity() == pytest.approx(1.0, abs=1e-10)
    assert np.trace(res.state.rho).real == pytest.approx(1.0, abs=1e-10)


def test_noisy_channels_preserve_trace(rng):
    j = random_j(rng)
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(4e-3)])
    res = run_program(prog, j, noise=NoiseModel())
    assert np.trace(res.state.rho).real == pytest.approx(1.0, abs=1e-10)
    assert res.state.purity() < 1.0


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
    a = plus_state.copy()
    free_evolution(a, 1.9e-3, j)
    free_evolution(a, 0.6e-3, j)
    b = plus_state.copy()
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
    u = free_unitary(j, t, 3)
    expected = u @ psi
    assert st.rho == pytest.approx(np.outer(expected, expected.conj()), abs=1e-12)


def test_dephasing_mask_rates(plus_state):
    # full-weight coherence decays with the sum of all participating rates
    noise = NoiseModel(white_noise=False, readout=False)
    t = 4e-3
    st = plus_state
    rho0 = st.rho.copy()
    free_evolution(st, t, np.zeros((3, 3)), noise=noise)
    gamma = noise.sigma_dephasing_rate
    assert st.rho[0, 7] == pytest.approx(rho0[0, 7] * np.exp(-3 * gamma * t), rel=1e-12)
    assert st.rho[0, 4] == pytest.approx(rho0[0, 4] * np.exp(-1 * gamma * t), rel=1e-12)
    assert st.rho[1, 6] == pytest.approx(rho0[1, 6] * np.exp(-3 * gamma * t), rel=1e-12)


def test_parked_qubit_dephases_at_pi_rate():
    noise = NoiseModel(white_noise=False, readout=False)
    st = prepare_state(3, "000")
    apply_rotation(st, 0, np.pi / 2, 0.0)
    transfer_basis(st, 0, "pi")
    t = 10e-3
    free_evolution(st, t, np.zeros((3, 3)), noise=noise)
    transfer_basis(st, 0, "sigma-")
    coh = 2.0 * abs(st.rho[0b000, 0b100])
    assert coh == pytest.approx(np.exp(-noise.pi_dephasing_rate * t), rel=1e-10)


def test_transfer_to_pi_removes_conditional_phase():
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 250.0
    st = prepare_state(3, "010")
    apply_rotation(st, 0, np.pi / 2, 0.0)
    transfer_basis(st, 1, "pi")
    free_evolution(st, 3e-3, j)
    transfer_basis(st, 1, "sigma-")
    ref = prepare_state(3, "010")
    apply_rotation(ref, 0, np.pi / 2, 0.0)
    assert st.rho == pytest.approx(ref.rho, abs=1e-9)


def test_reencoding_flips_precession_sign():
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 250.0
    t = 2e-3

    def probe_phase(reencode):
        st = prepare_state(3, "010")
        apply_rotation(st, 0, np.pi / 2, 0.0)
        if reencode:
            transfer_basis(st, 0, "pi")
            transfer_basis(st, 0, "sigma+")
        free_evolution(st, t, j)
        r = st.reduced_density([0])
        return np.angle(r[1, 0])

    base = probe_phase(False)
    flipped = probe_phase(True)
    assert (base - flipped) == pytest.approx(2 * j[0, 1] * t, abs=1e-9)


def test_direct_sigma_transfer_is_rejected(rng):
    st = prepare_state(3, "000")
    with pytest.raises(EngineError, match="qubit 0: direct sigma- -> sigma\\+"):
        transfer_basis(st, 0, "sigma+")
    transfer_basis(st, 2, "pi")
    transfer_basis(st, 2, "sigma+")
    with pytest.raises(EngineError, match="qubit 2: direct sigma\\+ -> sigma-"):
        transfer_basis(st, "all", "sigma-")
    assert st.bases == ("sigma-", "sigma-", "sigma+")
    j = random_j(rng)
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
    with pytest.raises(EngineError):
        selective_recoupling_wrap(0.0, 1)


# ---- noise bookkeeping in run_program ----

def test_white_noise_applied_once_at_run_end(rng):
    j = random_j(rng)
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), FreeEvolve(2e-3),
                            Rotate(1, np.pi / 2, 0.5), FreeEvolve(2e-3)])
    zeta = 0.25
    full = run_program(prog, j, noise=NoiseModel(readout=False)).state.rho
    deph = run_program(prog, j, noise=NoiseModel(white_noise=False, readout=False)).state.rho
    assert full == pytest.approx(zeta * np.eye(8) / 8 + (1 - zeta) * deph, abs=1e-12)


def test_readout_confusion_kernel():
    p = np.zeros(8)
    p[0b000] = 1.0
    out = apply_readout_confusion(p, 0.96, 3)
    assert out[0b000] == pytest.approx(0.96**3)
    assert out[0b111] == pytest.approx(0.04**3)
    assert out[0b100] == pytest.approx(0.04 * 0.96**2)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_measurement_probabilities_toggle_readout():
    st = prepare_state(3, "000")
    on = measurement_probabilities(st, NoiseModel())
    off = measurement_probabilities(st, NoiseModel(readout=False))
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


def test_out_of_register_qubit_is_rejected(rng):
    j = random_j(rng)
    bad = [Rotate(5, np.pi, 0.0), TransferBasis(5, "pi"), Rotate(-1, np.pi, 0.0),
           PhaseShift(3, 0.2), Echo(-2)]
    for ins in bad:
        prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), ins, FreeEvolve(1e-3)])
        message = f"qubit {ins.qubit} outside register of 3"
        with pytest.raises(ProgramError, match=message):
            run_program(prog, j)
        with pytest.raises(ProgramError, match=message):
            program_unitary(prog, j)
    # "all" is in every register; a decoupled window expands inside it
    ok = PulseProgram(3, [TransferBasis("all", "pi"), FreeEvolve(1e-3, 2, "cpmg")])
    assert run_program(ok, j).state.bases == ("pi",) * 3


def test_per_step_kernels_bound_the_qubit():
    for q in (5, 3, -1):
        st = prepare_state(3, "000")
        with pytest.raises(EngineError, match=f"qubit {q} outside register of 3"):
            apply_rotation(st, q, np.pi)
        with pytest.raises(EngineError, match=f"qubit {q} outside register of 3"):
            transfer_basis(st, q, "pi")
        assert st.populations()[0] == 1.0 and st.bases == ("sigma-",) * 3


def test_free_evolution_rejects_non_finite_duration(bench_j):
    for duration in (float("nan"), float("inf"), -1e-3):
        st = prepare_state(3, "000")
        with pytest.raises(EngineError, match="duration must be finite and >= 0"):
            free_evolution(st, duration, bench_j, NoiseModel())
        assert st.time == 0.0 and np.isfinite(st.rho).all()


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
        QuantumState(3, nan_rho, ("sigma-",) * 3, (-1,) * 3)
    # within the stated tolerance a state is accepted unchanged
    rho = random_density_matrix(rng, 8) * (1 + STATE_TOLERANCE / 10)
    assert np.array_equal(prepare_state(3, rho).rho, rho)


def test_register_size_cap_is_checked_before_allocating():
    too_big = MAX_QUBITS + 1
    tracemalloc.start()
    try:
        with pytest.raises(EngineError, match=f"register of {too_big} qubits"):
            prepare_state(too_big)
        with pytest.raises(EngineError, match=f"register of {too_big} qubits"):
            program_unitary(PulseProgram(too_big, []), np.zeros((too_big, too_big)))
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
    with pytest.raises(EngineError, match=r"coupling J\[0, 1\] must be finite, got inf"):
        run_program(prog, j)
    with pytest.raises(EngineError, match=r"coupling J\[0, 1\] must be finite"):
        program_unitary(prog, j)


def test_measure_must_be_last(rng):
    j = random_j(rng)
    prog = PulseProgram(3, [Measure(), FreeEvolve(1e-3)])
    with pytest.raises(ProgramError):
        run_program(prog, j)


def test_pulse_duration_freezes_coupling():
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 300.0
    prog = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0)])
    res = run_program(prog, j, noise=NoiseModel(white_noise=False, readout=False),
                      pulse_duration=1e-3)
    # pulses are spin-locked: exposure produces dephasing but no zz phase
    st = res.state
    assert st.populations()[0b000] == pytest.approx(0.5, abs=1e-12)
    coh = 2 * abs(st.rho[0b000, 0b100])
    assert coh < 1.0


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
