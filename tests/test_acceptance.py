"""End-to-end acceptance checklist.

Each test is one numbered acceptance item, with the tolerance stated inline;
`pytest -v tests/test_acceptance.py` prints one pass/fail line per item.
Oracles are computed inside this module (explicit DFT matrix, eigendecomposed
matrix exponentials, closed-form rates) so every check is independent of the
implementation it judges.
"""

import numpy as np
import pytest

from conftest import (
    random_density_matrix,
    random_distribution,
    embed,
    random_product_ket,
    selective_recoupling_wrap,
)
from magicforge.chain import (
    TrapConfig,
    coupling_matrix,
    equilibrium_positions,
    normal_modes,
    zeeman_profile,
)
from magicforge.encoding import effective_couplings, topology_preset
from magicforge.engine import (
    NoiseModel,
    apply_rotation,
    measurement_probabilities,
    partial_trace,
    prepare_state,
    program_unitary,
    ramsey_scan,
    run_program,
)
from magicforge.gates import SX, SY, SZ
from magicforge.metrics import (
    distinguishability,
    equatorial_phase,
    error_budget,
    fidelity_via_local_rotation,
    ramsey_fit,
    state_fidelity,
    statistical_overlap,
)
from magicforge.program import FreeEvolve, PulseProgram, Rotate, TransferBasis
from magicforge.qft import compile_qft, plan_times, solve_entangling_params

GAMMA_SIGMA = 62.5      # 0.0625 / ms
ZETA = 0.25
READOUT = 0.96


def dft_matrix(dim):
    k, m = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * k * m / dim) / np.sqrt(dim)


def expm_i(h):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def prep_instructions(label):
    ins = []
    for q, ch in enumerate(label):
        if ch == "1":
            ins.append(Rotate(q, np.pi, 0.0))
        elif ch == "+":
            ins.append(Rotate(q, np.pi / 2, np.pi / 2))
    return ins


def prep_ket(label):
    out = np.array([1.0 + 0j])
    single = {"0": np.array([1.0, 0.0], dtype=complex),
              "1": np.array([0.0, 1.0], dtype=complex),
              "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)}
    for ch in label:
        out = np.kron(out, single[ch])
    return out


def transform_state(label, compiled, noise):
    program = PulseProgram(
        n_qubits=3,
        instructions=prep_instructions(label) + list(compiled.program.instructions),
        relabel=compiled.program.relabel)
    return run_program(program, compiled.couplings, noise=noise).state


def test_a01_compiled_process_infidelity_bounds(bench_j):
    """exact form within 1e-8 of the reference transform; optimized within 5e-3."""
    ref = dft_matrix(8)
    for form, tol in (("exact", 1e-8), ("optimized", 5e-3)):
        compiled = compile_qft(bench_j, form=form)
        u = program_unitary(compiled.program, bench_j)
        fid = abs(np.trace(u.conj().T @ ref)) ** 2 / 64.0
        assert 1.0 - fid <= tol, f"{form} infidelity {1 - fid:.3e} exceeds {tol}"


def test_a02_benchmark_schedule_parameters(bench_j):
    """schedule hits T1=3.69 ms, T2=0.22 ms, T3=4.87 ms, A1=0.686 pi, A2=0.716 pi within 1%."""
    t1, t2 = plan_times(bench_j)
    sol = solve_entangling_params(bench_j, t1, t2)
    assert t1 == pytest.approx(3.69e-3, rel=0.01)
    assert t2 == pytest.approx(0.22e-3, rel=0.01)
    assert sol.t3 == pytest.approx(4.87e-3, rel=0.01)
    assert sol.a1 == pytest.approx(0.686 * np.pi, rel=0.01)
    assert sol.a2 == pytest.approx(0.716 * np.pi, rel=0.01)


def test_a03_noisy_transform_fidelity_bands(bench_j):
    """mean basis-input fidelity 0.58+-0.07 under the full noise model; 0.73+-0.05 dephasing-only."""
    compiled = compile_qft(bench_j, form="optimized", dd_scheme="kdd")
    ref = dft_matrix(8)
    noises = {
        "full": NoiseModel(sigma_dephasing_rate=GAMMA_SIGMA, white_noise_fraction=ZETA,
                           readout_fidelity=1.0),
        "dephased": NoiseModel(sigma_dephasing_rate=GAMMA_SIGMA, white_noise_fraction=0.0,
                               readout_fidelity=1.0),
    }
    means = {}
    for tag, noise in noises.items():
        fids = []
        for k in range(8):
            label = format(k, "03b")
            state = transform_state(label, compiled, noise)
            fids.append(state_fidelity(state, ref @ prep_ket(label)))
        means[tag] = float(np.mean(fids))
    assert abs(means["full"] - 0.58) <= 0.07, f"full-noise mean {means['full']:.4f}"
    assert abs(means["dephased"] - 0.73) <= 0.05, f"dephased mean {means['dephased']:.4f}"


def test_a04_error_budget_decomposition():
    """error_budget(0.73, 0.25, 0.96): predicted fidelity in [0.575, 0.582], detection loss in [0.115, 0.116]."""
    budget = error_budget(0.73, ZETA, READOUT)
    assert 0.575 <= budget.predicted_fidelity <= 0.582
    assert 0.115 <= budget.detection_loss <= 0.116
    assert budget.detection_loss == pytest.approx(1.0 - READOUT**3, abs=1e-12)


def test_a05_chain_modes_addressing_and_coupling_scale():
    """mode ratios {1, sqrt3, sqrt(29/5)} to 1e-6; addressing split within 10% of 3.2 MHz; J ~ gradient^2 to 1e-10; adjacent J in 2pi x (25..55) Hz."""
    config = TrapConfig()   # 171 amu, 2pi x 130 kHz, 19 T/m
    geometry = equilibrium_positions(config)
    modes = normal_modes(config, geometry)
    ratios = modes.frequencies / modes.frequencies[0]
    assert ratios == pytest.approx([1.0, np.sqrt(3.0), np.sqrt(29.0 / 5.0)], rel=1e-6)
    zee = zeeman_profile(config, geometry)
    separation = zee.addressing_offsets_hz[1] - zee.addressing_offsets_hz[0]
    assert separation == pytest.approx(3.2e6, rel=0.10)
    j_lo = coupling_matrix(TrapConfig(magnetic_gradient=19.0, bias_field=5e-3)).j
    j_hi = coupling_matrix(TrapConfig(magnetic_gradient=57.0, bias_field=5e-3)).j
    off = ~np.eye(3, dtype=bool)
    assert j_hi[off] / j_lo[off] == pytest.approx(np.full(6, 9.0), rel=1e-10)
    j = coupling_matrix(config).j
    adjacent = j[0, 1] / (2 * np.pi)
    assert 25.0 <= adjacent <= 55.0, f"adjacent coupling {adjacent:.2f} Hz"


def test_a06_topology_control_and_recoupling(bench_j):
    """preset sign patterns exact; echoed and parked spins drop out of the conditional phase to 1e-9; transfer round trips are the identity to 1e-9."""
    base = np.array([[0.0, 3.0, 2.0], [3.0, 0.0, 5.0], [2.0, 5.0, 0.0]])
    patterns = {
        "A": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "B": [[0, -1, 1], [-1, 0, -1], [1, -1, 0]],
        "C": [[0, -1, -1], [-1, 0, 1], [-1, 1, 0]],
        "D": [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        "E": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    }
    for label, want in patterns.items():
        got = np.sign(effective_couplings(base, topology_preset(label))).astype(int)
        assert got.tolist() == want, f"preset {label}"

    # echo on spin 2 cancels its influence on the probe
    wrap = selective_recoupling_wrap(2.2e-3, 2)
    phases = []
    for bit in (0, 1):
        state = prepare_state(3, f"01{bit}")
        apply_rotation(state, 0, np.pi / 2, 0.0)
        res = run_program(wrap, bench_j, noise=NoiseModel.off(), initial=state.rho)
        phases.append(equatorial_phase(partial_trace(res.state.rho, 0)))
    assert abs(phases[0] - phases[1]) <= 1e-9

    # parked spin contributes no conditional phase
    t = 2.7e-3
    phases = []
    parked = PulseProgram(3, [Rotate(0, np.pi / 2, 0.0), TransferBasis(1, "pi"), FreeEvolve(t),
                              TransferBasis(1, "sigma-")])
    for bit in (0, 1):
        state = run_program(parked, bench_j, noise=NoiseModel.off(), initial=f"0{bit}0").state
        phases.append(equatorial_phase(partial_trace(state.rho, 0)))
    assert abs(phases[0] - phases[1]) <= 1e-9

    # round trips: working -> pi -> working and working -> pi -> other sigma -> back
    pulses = [Rotate(q, np.pi / 2, 0.4 * (q + 1)) for q in range(3)]
    before = run_program(PulseProgram(3, pulses), bench_j, noise=NoiseModel.off()).state.rho
    for trip in ([TransferBasis("all", "pi"), TransferBasis("all", "sigma-")],
                 [TransferBasis(0, "pi"), TransferBasis(0, "sigma+"), TransferBasis(0, "pi"),
                  TransferBasis(0, "sigma-")]):
        after = run_program(PulseProgram(3, pulses + trip), bench_j, noise=NoiseModel.off())
        assert np.abs(after.state.rho - before).max() <= 1e-9


def test_a07_conditional_precession_rates_and_dd_contrast(bench_j):
    """fitted fringe rates equal J01+J02 and J01-J02 to 1e-3 relative; 20-pulse decoupled contrast at 4 ms equals exp(-gamma T) to 1e-3."""
    phases = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    t = 4e-3

    def fitted_rate(spectators):
        fits = []
        for wait in (0.0, t):
            probs = ramsey_scan(0, wait, phases, bench_j, noise=NoiseModel.off(),
                                spectator_bits=spectators)
            fits.append(ramsey_fit(phases, probs))
        gap = np.angle(np.exp(1j * (fits[1].phase - fits[0].phase)))
        return gap / t

    both_up = fitted_rate({1: 1, 2: 1})
    assert both_up == pytest.approx(bench_j[0, 1] + bench_j[0, 2], rel=1e-3)
    anti = fitted_rate({1: 1, 2: 0})
    assert anti == pytest.approx(bench_j[0, 1] - bench_j[0, 2], rel=1e-3)

    noise = NoiseModel(sigma_dephasing_rate=GAMMA_SIGMA, white_noise_fraction=0.0,
                       readout_fidelity=1.0)
    probs = ramsey_scan(0, t, phases, bench_j, noise=noise,
                        spectator_bits={1: 0, 2: 0}, dd_pulses=20)
    fit = ramsey_fit(phases, probs)
    assert fit.contrast == pytest.approx(np.exp(-GAMMA_SIGMA * t), abs=1e-3)


def test_a08_transform_distribution_endpoints(bench_j):
    """noiseless: |111> maps to the uniform distribution and |+++> to a point mass, both to 1e-9; noisy overlap >= 0.95 for |111> and non-increasing with input coherence."""
    exact = compile_qft(bench_j, form="exact")
    uniform = transform_state("111", exact, NoiseModel.off()).populations()
    assert np.abs(uniform - 1.0 / 8.0).max() <= 1e-9
    point = transform_state("+++", exact, NoiseModel.off()).populations()
    assert abs(point[0] - 1.0) <= 1e-9
    assert np.abs(point[1:]).max() <= 1e-9

    compiled = compile_qft(bench_j, form="optimized", dd_scheme="kdd")
    noise = NoiseModel(sigma_dephasing_rate=GAMMA_SIGMA, white_noise_fraction=ZETA,
                       readout_fidelity=READOUT)
    ref = dft_matrix(8)
    overlaps = []
    for label in ("111", "+11", "++1", "+++"):
        state = transform_state(label, compiled, noise)
        p_model = measurement_probabilities(state, noise)
        p_ideal = np.abs(ref @ prep_ket(label)) ** 2
        overlaps.append(statistical_overlap(p_model, p_ideal))
    assert overlaps[0] >= 0.95, f"overlap on the eigenstate input {overlaps[0]:.4f}"
    assert all(a >= b - 1e-12 for a, b in zip(overlaps, overlaps[1:])), overlaps


def test_a09_overlap_metric_property_volume(rng):
    """SSO and D bounds/symmetry/identity on 1000 random pairs; rotation-protocol fidelity equals direct fidelity to 1e-10 on 1000 separable targets."""
    for _ in range(1000):
        p = random_distribution(rng, 8)
        q = random_distribution(rng, 8)
        s, d = statistical_overlap(p, q), distinguishability(p, q)
        assert -1e-12 <= s <= 1.0 + 1e-12
        assert -1e-12 <= d <= 1.0 + 1e-12
        assert s == pytest.approx(statistical_overlap(q, p), abs=1e-12)
        assert d == pytest.approx(distinguishability(q, p), abs=1e-12)
        assert statistical_overlap(p, p) == pytest.approx(1.0, abs=1e-12)
        assert distinguishability(p, p) == pytest.approx(1.0, abs=1e-12)
        if not np.allclose(p, q, atol=1e-6):
            assert s < 1.0 and d < 1.0
    for _ in range(1000):
        rho = random_density_matrix(rng, 8, rank=int(rng.integers(1, 9)))
        psi, factors = random_product_ket(rng, 3)
        assert fidelity_via_local_rotation(rho, factors) == pytest.approx(
            state_fidelity(rho, psi), abs=1e-10)


def test_a10_pauli_exponential_identities(rng):
    """pi-pulse conjugation and two-window composition as 8x8 operator equations at 20 random draws, tol 1e-10; two-spin Pauli exponentials expand as cos + i sin."""
    z = [embed(SZ, q, 3) for q in range(3)]
    x2 = embed(SX, 2, 3)
    r3 = expm_i(-np.pi / 2 * x2)        # pi pulse on the third spin, phase 0

    def ising_u(j12, j13, j23, t):
        h = t / 2 * (j12 * z[0] @ z[1] + j13 * z[0] @ z[2] + j23 * z[1] @ z[2])
        return expm_i(h)

    for _ in range(20):
        j12, j13, j23 = rng.uniform(50, 400, size=3)
        t1, t2 = rng.uniform(0.2e-3, 6e-3, size=2)
        # conjugating by the pi pair flips every coupling to the echoed spin;
        # the two half-turns also contribute a global factor of -1
        lhs = r3 @ ising_u(j12, j13, j23, t1) @ r3
        rhs = -ising_u(j12, -j13, -j23, t1)
        assert np.abs(lhs - rhs).max() <= 1e-10
        lhs = ising_u(j12, j13, j23, t2) @ r3 @ ising_u(j12, j13, j23, t1) @ r3
        h = ((t1 + t2) * j12 * z[0] @ z[1]
             + (t2 - t1) * (j13 * z[0] @ z[2] + j23 * z[1] @ z[2])) / 2
        rhs = -expm_i(h)
        assert np.abs(lhs - rhs).max() <= 1e-10

    paulis = {"x": SX, "y": SY, "z": SZ}
    for _ in range(20):
        phi = rng.uniform(-2 * np.pi, 2 * np.pi)
        k, p = rng.choice(list(paulis), size=2)
        op = np.kron(paulis[k], paulis[p])
        expected = np.cos(phi) * np.eye(4) + 1j * np.sin(phi) * op
        assert np.abs(expm_i(phi * op) - expected).max() <= 1e-10
