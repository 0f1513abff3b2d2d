import numpy as np
import pytest

from conftest import (
    random_density_matrix,
    random_distribution,
    random_product_ket,
    random_pure_state,
)
from magicforge.engine import product_input_ket
from magicforge.metrics import (
    MetricsError,
    distinguishability,
    equatorial_phase,
    error_budget,
    factor_product_state,
    fidelity_via_local_rotation,
    fringe_fidelity,
    fringe_phase_for,
    process_fidelity,
    ramsey_fit,
    state_fidelity,
    statistical_overlap,
    total_variation,
)


# ---- fidelities ----

def test_state_fidelity_pure_overlap(rng):
    a = random_pure_state(rng, 8)
    b = random_pure_state(rng, 8)
    assert state_fidelity(a, b) == pytest.approx(abs(np.vdot(a, b)) ** 2, abs=1e-12)
    assert state_fidelity(a, a) == pytest.approx(1.0, abs=1e-12)


def test_state_fidelity_mixed_vs_pure(rng):
    rho = random_density_matrix(rng, 8)
    psi = random_pure_state(rng, 8)
    assert state_fidelity(rho, psi) == pytest.approx((psi.conj() @ rho @ psi).real, abs=1e-12)


def test_state_fidelity_uhlmann_properties(rng):
    rho = random_density_matrix(rng, 4)
    sig = random_density_matrix(rng, 4)
    f = state_fidelity(rho, sig)
    assert 0.0 <= f <= 1.0 + 1e-12
    assert f == pytest.approx(state_fidelity(sig, rho), abs=1e-10)
    assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_process_fidelity_unitary_pair(rng):
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (h + h.conj().T) / 2
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w)) @ v.conj().T
    assert process_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)
    assert process_fidelity(u, np.exp(0.7j) * u) == pytest.approx(1.0, abs=1e-12)
    assert process_fidelity(u, np.eye(8)) <= 1.0 + 1e-12


# ---- distribution overlap measures ----

def test_overlap_and_distance_properties(rng):
    for _ in range(50):
        p = random_distribution(rng, 8)
        q = random_distribution(rng, 8)
        s = statistical_overlap(p, q)
        d = distinguishability(p, q)
        assert 0.0 <= s <= 1.0 + 1e-12
        assert 0.0 <= d <= 1.0 + 1e-12
        assert s == pytest.approx(statistical_overlap(q, p), abs=1e-12)
        assert d == pytest.approx(distinguishability(q, p), abs=1e-12)
    p = random_distribution(rng, 8)
    assert statistical_overlap(p, p) == pytest.approx(1.0, abs=1e-12)
    assert total_variation(p, p) == pytest.approx(0.0, abs=1e-15)
    assert distinguishability(p, p) == pytest.approx(1.0, abs=1e-15)


def test_disjoint_distributions_are_fully_distinguishable():
    p = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([0.0, 0.0, 0.5, 0.5])
    assert statistical_overlap(p, q) == pytest.approx(0.0, abs=1e-15)
    assert distinguishability(p, q) == pytest.approx(0.0, abs=1e-15)
    assert total_variation(p, q) == pytest.approx(1.0, abs=1e-15)


# ---- fringe fitting ----

def synthetic_fringe(phases, offset, contrast, phi0):
    return offset - (contrast / 2.0) * np.cos(phases - phi0)


def test_ramsey_fit_recovers_noiseless_fringe():
    phases = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    probs = synthetic_fringe(phases, 0.48, 0.82, 1.1)
    fit = ramsey_fit(phases, probs)
    assert fit.offset == pytest.approx(0.48, abs=1e-12)
    assert fit.contrast == pytest.approx(0.82, abs=1e-12)
    assert fit.phase == pytest.approx(1.1, abs=1e-12)
    assert not fit.degenerate


def test_ramsey_fit_with_shot_noise(rng):
    phases = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    ideal = synthetic_fringe(phases, 0.5, 0.9, -0.7)
    shots = 400
    probs = rng.binomial(shots, ideal) / shots
    fit = ramsey_fit(phases, probs, shots=shots)
    assert fit.phase == pytest.approx(-0.7, abs=5 * fit.phase_err)
    assert fit.contrast == pytest.approx(0.9, abs=5 * fit.contrast_err)
    assert fit.phase_err < 0.1


def test_flat_fringe_is_degenerate(rng):
    phases = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    probs = np.full(16, 0.5) + rng.normal(scale=1e-3, size=16)
    fit = ramsey_fit(phases, probs, shots=100)
    assert fit.degenerate


def test_ramsey_fit_input_validation():
    with pytest.raises(MetricsError):
        ramsey_fit([0.0, 1.0], [0.5, 0.5])


def test_metrics_reject_non_finite_input(rng):
    phases = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    probs = 0.5 - 0.4 * np.cos(phases)
    with pytest.raises(MetricsError, match=r"probs\[3\] is nan; probs must be finite"):
        ramsey_fit(phases, np.where(np.arange(8) == 3, np.nan, probs))
    with pytest.raises(MetricsError, match=r"phases\[0\] is inf"):
        ramsey_fit(np.where(np.arange(8) == 0, np.inf, phases), probs, shots=100)
    ket = random_pure_state(rng, 8)
    rho = random_density_matrix(rng, 8)
    bad_ket = ket.copy()
    bad_ket[5] = np.nan
    with pytest.raises(MetricsError, match=r"target\[5\] is \(nan\+0j\)"):
        state_fidelity(rho, bad_ket)
    with pytest.raises(MetricsError, match=r"state\[5\] is"):
        state_fidelity(bad_ket, ket)
    bad_rho = rho.copy()
    bad_rho[2, 1] = np.inf
    with pytest.raises(MetricsError, match=r"state\[2, 1\] is \(inf"):
        state_fidelity(bad_rho, rho)


def test_total_variation_rejects_non_finite_input():
    with pytest.raises(MetricsError, match=r"p\[0\] is nan; p must be finite"):
        total_variation([np.nan, 1.0], [0.5, 0.5])
    with pytest.raises(MetricsError, match=r"q\[1\] is inf"):
        total_variation([0.5, 0.5], [0.5, np.inf])


def test_statistical_overlap_rejects_non_finite_input():
    with pytest.raises(MetricsError, match=r"p\[0\] is nan"):
        statistical_overlap([np.nan, 1.0], [0.5, 0.5])
    # an infinite entry would survive the clip to non-negative values
    with pytest.raises(MetricsError, match=r"q\[3\] is inf"):
        statistical_overlap(np.full(4, 0.25), [0.25, 0.25, 0.25, np.inf])


def test_distinguishability_rejects_non_finite_input():
    with pytest.raises(MetricsError, match=r"p\[1\] is inf; p must be finite"):
        distinguishability([0.5, np.inf], [0.5, 0.5])
    with pytest.raises(MetricsError, match=r"q\[0\] is -inf"):
        distinguishability([0.5, 0.5], [-np.inf, 0.5])


def test_process_fidelity_rejects_non_finite_input(rng):
    u = np.linalg.qr(random_density_matrix(rng, 4))[0]
    with pytest.raises(MetricsError, match=r"v\[0, 0\] is \(nan"):
        process_fidelity(u, np.full((4, 4), np.nan))
    bad = u.copy()
    bad[2, 3] = np.inf
    with pytest.raises(MetricsError, match=r"u\[2, 3\] is \(inf"):
        process_fidelity(bad, u)


def test_fringe_fidelity_from_phase():
    phases = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    probs = synthetic_fringe(phases, 0.5, 1.0, fringe_phase_for(0.4))
    fit = ramsey_fit(phases, probs)
    assert fringe_fidelity(fit, fringe_phase_for(0.4)) == pytest.approx(1.0, abs=1e-12)
    # a pi phase error with full contrast reads as fidelity zero
    assert fringe_fidelity(fit, fringe_phase_for(0.4 + np.pi)) == pytest.approx(0.0, abs=1e-12)


def test_equatorial_phase():
    v = np.array([1.0, np.exp(0.9j)]) / np.sqrt(2)
    rho = np.outer(v, v.conj())
    assert equatorial_phase(rho) == pytest.approx(0.9, abs=1e-12)


# ---- product-state factoring and the rotation protocol ----

def test_factor_product_state_recovers_factors(rng):
    psi, factors = random_product_ket(rng, 3)
    rec = factor_product_state(psi, 3)
    for got, want in zip(rec, factors):
        overlap = abs(np.vdot(got, want))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_factor_product_state_rejects_entangled():
    ghz = (product_input_ket("000") + product_input_ket("111")) / np.sqrt(2)
    with pytest.raises(MetricsError):
        factor_product_state(ghz, 3)


def test_local_rotation_protocol_equals_direct_fidelity(rng):
    for _ in range(25):
        rho = random_density_matrix(rng, 8)
        psi, factors = random_product_ket(rng, 3)
        direct = state_fidelity(rho, psi)
        via = fidelity_via_local_rotation(rho, factors)
        assert via == pytest.approx(direct, abs=1e-10)


# ---- error budget ----

def test_error_budget_decomposition():
    budget = error_budget(0.73, 0.25, 0.96)
    assert budget.predicted_fidelity == pytest.approx(0.57875, abs=1e-10)
    assert budget.white_noise_ceiling == pytest.approx(0.78125, abs=1e-10)
    assert budget.white_noise_infidelity == pytest.approx(0.21875, abs=1e-10)
    assert budget.detection_loss == pytest.approx(1.0 - 0.96**3, abs=1e-12)
    assert budget.pulse_error_residual == pytest.approx(
        budget.white_noise_infidelity - budget.detection_loss, abs=1e-12)


def test_error_budget_no_white_noise_is_transparent():
    budget = error_budget(0.9, 0.0, 1.0)
    assert budget.predicted_fidelity == pytest.approx(0.9)
    assert budget.white_noise_ceiling == pytest.approx(1.0)
    assert budget.detection_loss == pytest.approx(0.0)
