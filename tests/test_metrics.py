import dataclasses
import re

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
    phases = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    for probs in (np.full((2, 7), 0.5), np.full((2, 2, 8), 0.5), 0.5):
        with pytest.raises(MetricsError, match="need matching phase/probability arrays"):
            ramsey_fit(phases, probs)


def lstsq_fit(phases, probs, shots=None):
    """The per-row fit the stacked one replaced: an SVD lstsq solve and a 3x3 inverse."""
    x = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    beta, *_ = np.linalg.lstsq(x, probs, rcond=None)
    resid = probs - x @ beta
    if shots:
        var = np.clip(probs * (1.0 - probs), 1e-6, None) / shots
    else:
        var = np.full_like(probs, float(resid @ resid) / max(phases.size - 3, 1))
    xtx_inv = np.linalg.inv(x.T @ x)
    cov = xtx_inv @ (x.T * var) @ x @ xtx_inv
    offset, a, b = beta
    r2 = a * a + b * b
    sa2, sb2, sab = cov[1, 1], cov[2, 2], cov[1, 2]
    contrast = 2.0 * np.sqrt(r2)
    contrast_err = 2.0 * np.sqrt(max(a * a * sa2 + 2 * a * b * sab + b * b * sb2, 0.0) / r2)
    phase_err = np.sqrt(max(b * b * sa2 - 2 * a * b * sab + a * a * sb2, 0.0)) / r2
    degenerate = bool(r2 < 1e-18 or (contrast_err > 0 and contrast < 2 * contrast_err))
    return (offset, contrast, float(np.arctan2(-b, -a)), np.sqrt(max(cov[0, 0], 0.0)),
            contrast_err, phase_err, degenerate)


@pytest.mark.parametrize("shots", [None, 50])
@pytest.mark.parametrize("k", [1, 3, 16])
def test_stacked_ramsey_fit_matches_per_row_fits(k, shots, rng):
    # k = 3 is where a (k, 3) right-hand side would read as a stack of vectors on the
    # numpy 1.24 floor and as a matrix on 2.x; the fit solves for its (3, m) estimator instead
    phases = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    rows = np.array([synthetic_fringe(phases, rng.uniform(0.3, 0.7), rng.uniform(0.1, 0.9),
                                      rng.uniform(-np.pi, np.pi)) for _ in range(k)])
    rows = np.clip(rows + rng.normal(scale=0.02, size=rows.shape), 0.0, 1.0)
    if k > 1:  # a flat row, and one whose contrast is lost in its noise
        rows[0] = 0.5
        rows[1] = 0.5 + rng.normal(scale=0.02, size=16)
    fits = ramsey_fit(phases, rows, shots=shots)
    assert isinstance(fits, list) and len(fits) == k
    for row, fit in zip(rows, fits):
        # the single fit is the one-row case; both agree with the per-row lstsq fit
        for want in (lstsq_fit(phases, row, shots),
                     dataclasses.astuple(ramsey_fit(phases, row, shots=shots))):
            offset, contrast, phase, offset_err, contrast_err, phase_err, degenerate = want
            assert fit.degenerate == degenerate
            assert (fit.offset, fit.contrast, fit.offset_err) == pytest.approx(
                (offset, contrast, offset_err), abs=1e-12)
            if not degenerate:  # a degenerate fit's phase and its errors are not defined
                assert abs((fit.phase - phase + np.pi) % (2 * np.pi) - np.pi) <= 1e-10
                assert (fit.contrast_err, fit.phase_err) == pytest.approx(
                    (contrast_err, phase_err), rel=1e-9, abs=1e-12)
    if k > 1:
        assert fits[0].degenerate and fits[1].degenerate


def test_ramsey_fit_takes_none_or_a_positive_finite_shot_count():
    phases = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    probs = 0.5 - 0.4 * np.cos(phases - 0.3)
    # -3 made a bare sqrt warning, nan NaN errors, inf zero errors, 0 the residual path
    for shots in (-3, 0, 0.0, np.nan, np.inf, -np.inf, "50", 50j):
        with pytest.raises(MetricsError, match=f"shots must be None or a positive finite "
                                               f"number, got {re.escape(repr(shots))}$"):
            ramsey_fit(phases, probs, shots=shots)
    want = dataclasses.astuple(ramsey_fit(phases, probs, shots=50))
    for shots in (50.0, np.int64(50), np.float64(50.0)):
        assert dataclasses.astuple(ramsey_fit(phases, probs, shots=shots)) == want
    assert dataclasses.astuple(ramsey_fit(phases, probs, shots=0.5))[4] > want[4]


def test_ramsey_fit_errors_scale_below_the_variance_overflow():
    # a subnormal shot count overflowed the variance per point (a RuntimeWarning); below
    # 1e-200 shots the errors are taken at one shot and scaled by 1/sqrt(shots)
    phases = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    probs = 0.5 - 0.4 * np.cos(phases - 0.3)
    one = ramsey_fit(phases, probs, shots=1)
    for shots in (2.2e-311, 5e-324):
        fit = ramsey_fit(phases, probs, shots=shots)
        assert (fit.offset, fit.contrast, fit.phase) == (one.offset, one.contrast, one.phase)
        for err in ("offset_err", "contrast_err", "phase_err"):
            assert getattr(fit, err) == pytest.approx(getattr(one, err) / np.sqrt(shots))
    # a fringe of contrast 2e-150 at 5e-324 shots has a phase error past the largest float
    assert ramsey_fit(phases, 1e-150 * (1 - np.cos(phases)), shots=5e-324).phase_err == np.inf


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


def test_metrics_name_arrays_that_do_not_fit(rng):
    # each once escaped as numpy's bare ValueError or a RuntimeWarning, or ran: 2x3
    # "unitaries" gave a process fidelity of 9.0
    ket, factors = random_product_ket(rng, 3)
    nan_rho = np.eye(8) / 8
    nan_rho[0, 0] = np.nan
    for call, message in (
            (lambda: process_fidelity(np.ones((2, 3)), np.ones((2, 3))),
             r"u and v have shape \(2, 3\); unitaries must be square"),
            (lambda: process_fidelity(np.eye(4), np.eye(8)),
             r"u has shape \(4, 4\) but v has shape \(8, 8\)"),
            (lambda: state_fidelity(np.eye(4) / 4, np.eye(8) / 8),
             r"state of shape \(4, 4\) does not match target \(8, 8\)"),
            (lambda: statistical_overlap([0.5, 0.5], [1, 0, 0]),
             r"p has shape \(2,\) but q has shape \(3,\)"),
            (lambda: total_variation([0.5, 0.5], [1, 0, 0]), r"p has shape \(2,\) but q"),
            (lambda: distinguishability([1, 0, 0], [0.5, 0.5]), r"p has shape \(3,\) but q"),
            (lambda: fidelity_via_local_rotation(nan_rho, factors),
             r"state\[0, 0\] is \(nan\+0j\); state must be finite"),
            (lambda: factor_product_state(np.where(np.arange(8) == 2, np.nan, ket)),
             r"vec\[2\] is \(nan\+0j\); vec must be finite"),
            (lambda: state_fidelity("x", ket), "state must be an array of complex numbers"),
            (lambda: equatorial_phase(np.array([1.0, 0.0])), "no equatorial component"),
            # each of these warned, or raised numpy's bare LinAlgError
            (lambda: state_fidelity(np.eye(8) / 8, np.zeros(8)), "target is a zero ket"),
            (lambda: state_fidelity(np.zeros(8), np.eye(8) / 8), "state is a zero ket"),
            (lambda: state_fidelity(np.zeros(8), ket), "state is a zero ket"),
            (lambda: factor_product_state(np.zeros(8)), "vec is a zero ket"),
            (lambda: process_fidelity(np.zeros((0, 0)), np.zeros((0, 0))),
             r"u and v have shape \(0, 0\); unitaries must be square"),
            (lambda: ramsey_fit(np.zeros(8), np.full(8, 0.5)), "phases do not span a fringe"),
            (lambda: ramsey_fit(np.linspace(0, 6, 8), np.full(8, 1e200)),
             r"probs must lie in \[0, 1\] within 1e-9, got 1e\+200"),
            (lambda: error_budget(np.nan, 0.25, 0.96), "dephased_fidelity must be finite"),
            (lambda: error_budget(0.9, True, 0.96), "white_noise_fraction must be finite and "
                                                    ">= 0 and <= 1, got True")):
        with pytest.raises(MetricsError, match=message):
            call()


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
    rec = factor_product_state(psi)
    for got, want in zip(rec, factors):
        overlap = abs(np.vdot(got, want))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_factor_product_state_rejects_entangled():
    ghz = (product_input_ket("000") + product_input_ket("111")) / np.sqrt(2)
    with pytest.raises(MetricsError):
        factor_product_state(ghz)


def test_local_rotation_protocol_equals_direct_fidelity(rng):
    for _ in range(25):
        rho = random_density_matrix(rng, 8)
        psi, factors = random_product_ket(rng, 3)
        direct = state_fidelity(rho, psi)
        via = fidelity_via_local_rotation(rho, factors)
        assert via == pytest.approx(direct, abs=1e-10)


def test_stacked_fidelities_match_single_state_calls(rng):
    # a (8, 8, B) stack, slice b last, against one target per slice: the single-state call
    # is the one-slice case
    rhos = [random_density_matrix(rng, 8, rank=int(rng.integers(1, 9))) for _ in range(5)]
    targets = [random_product_ket(rng, 3) for _ in range(5)]
    stack = np.stack(rhos, axis=-1)
    direct = state_fidelity(stack, np.stack([psi for psi, _ in targets], axis=-1))
    rotation = fidelity_via_local_rotation(stack, np.stack([f for _, f in targets], axis=-1))
    assert direct.shape == rotation.shape == (5,)
    for b, (rho, (psi, factors)) in enumerate(zip(rhos, targets)):
        assert direct[b] == pytest.approx(state_fidelity(rho, psi), abs=1e-14)
        assert rotation[b] == pytest.approx(fidelity_via_local_rotation(rho, factors), abs=1e-14)
        assert rotation[b] == pytest.approx(direct[b], abs=1e-10)
    with pytest.raises(MetricsError, match="needs one ket per slice"):
        state_fidelity(stack, targets[0][0])


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
