"""Fidelities, fringe-scan estimators and outcome-distribution comparisons.

Everything here is plain linear algebra on numpy arrays; density matrices may
be passed directly or as any object exposing a `.rho` attribute.
"""

from dataclasses import dataclass

import numpy as np

from .gates import product_ket, rotation_2x2


class MetricsError(ValueError):
    pass


def _as_rho(state):
    rho = getattr(state, "rho", state)
    return np.asarray(rho, dtype=complex)


def _check_finite(name, a):
    """Reject an argument with a NaN or infinite entry, naming the first one."""
    bad = ~np.isfinite(a)
    if bad.any():
        k = tuple(int(i) for i in np.argwhere(bad)[0])
        raise MetricsError(f"{name}[{', '.join(map(str, k))}] is {a[k]}; {name} must be finite")


def _sqrtm_psd(a):
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def state_fidelity(state, target):
    """Fidelity of a state against a pure ket or another density matrix.

    Pure target: <psi|rho|psi>. Mixed target: Uhlmann fidelity
    (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    """
    rho = _as_rho(state)
    target = np.asarray(getattr(target, "rho", target), dtype=complex)
    _check_finite("state", rho)
    _check_finite("target", target)
    if target.ndim == 1:
        t = target / np.linalg.norm(target)
        if rho.ndim == 1:
            return float(abs(np.vdot(t, rho / np.linalg.norm(rho))) ** 2)
        return float(np.real(t.conj() @ rho @ t))
    if rho.ndim == 1:
        return state_fidelity(target, rho)
    s = _sqrtm_psd(rho)
    return float(np.real(np.trace(_sqrtm_psd(s @ target @ s))) ** 2)


def process_fidelity(u, v):
    """Global-phase-insensitive overlap |tr(u^dag v)|^2 / d^2 of two unitaries."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    _check_finite("u", u)
    _check_finite("v", v)
    d = u.shape[0]
    return float(abs(np.trace(u.conj().T @ v)) ** 2 / d**2)


def _distributions(p, q):
    """p and q as float arrays, each checked finite."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    _check_finite("p", p)
    _check_finite("q", q)
    return p, q


def statistical_overlap(p, q):
    """Squared Bhattacharyya overlap (sum_k sqrt(p_k q_k))^2 of two distributions."""
    p, q = (np.clip(a, 0.0, None) for a in _distributions(p, q))
    return float(np.sqrt(p * q).sum() ** 2)


def total_variation(p, q):
    """Total variation distance 1/2 sum |p - q|."""
    p, q = _distributions(p, q)
    return float(0.5 * np.abs(p - q).sum())


def distinguishability(p, q):
    """1 minus the total variation distance; 1 for identical distributions."""
    return 1.0 - total_variation(p, q)


@dataclass
class FringeFit:
    offset: float
    contrast: float
    phase: float
    offset_err: float
    contrast_err: float
    phase_err: float
    degenerate: bool


def ramsey_fit(phases, probs, shots=None):
    """Least-squares fit of P(phi) = offset - (C/2) cos(phi - phi0).

    The model is linear in (offset, a, b) once expanded in cos phi and sin phi,
    so the fit is a single lstsq solve. With `shots` given, parameter errors
    propagate binomial variance per point; otherwise the residual variance is
    used. A fit whose contrast is indistinguishable from zero has no defined
    phase and is flagged degenerate.
    """
    phases = np.asarray(phases, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if phases.size != probs.size or phases.size < 4:
        raise MetricsError("need matching phase/probability arrays, at least 4 points")
    _check_finite("phases", phases)
    _check_finite("probs", probs)
    x = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    beta, *_ = np.linalg.lstsq(x, probs, rcond=None)
    resid = probs - x @ beta
    if shots:
        var = np.clip(probs * (1.0 - probs), 1e-6, None) / shots
    else:
        dof = max(phases.size - 3, 1)
        var = np.full_like(probs, float(resid @ resid) / dof)
    xtx_inv = np.linalg.inv(x.T @ x)
    cov = xtx_inv @ (x.T * var) @ x @ xtx_inv
    offset, a, b = beta
    r2 = a * a + b * b
    contrast = 2.0 * np.sqrt(r2)
    phase = float(np.arctan2(-b, -a))
    sa2, sb2, sab = cov[1, 1], cov[2, 2], cov[1, 2]
    if r2 > 0:
        contrast_err = 2.0 * np.sqrt(max(a * a * sa2 + 2 * a * b * sab + b * b * sb2, 0.0) / r2)
        phase_err = np.sqrt(max(b * b * sa2 - 2 * a * b * sab + a * a * sb2, 0.0)) / r2
    else:
        contrast_err = 2.0 * np.sqrt(max(sa2, sb2))
        phase_err = np.pi
    degenerate = bool(r2 < 1e-18 or (contrast_err > 0 and contrast < 2 * contrast_err))
    return FringeFit(float(offset), float(contrast), phase,
                     float(np.sqrt(max(cov[0, 0], 0.0))), float(contrast_err),
                     float(phase_err), degenerate)


def equatorial_phase(single_qubit_state):
    """Azimuth chi of a single-qubit state's coherence, arg <1|rho|0>."""
    rho = _as_rho(single_qubit_state)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    c = rho[1, 0]
    if abs(c) < 1e-12:
        raise MetricsError("state has no equatorial component; phase undefined")
    return float(np.angle(c))


def fringe_phase_for(chi):
    """Analysis-pulse phase phi0 at which a state of azimuth chi gives its fringe minimum."""
    return chi - np.pi / 2


def fringe_fidelity(fit, ideal_phase):
    """Fidelity of an equatorial qubit against its ideal from a fringe fit.

    For a target (|0> + e^{i chi}|1>)/sqrt(2) the overlap reads off the fringe
    as 1/2 + (C/2) cos(phi0 - phi*), with phi* the ideal fringe phase.
    """
    return float(0.5 + 0.5 * fit.contrast * np.cos(fit.phase - ideal_phase))


def factor_product_state(vec, n_qubits):
    """Split a product ket into per-qubit factors; raises if entangled (Schmidt value > 1e-9)."""
    vec = np.asarray(vec, dtype=complex)
    if vec.size != 2**n_qubits:
        raise MetricsError("state vector size does not match qubit count")
    vec = vec / np.linalg.norm(vec)
    factors = []
    rest = vec
    for _ in range(n_qubits - 1):
        m = rest.reshape(2, -1)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        if s.size > 1 and s[1] > 1e-9:
            raise MetricsError("state is not a product state")
        factors.append(u[:, 0])
        rest = s[0] * vh[0]
    factors.append(rest / np.linalg.norm(rest))
    return factors


def disentangling_rotations(target_kets):
    """Per-qubit pulses mapping each target factor to |0>.

    A factor with polar angle theta and azimuth chi returns to the pole under
    R(theta, chi - pi/2).
    """
    ops = []
    for psi in target_kets:
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        theta = 2.0 * np.arctan2(abs(psi[1]), abs(psi[0]))
        chi = float(np.angle(psi[1]) - np.angle(psi[0]))
        ops.append(rotation_2x2(theta, chi - np.pi / 2))
    return ops


def fidelity_via_local_rotation(state, target):
    """Overlap with a product target measured the way an experiment would.

    Rotate each qubit by the pulse that maps its ideal factor to |0>, then
    read the population of |00...0|. Equals <psi|rho|psi> exactly for a
    product target, given as its list of single-qubit kets.
    """
    rho = _as_rho(state)
    if len(target) != int(np.log2(rho.shape[0])):
        raise MetricsError("need one target factor per qubit")
    # the |00...0> population after the pulses R_k is <v|rho|v>, v = (x)_k R_k^dag |0>
    v = product_ket([op[0].conj() for op in disentangling_rotations(target)])
    return float(np.real(v.conj() @ rho @ v))


@dataclass
class ErrorBudget:
    predicted_fidelity: float
    white_noise_ceiling: float
    white_noise_infidelity: float
    detection_loss: float
    pulse_error_residual: float


def error_budget(dephased_fidelity, white_noise_fraction, readout_fidelity):
    """Decompose a three-qubit end-to-end fidelity into its modelled loss channels.

    predicted: zeta/8 + (1 - zeta) * dephased fidelity;
    ceiling: fidelity if dephasing were absent, zeta/8 + (1 - zeta);
    white-noise infidelity: the zeta*(1 - 1/8) gap below a perfect run,
    split into detection loss (chance that at least one of the three qubits
    reads out wrongly) and a residual attributed to imperfect pulses.
    """
    dim = 8
    zeta = white_noise_fraction
    predicted = zeta / dim + (1.0 - zeta) * dephased_fidelity
    ceiling = zeta / dim + (1.0 - zeta)
    white = zeta * (1.0 - 1.0 / dim)
    detection = 1.0 - readout_fidelity**3
    residual = white - detection
    return ErrorBudget(float(predicted), float(ceiling), float(white), float(detection), float(residual))
