"""Fidelities, fringe-scan estimators and outcome-distribution comparisons.

Everything here is plain linear algebra on numpy arrays; density matrices may
be passed directly or as any object exposing a `.rho` attribute.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gates import check_array, check_real


class MetricsError(ValueError):
    pass


def _sqrtm_psd(a):
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _unit(kets, name, axis=None):
    """`kets` (one, or columns with axis=0) over their norms; else a MetricsError naming `name`."""
    norm = np.linalg.norm(kets, axis=axis)
    if not np.all(norm):
        raise MetricsError(f"{name} is a zero ket; a ket must have a nonzero norm")
    return kets / norm


def _pure_fidelities(rho, kets, name):
    """<psi_b|rho_b|psi_b> over a (2^n, 2^n, B) stack, slice b last, for (2^n, B) kets."""
    t = _unit(kets, name, axis=0)
    return np.einsum("ib,ijb,jb->b", t.conj(), rho, t).real


def state_fidelity(state, target):
    """Fidelity of a state against a pure ket or another density matrix.

    Pure target: <psi|rho|psi>. Mixed target: Uhlmann fidelity
    (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2. A (2^n, 2^n, B) stack of states,
    slice b last as `run_batch` runs them, against a (2^n, B) stack of kets
    gives the B pure-target fidelities as an array; one state against one ket
    is its one-slice case.
    """
    rho = check_array(getattr(state, "rho", state), "state", MetricsError, complex, (1, 2, 3))
    target = check_array(getattr(target, "rho", target), "target", MetricsError, complex, (1, 2))
    if rho.ndim == 3:
        if target.shape != rho.shape[1:] or rho.shape[0] != rho.shape[1]:
            raise MetricsError(f"a stack of states {rho.shape} needs one ket per slice, "
                               f"{rho.shape[1:]}, got {target.shape}")
        return _pure_fidelities(rho, target, "target")
    if len({*rho.shape, *target.shape}) != 1:  # each a ket or a square matrix, of one size
        raise MetricsError(f"state of shape {rho.shape} does not match target {target.shape}")
    if target.ndim == 1:
        if rho.ndim == 1:
            return float(abs(np.vdot(_unit(target, "target"), _unit(rho, "state"))) ** 2)
        return float(_pure_fidelities(rho[..., None], target[:, None], "target")[0])
    if rho.ndim == 1:  # a ket against a density matrix: the pure fidelity the other way round
        return float(_pure_fidelities(target[..., None], rho[:, None], "state")[0])
    s = _sqrtm_psd(rho)
    return float(np.real(np.trace(_sqrtm_psd(s @ target @ s))) ** 2)


def process_fidelity(u, v):
    """Global-phase-insensitive overlap |tr(u^dag v)|^2 / d^2 of two unitaries."""
    u, v = _matched(u, v, ("u", "v"), complex, 2)
    if u.shape[0] != u.shape[1] or not u.size:
        raise MetricsError(f"u and v have shape {u.shape}; unitaries must be square and not empty")
    return float(abs(np.trace(u.conj().T @ v)) ** 2 / u.shape[0] ** 2)


def _matched(a, b, names, dtype=float, ndim=1):
    """Two arguments, each read by `check_array`, that must have one shape."""
    a, b = (check_array(x, name, MetricsError, dtype, ndim) for x, name in zip((a, b), names))
    if a.shape != b.shape:
        raise MetricsError(f"{names[0]} has shape {a.shape} but {names[1]} has shape {b.shape}")
    return a, b


def statistical_overlap(p, q):
    """Squared Bhattacharyya overlap (sum_k sqrt(p_k q_k))^2 of two distributions."""
    p, q = (np.clip(a, 0.0, None) for a in _matched(p, q, ("p", "q")))
    return float(np.sqrt(p * q).sum() ** 2)


def total_variation(p, q):
    """Total variation distance 1/2 sum |p - q|."""
    p, q = _matched(p, q, ("p", "q"))
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
    """Least-squares fit of P(phi) = offset - (C/2) cos(phi - phi0), one per row of `probs`.

    `probs` is one fringe (m,) over `phases`, or k fringes (k, m) over the same
    phases; a single fringe gives a FringeFit, k fringes a list of k. The model is
    linear in (offset, a, b) once expanded in cos phi and sin phi, so every row
    is fit by one estimator (x^T x)^-1 x^T of the shared design matrix x. With
    `shots` given, a positive finite number, parameter errors propagate binomial
    variance per point; with None, each row's residual variance is used. `probs` must lie
    in [0, 1] within 1e-9, and `phases` must hold 3 distinct phases mod 2 pi. A fit
    whose contrast is indistinguishable from zero has no defined phase and is
    flagged degenerate.
    """
    phases = check_array(phases, "phases", MetricsError)
    probs = check_array(probs, "probs", MetricsError)
    rows = np.atleast_2d(probs)
    if phases.ndim != 1 or probs.ndim not in (1, 2) or rows.shape[1] != phases.size \
            or phases.size < 4:
        raise MetricsError("need matching phase/probability arrays, at least 4 points: "
                           f"phases {phases.shape}, probs {probs.shape}")
    outside = rows[~(abs(rows - 0.5) <= 0.5 + 1e-9)]
    if outside.size:
        raise MetricsError(f"probs must lie in [0, 1] within 1e-9, got {float(outside[0])}")
    if shots is not None:  # positive: at least the least positive float
        check_real(shots, "shots", MetricsError, math.ulp(0.0),
                   message=f"shots must be None or a positive finite number, got {shots!r}")
    # errors scale as 1/sqrt(shots): below 1e-200 shots, where the variance would overflow,
    # they are taken at one shot and scaled
    unit, scale = (1.0, 1.0 / math.sqrt(shots)) if shots and shots < 1e-200 else (shots, 1.0)
    x = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    if np.linalg.matrix_rank(x) < 3:
        raise MetricsError("phases do not span a fringe: the fit needs 3 distinct phases mod 2 pi")
    estimator = np.linalg.solve(x.T @ x, x.T)  # (3, m)
    beta = rows @ estimator.T
    if shots is not None:
        var = np.clip(rows * (1.0 - rows), 1e-6, None) / unit
    else:
        resid = rows - beta @ x.T
        dof = max(phases.size - 3, 1)
        var = np.broadcast_to((resid * resid).sum(axis=1, keepdims=True) / dof, rows.shape)
    cov = np.einsum("im,km,jm->kij", estimator, var, estimator)
    offset, a, b = beta.T
    sa2, sb2, sab = cov[:, 1, 1], cov[:, 2, 2], cov[:, 1, 2]
    r2 = a * a + b * b
    contrast = 2.0 * np.sqrt(r2)
    tilted = r2 > 0
    r2_or_1 = np.where(tilted, r2, 1.0)  # a flat row takes the r2 = 0 branch, with no division
    radial = np.maximum(a * a * sa2 + 2 * a * b * sab + b * b * sb2, 0.0)
    tangential = np.maximum(b * b * sa2 - 2 * a * b * sab + a * a * sb2, 0.0)
    contrast_err = np.where(tilted, 2.0 * np.sqrt(radial / r2_or_1),
                            2.0 * np.sqrt(np.maximum(sa2, sb2))) * scale
    with np.errstate(over="ignore"):  # a near-flat fringe below 1e-200 shots: an inf error
        phase_err = np.where(tilted, np.sqrt(tangential) / r2_or_1 * scale, np.pi)
    degenerate = (r2 < 1e-18) | ((contrast_err > 0) & (contrast < 2 * contrast_err))
    phase = np.arctan2(-b, -a)
    offset_err = np.sqrt(np.maximum(cov[:, 0, 0], 0.0)) * scale
    fits = [FringeFit(*(float(v) for v in values[:6]), bool(values[6])) for values in
            zip(offset, contrast, phase, offset_err, contrast_err, phase_err, degenerate)]
    return fits[0] if probs.ndim == 1 else fits


def equatorial_phase(state):
    """Azimuth chi of a single-qubit state's coherence, arg <1|rho|0>."""
    rho = check_array(getattr(state, "rho", state), "state", MetricsError, complex)
    if rho.shape not in ((2,), (2, 2)):
        raise MetricsError(f"state of shape {rho.shape} is not a qubit's ket or rho")
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


def factor_product_state(vec):
    """Split a product ket of 2^n entries into its n per-qubit factors; raises if entangled
    (Schmidt value > 1e-9)."""
    vec = check_array(vec, "vec", MetricsError, complex, 1)
    if vec.size < 2 or vec.size & (vec.size - 1):
        raise MetricsError(f"vec of size {vec.size} is not a ket of a register (2^n entries)")
    factors, rest = [], _unit(vec, "vec")
    while rest.size > 2:  # split off the leading qubit
        m = rest.reshape(2, -1)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        if s.size > 1 and s[1] > 1e-9:
            raise MetricsError("state is not a product state")
        factors.append(u[:, 0])
        rest = s[0] * vh[0]
    factors.append(rest / np.linalg.norm(rest))
    return factors


def fidelity_via_local_rotation(state, target):
    """Overlap with a product target measured the way an experiment would.

    Rotate each qubit by the pulse R(theta, chi - pi/2) that maps its ideal
    factor, of polar angle theta and azimuth chi, to |0>, then read the
    population of |00...0>. Equals <psi|rho|psi> exactly for a product target,
    given as its n single-qubit kets (n, 2). A (2^n, 2^n, B) stack of states,
    slice b last, takes (n, 2, B) factors and gives the B fidelities as an
    array; a single state is its one-slice case.
    """
    rho = check_array(getattr(state, "rho", state), "state", MetricsError, complex, (2, 3))
    factors = check_array(target, "target", MetricsError, complex, rho.ndim)
    if rho.ndim == 2:
        return float(fidelity_via_local_rotation(rho[..., None], factors[..., None])[0])
    n = rho.shape[0].bit_length() - 1
    if n < 1 or rho.shape[:2] != (2**n, 2**n) or factors.shape != (n, 2, rho.shape[2]):
        raise MetricsError(f"target {factors.shape} is not a factor per qubit of state {rho.shape}")
    theta = 2.0 * np.arctan2(abs(factors[:, 1]), abs(factors[:, 0]))
    chi = np.angle(factors[:, 1]) - np.angle(factors[:, 0])
    # the |00...0> population after the pulses R_k is <v|rho|v>, v = (x)_k R_k^dag |0>,
    # and R(theta, chi - pi/2)^dag |0> = (cos theta/2, e^{i chi} sin theta/2)
    rows = np.stack([np.cos(theta / 2), np.exp(1j * chi) * np.sin(theta / 2)], axis=1)
    v = rows[0]
    for row in rows[1:]:
        v = (v[:, None] * row[None]).reshape(-1, v.shape[-1])
    return _pure_fidelities(rho, v, "target")


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
    check_real(dephased_fidelity, "dephased_fidelity", MetricsError)
    zeta = check_real(white_noise_fraction, "white_noise_fraction", MetricsError, 0, 1)
    check_real(readout_fidelity, "readout_fidelity", MetricsError, 0.5, 1)
    dim = 8
    predicted = zeta / dim + (1.0 - zeta) * dephased_fidelity
    ceiling = zeta / dim + (1.0 - zeta)
    white = zeta * (1.0 - 1.0 / dim)
    detection = 1.0 - readout_fidelity**3
    residual = white - detection
    return ErrorBudget(float(predicted), float(ceiling), float(white), float(detection), float(residual))
