"""Reference computations for the benchmark's output checks.

Everything here is written from the physics and the conventions stated in
the package's module docstrings, not from its code, so a check built on it
does not compare the code under test with itself:

* qubit 0 is the most significant bit; sigma_z = diag(1, -1);
* R(theta, phi) = exp(-i theta/2 (sigma_x cos phi + sigma_y sin phi));
* PH(phi) = exp(-i phi sigma_z);
* a free window of length T is exp(+i T/2 sum_{i<j} s_i s_j J_ij z_i z_j),
  where s_k is +1 in sigma-, -1 in sigma+ and 0 in pi (registers start in
  sigma-);
* a decoupled window EV(T, n) is [T/2n, pi, T/n, pi, ..., pi, T/2n] with the
  pi pulses on every qubit; cpmg phases are all pi/2, kdd phases are blocks
  (pi/6, 0, pi/2, 0, pi/6) advanced by pi/2 on every other block;
* the transform window equations of the compiler's module docstring;
* the scaled chain potential V(u) = sum u^2/2 + sum_{i<j} 1/|u_i - u_j|.
"""

import numpy as np

# CODATA 2018 (SI)
HBAR = 6.62607015e-34 / (2.0 * np.pi)
ELEMENTARY_CHARGE = 1.602176634e-19
BOHR_MAGNETON = 9.2740100783e-24
VACUUM_PERMITTIVITY = 8.8541878128e-12
ATOMIC_MASS = 1.66053906660e-27

SENSITIVITY = {"sigma-": 1.0, "sigma+": -1.0, "pi": 0.0}


# ---------------------------------------------------------------- pulse programs

def dd_phases(n_pulses, scheme):
    if scheme == "cpmg":
        return [np.pi / 2] * n_pulses
    block = (np.pi / 6, 0.0, np.pi / 2, 0.0, np.pi / 6)
    return [p + (np.pi / 2) * (b % 2) for b in range(n_pulses // 5) for p in block]


def expand(instructions, n_qubits):
    """Flatten decoupled windows into waits and pi pulses.

    Instructions are tuples: ("R", q, theta, phi), ("PH", q, phi),
    ("EV", seconds, dd_pulses, scheme), ("XFER", q or "all", basis), ("MEAS",).
    Yields the same tuples with every EV turned into ("WAIT", seconds).
    """
    for ins in instructions:
        if ins[0] != "EV":
            yield ins
            continue
        _, duration, n_pulses, scheme = ins
        if not n_pulses:
            yield ("WAIT", duration)
            continue
        tau = duration / n_pulses
        yield ("WAIT", tau / 2)
        phases = dd_phases(n_pulses, scheme)
        for k, phi in enumerate(phases):
            for q in range(n_qubits):
                yield ("R", q, np.pi, phi)
            yield ("WAIT", tau if k < n_pulses - 1 else tau / 2)


def instructions_of(program):
    """The package's program objects as reference instruction tuples."""
    out = []
    for ins in program.instructions:
        kind = type(ins).__name__
        if kind == "Rotate":
            out.append(("R", ins.qubit, ins.theta, ins.phi))
        elif kind == "Echo":
            out.append(("R", ins.qubit, np.pi, ins.phi))
        elif kind == "PhaseShift":
            out.append(("PH", ins.qubit, ins.phi))
        elif kind == "FreeEvolve":
            out.append(("EV", ins.duration, ins.dd_pulses, ins.dd_scheme))
        elif kind == "TransferBasis":
            out.append(("XFER", ins.qubit, ins.target))
        elif kind == "Measure":
            out.append(("MEAS",))
        else:
            raise ValueError(f"no reference semantics for {kind}")
    return out


def rotation(theta, phi):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s * np.exp(-1j * phi)],
                     [-1j * s * np.exp(1j * phi), c]])


def z_signs(n_qubits):
    """(2^n, n) array of sigma_z eigenvalues, qubit 0 the most significant bit."""
    idx = np.arange(2**n_qubits)
    return np.array([1 - 2 * ((idx >> (n_qubits - 1 - k)) & 1) for k in range(n_qubits)]).T


def evolve(instructions, n_qubits, j, kets, relabel=None):
    """Noiseless statevector evolution of a batch of kets (columns of `kets`)."""
    dim = 2**n_qubits
    batch = kets.shape[1]
    psi = np.asarray(kets, dtype=complex).reshape((2,) * n_qubits + (batch,))
    z = z_signs(n_qubits)
    s = np.ones(n_qubits)
    for ins in expand(instructions, n_qubits):
        kind = ins[0]
        if kind in ("R", "PH"):
            q = ins[1]
            u = rotation(ins[2], ins[3]) if kind == "R" else np.diag(
                [np.exp(-1j * ins[2]), np.exp(1j * ins[2])])
            psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [q])), 0, q)
        elif kind == "WAIT":
            jw = np.triu(j * np.outer(s, s), 1)
            angle = ins[1] / 2 * np.einsum("ai,ij,aj->a", z, jw, z)
            psi = psi * np.exp(1j * angle).reshape((2,) * n_qubits + (1,))
        elif kind == "XFER":
            targets = range(n_qubits) if ins[1] == "all" else [ins[1]]
            for q in targets:
                s[q] = SENSITIVITY[ins[2]]
    if relabel is not None:
        psi = np.transpose(psi, list(relabel) + [n_qubits])
    return psi.reshape(dim, batch)


def dft(n_qubits):
    dim = 2**n_qubits
    k = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)


def window_residual(j, t1, t2, t3, a1, a2):
    """Largest modulus of the two complex transform-window equations."""
    rho23 = (t1 - t2) * j[1, 2] / 2
    x = np.exp(1j * j[1, 2] * t3 / 2)
    s1, c1 = np.sin(a1 / 2), np.cos(a1 / 2)
    s2, c2 = np.sin(a2 / 2), np.cos(a2 / 2)
    f1 = np.exp(1j * (rho23 + np.pi / 8)) * x / np.sqrt(2) - s1 * s2 * x**2 + c1 * c2
    f2 = np.exp(1j * (rho23 - np.pi / 8)) * x / np.sqrt(2) - s1 * c2 * x**2 - c1 * s2
    return max(abs(f1), abs(f2))


# ---------------------------------------------------------------- ion chain

def length_scale(mass, axial_frequency, charge=ELEMENTARY_CHARGE):
    k = 1.0 / (4.0 * np.pi * VACUUM_PERMITTIVITY)
    return (k * charge**2 / (mass * axial_frequency**2)) ** (1.0 / 3.0)


def _inverse_distances(u):
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return d


def scaled_gradient(u):
    d = _inverse_distances(u)
    return u - (np.sign(d) / d**2).sum(axis=1)


def scaled_hessian(u):
    d = _inverse_distances(u)
    h = -2.0 / np.abs(d) ** 3
    np.fill_diagonal(h, 0.0)
    np.fill_diagonal(h, 1.0 - h.sum(axis=1))
    return h


def couplings(u, mass, axial_frequency, gradient, g_factor=1.0):
    """J_ij = sum_n nu_n eps_in eps_jn, eps_in = (d omega/dz)(dz_n/nu_n) S_in."""
    lam, vecs = np.linalg.eigh(scaled_hessian(u))
    nu = axial_frequency * np.sqrt(lam)
    extent = np.sqrt(HBAR / (2.0 * mass * nu))
    rate = g_factor * BOHR_MAGNETON * gradient / HBAR
    eps = rate * (extent / nu)[None, :] * vecs
    j = (eps * nu[None, :]) @ eps.T
    np.fill_diagonal(j, 0.0)
    return j
