"""Static chain model: Coulomb crystal, axial modes, Zeeman addressing, spin-spin couplings.

A linear string of identical ions in a harmonic axial well, with a static
magnetic-field gradient along the trap axis. The gradient makes the qubit
splitting position dependent (per-ion addressing in frequency space) and
mediates an effective Ising coupling between the spins through the shared
motional modes:

    J_ij = sum_n nu_n eps_in eps_jn,   eps_in = (d omega_i / dz) (dz_n / nu_n) S_in

with dz_n = sqrt(hbar / (2 m nu_n)) the ground-state extent of mode n and
S_in the normal-mode matrix.
"""

import configparser
from dataclasses import dataclass

import numpy as np

from .constants import (
    ATOMIC_MASS,
    BOHR_MAGNETON,
    COULOMB_CONSTANT,
    ELEMENTARY_CHARGE,
    HBAR,
    PLANCK,
)
from .gates import check_finite_couplings


class ChainModelError(RuntimeError):
    """Raised when the chain model cannot be evaluated (non-convergence, bad modes)."""


@dataclass
class TrapConfig:
    """Trap and field parameters, SI units throughout.

    axial_frequency is the angular frequency of the axial centre-of-mass
    mode (rad/s). magnetic_gradient is dB/dz in T/m; bias_field is B at the
    reference coordinate. g_factor covers the g_F m_F product of the stretched
    qubit level, so the per-ion splitting is hbar*omega_i = g_factor * mu_B * B(z_i).
    """

    ion_count: int = 3
    ion_mass: float = 171.0 * ATOMIC_MASS
    axial_frequency: float = 2 * np.pi * 130e3
    magnetic_gradient: float = 19.0
    bias_field: float = 0.4146e-3
    reference_coordinate: float = 0.0
    charge: float = ELEMENTARY_CHARGE
    g_factor: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.ion_count < 1:
            raise ValueError("ion_count must be at least 1")
        if self.ion_mass <= 0 or self.axial_frequency <= 0 or self.charge <= 0:
            raise ValueError("ion_mass, axial_frequency and charge must be positive")
        if self.magnetic_gradient < 0:
            raise ValueError("magnetic_gradient must be non-negative")

    @property
    def length_scale(self):
        """Coulomb length l = (q^2 / (4 pi eps0 m nu1^2))^(1/3)."""
        return (COULOMB_CONSTANT * self.charge**2 / (self.ion_mass * self.axial_frequency**2)) ** (1.0 / 3.0)

    @classmethod
    def from_ini(cls, path):
        """Read a [trap] section from a key = value configuration file.

        Keys (all optional, defaults above): ion_count, ion_mass_amu,
        axial_frequency_hz (nu1/2pi), magnetic_gradient_t_per_m, bias_field_t,
        reference_coordinate_m, g_factor.
        """
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(path)
        if not read:
            raise ValueError(f"config file not found or empty: {path}")
        if "trap" not in parser:
            raise ValueError(f"{path}: missing [trap] section")
        sec = parser["trap"]
        try:
            kwargs = {}
            if "ion_count" in sec:
                kwargs["ion_count"] = sec.getint("ion_count")
            if "ion_mass_amu" in sec:
                kwargs["ion_mass"] = sec.getfloat("ion_mass_amu") * ATOMIC_MASS
            if "axial_frequency_hz" in sec:
                kwargs["axial_frequency"] = 2 * np.pi * sec.getfloat("axial_frequency_hz")
            if "magnetic_gradient_t_per_m" in sec:
                kwargs["magnetic_gradient"] = sec.getfloat("magnetic_gradient_t_per_m")
            if "bias_field_t" in sec:
                kwargs["bias_field"] = sec.getfloat("bias_field_t")
            if "reference_coordinate_m" in sec:
                kwargs["reference_coordinate"] = sec.getfloat("reference_coordinate_m")
            if "g_factor" in sec:
                kwargs["g_factor"] = sec.getfloat("g_factor")
        except ValueError as exc:
            raise ValueError(f"{path}: [trap] has a malformed value: {exc}") from exc
        return cls(**kwargs)


@dataclass
class ChainGeometry:
    positions: np.ndarray        # m, ascending
    scaled_positions: np.ndarray  # positions / length_scale, centred on 0
    length_scale: float          # m
    iterations: int
    gradient_norm: float


@dataclass
class ModeDecomposition:
    frequencies: np.ndarray      # rad/s, ascending; [0] is the centre-of-mass mode
    vectors: np.ndarray          # (n_ions, n_modes), column n is mode n, orthonormal
    ground_extents: np.ndarray   # m, sqrt(hbar / (2 m nu_n))


@dataclass
class ZeemanProfile:
    fields: np.ndarray           # T at each ion
    splittings: np.ndarray       # rad/s, qubit splitting per ion
    addressing_offsets_hz: np.ndarray  # Hz, relative to the reference coordinate
    gradient_rates: np.ndarray   # rad/(s m), d omega/dz per ion


@dataclass
class CouplingMatrix:
    j: np.ndarray                # rad/s, symmetric, zero diagonal
    provenance: str = "derived-from-trap"

    def __post_init__(self):
        j = np.asarray(self.j, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError("coupling matrix must be square")
        check_finite_couplings(j, ValueError)
        if not np.allclose(j, j.T, atol=1e-12 * max(1.0, np.abs(j).max())):
            raise ValueError("coupling matrix must be symmetric")
        np.fill_diagonal(j, 0.0)
        self.j = j

    @property
    def n_qubits(self):
        return self.j.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.j, dtype=dtype)


def _scaled_gradient(u):
    """Gradient of V(u) = sum u^2/2 + sum_{i<j} 1/|u_i - u_j| in scaled units."""
    n = len(u)
    g = u.copy()
    for k in range(n):
        for m in range(n):
            if m == k:
                continue
            d = u[k] - u[m]
            g[k] -= np.sign(d) / d**2
    return g


def _scaled_hessian(u):
    n = len(u)
    h = np.zeros((n, n))
    for k in range(n):
        for m in range(n):
            if m == k:
                continue
            inv3 = 2.0 / abs(u[k] - u[m]) ** 3
            h[k, m] = -inv3
            h[k, k] += inv3
    h += np.eye(n)
    return h


def equilibrium_positions(config, tol=1e-12, max_iter=200):
    """Equilibrium ion positions via damped Newton on the scaled potential.

    Starts from uniform spacing and iterates until the scaled gradient norm is
    below `tol`. Returns a ChainGeometry; positions are reference_coordinate +
    length_scale * u with the scaled coordinates centred on zero.
    """
    n = config.ion_count
    scale = config.length_scale
    if n == 1:
        return ChainGeometry(
            positions=np.array([config.reference_coordinate]),
            scaled_positions=np.zeros(1),
            length_scale=scale,
            iterations=0,
            gradient_norm=0.0,
        )
    # empirical minimum-spacing estimate keeps the start inside the basin
    spacing = 2.018 / n**0.559
    u = (np.arange(n) - (n - 1) / 2.0) * spacing
    gnorm = np.linalg.norm(_scaled_gradient(u))
    for iteration in range(1, max_iter + 1):
        g = _scaled_gradient(u)
        gnorm = np.linalg.norm(g)
        if gnorm < tol:
            break
        h = _scaled_hessian(u)
        step = np.linalg.solve(h, g)
        damp = 1.0
        for _ in range(40):
            trial = u - damp * step
            if np.all(np.diff(trial) > 0) and np.linalg.norm(_scaled_gradient(trial)) < gnorm:
                break
            damp *= 0.5
        else:
            raise ChainModelError(
                f"equilibrium search stalled at iteration {iteration}, |grad| = {gnorm:.3e}"
            )
        u = trial
    else:
        raise ChainModelError(
            f"equilibrium search did not reach |grad| < {tol:g} in {max_iter} iterations "
            f"(final |grad| = {gnorm:.3e})"
        )
    u -= u.mean()  # the quadratic well centres the crystal exactly
    return ChainGeometry(
        positions=config.reference_coordinate + scale * u,
        scaled_positions=u,
        length_scale=scale,
        iterations=iteration,
        gradient_norm=gnorm,
    )


def normal_modes(config, geometry=None):
    """Axial normal modes from the scaled Hessian at equilibrium.

    Eigenvalues lam_n give nu_n = nu1 * sqrt(lam_n); the lowest mode is the
    centre-of-mass mode at exactly nu1 with vector (1,...,1)/sqrt(N).
    """
    if geometry is None:
        geometry = equilibrium_positions(config)
    n = config.ion_count
    if n == 1:
        lam = np.array([1.0])
        vecs = np.ones((1, 1))
    else:
        lam, vecs = np.linalg.eigh(_scaled_hessian(geometry.scaled_positions))
    if np.any(lam <= 0):
        raise ChainModelError(f"non-positive mode eigenvalue encountered: {lam}")
    # deterministic sign: largest-magnitude component of each mode positive
    for col in range(vecs.shape[1]):
        pivot = np.argmax(np.abs(vecs[:, col]))
        if vecs[pivot, col] < 0:
            vecs[:, col] = -vecs[:, col]
    freqs = config.axial_frequency * np.sqrt(lam)
    extents = np.sqrt(HBAR / (2.0 * config.ion_mass * freqs))
    return ModeDecomposition(frequencies=freqs, vectors=vecs, ground_extents=extents)


def zeeman_profile(config, geometry=None):
    """Per-ion field, qubit splitting and addressing offset under the gradient.

    B(z_i) = bias_field + dB/dz * (z_i - reference_coordinate). Splittings are
    g_factor * mu_B * B / hbar; addressing offsets are quoted in Hz relative to
    the reference coordinate, g_factor * mu_B * (B(z_i) - B_ref) / h.
    """
    if geometry is None:
        geometry = equilibrium_positions(config)
    dz = geometry.positions - config.reference_coordinate
    fields = config.bias_field + config.magnetic_gradient * dz
    if np.any(fields < 0):
        raise ValueError(
            "bias_field too small: the field changes sign across the chain, "
            "so the per-ion splitting is not monotonic in position"
        )
    splittings = config.g_factor * BOHR_MAGNETON * fields / HBAR
    offsets_hz = config.g_factor * BOHR_MAGNETON * (fields - config.bias_field) / PLANCK
    rate = config.g_factor * BOHR_MAGNETON * config.magnetic_gradient / HBAR
    return ZeemanProfile(
        fields=fields,
        splittings=splittings,
        addressing_offsets_hz=offsets_hz,
        gradient_rates=np.full(config.ion_count, rate),
    )


def coupling_matrix(config, modes=None, zeeman=None):
    """Gradient-mediated Ising couplings J_ij (rad/s) for the configured chain.

    Modes and Zeeman profile not passed in share one equilibrium solve.
    """
    if modes is None or zeeman is None:
        geometry = equilibrium_positions(config)
        if modes is None:
            modes = normal_modes(config, geometry)
        if zeeman is None:
            zeeman = zeeman_profile(config, geometry)
    n = config.ion_count
    # eps_in = (d omega_i/dz) * (dz_n / nu_n) * S_in
    eps = (
        zeeman.gradient_rates[:, None]
        * (modes.ground_extents / modes.frequencies)[None, :]
        * modes.vectors
    )
    j = np.einsum("n,in,jn->ij", modes.frequencies, eps, eps)
    np.fill_diagonal(j, 0.0)
    return CouplingMatrix(j=j, provenance="derived-from-trap")


def save_couplings(path, couplings):
    """Write a coupling matrix as plain-text rows (rad/s)."""
    np.savetxt(path, couplings.j, fmt="%.12e")


def load_couplings(path):
    """Read a plain-text coupling matrix (rad/s); validates shape and symmetry."""
    j = np.atleast_2d(np.loadtxt(path))
    return CouplingMatrix(j=j, provenance="user-supplied")
