"""Static chain model: Coulomb crystal, axial modes, Zeeman addressing, spin-spin couplings.

A linear string of identical ions in a harmonic axial well, with a static
magnetic-field gradient along the trap axis. The gradient makes the qubit
splitting position dependent (per-ion addressing in frequency space) and
mediates an effective Ising coupling between the spins through the shared
motional modes:

    J_ij = sum_n nu_n eps_in eps_jn,   eps_in = (d omega_i / dz) (dz_n / nu_n) S_in

with dz_n = sqrt(hbar / (2 m nu_n)) the ground-state extent of mode n and
S_in the normal-mode matrix.

Each ion pair i < k is evaluated once per Newton iterate and mirrored to (k, i): exactly, since
IEEE subtraction and division are sign-symmetric (u_k - u_i = -(u_i - u_k), (-s)/p = -(s/p)),
so every double reaching the folds, LAPACK and the J einsum is the full n x n evaluation's.

In Coulomb length units the crystal u and its Hessian's eigensystem depend on N alone (James,
Appl. Phys. B 66, 181 (1998)), so each is solved once per N and cached; J keeps its bits, as the
same statements run on the same doubles and mass, nu1 and the fields enter only afterwards.
"""

import configparser
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import (
    ATOMIC_MASS,
    BOHR_MAGNETON,
    COULOMB_CONSTANT,
    ELEMENTARY_CHARGE,
    HBAR,
    MAX_IONS,
    PLANCK,
)
from .gates import check_couplings, check_int, check_real


class ChainModelError(RuntimeError):
    """Raised when the chain model cannot be evaluated (non-convergence, bad modes)."""


# [trap] key: (TrapConfig field, factor to SI units; None for an int count)
_TRAP_KEYS = {
    "ion_count": ("ion_count", None),
    "ion_mass_amu": ("ion_mass", ATOMIC_MASS),
    "axial_frequency_hz": ("axial_frequency", 2 * np.pi),
    "magnetic_gradient_t_per_m": ("magnetic_gradient", 1.0),
    "bias_field_t": ("bias_field", 1.0),
    "reference_coordinate_m": ("reference_coordinate", 1.0),
    "g_factor": ("g_factor", 1.0),
}


def read_number(text, kind):
    """`text` read as a `kind` (int or float) number. It must be ASCII text: int() and float()
    would also read other scripts' digits, such as a fullwidth '３'."""
    if not text.isascii():
        raise ValueError("a number must be ASCII text")
    return kind(text)


def read_ini(path, section, kinds):
    """{key: value} for each key that [`section`] of the INI file `path` sets, read as
    `kinds[key]`: str, bool (as configparser reads a boolean), or an int or float by
    `read_number`; `#` and `;` start inline comments. An unreadable file, a missing section,
    a key not in `kinds`, a malformed value and configparser's own errors raise a ValueError
    without the path, which the caller adds."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(path):
            raise ValueError("config file not found, or cannot read it")
        if not parser.has_section(section):
            raise ValueError(f"missing [{section}] section")
        sec = parser[section]
        for key in sec:
            if key not in kinds:
                raise ValueError(f"[{section}] has unknown key {key!r}; known: {', '.join(kinds)}")
        values = {}
        for key in filter(sec.__contains__, kinds):
            text, kind = sec[key], kinds[key]
            try:
                values[key] = (text if kind is str else sec.getboolean(key) if kind is bool
                               else read_number(text, kind))
            except ValueError as exc:
                raise ValueError(f"[{section}] {key} = {text!r} is malformed: {exc}") from None
        return values
    except configparser.Error as exc:
        raise ValueError(exc) from exc


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
        count = self.ion_count
        check_int(count, "ion_count", ValueError, 1,
                  message=f"ion_count must be an int of at least 1, got {count!r}")
        check_int(count, "ion_count", ValueError, high=MAX_IONS,
                  message=f"ion_count {count} is above MAX_IONS = {MAX_IONS}, "
                          "the longest chain the equilibrium solver converges on")
        for name, value in vars(self).items():
            check_real(value, name, ValueError)
        if self.ion_mass <= 0 or self.axial_frequency <= 0 or self.charge <= 0:
            raise ValueError("ion_mass, axial_frequency and charge must be positive")
        if self.magnetic_gradient < 0:
            raise ValueError("magnetic_gradient must be non-negative")
        with np.errstate(all="ignore"):  # numpy scalars overflow to inf, 0 or nan: checked below
            try:
                scale = self.length_scale
            except ArithmeticError:  # m nu1^2 underflows to 0 or overflows
                scale = 0.0
            if not 0.0 < scale < math.inf:
                raise ValueError(f"axial_frequency {self.axial_frequency:g} rad/s and ion_mass "
                                 f"{self.ion_mass:g} kg give no finite Coulomb length scale")
            for name in ("bias_field", "magnetic_gradient"):
                if not math.isfinite(self.g_factor * BOHR_MAGNETON * getattr(self, name) / HBAR):
                    raise ValueError(f"{name} {getattr(self, name):g} overflows its Zeeman rate "
                                     f"g_factor mu_B {name} / hbar")

    @property
    def length_scale(self):
        """Coulomb length l = (q^2 / (4 pi eps0 m nu1^2))^(1/3)."""
        return (COULOMB_CONSTANT * self.charge**2 / (self.ion_mass * self.axial_frequency**2)) ** (1.0 / 3.0)

    @classmethod
    def from_ini(cls, path):
        """Read a [trap] section from a key = value configuration file.

        Keys (all optional, defaults above): ion_count, ion_mass_amu,
        axial_frequency_hz (nu1/2pi), magnetic_gradient_t_per_m, bias_field_t,
        reference_coordinate_m, g_factor. Any other key is rejected.
        """
        kinds = {key: int if factor is None else float for key, (_, factor) in _TRAP_KEYS.items()}
        try:
            kwargs = {}
            for key, value in read_ini(path, "trap", kinds).items():
                name, factor = _TRAP_KEYS[key]
                kwargs[name] = value if factor is None else value * factor
                try:  # the value alone, against the defaults, so an error names its key
                    cls(**{name: kwargs[name]})
                except ValueError as exc:  # with the value as written in the file
                    text = read_ini(path, "trap", dict.fromkeys(_TRAP_KEYS, str))[key]
                    raise ValueError(f"{exc} ([trap] {key} = {text})") from None
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


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

    def __post_init__(self):
        # a copy, so zeroing the diagonal never writes into the caller's array
        self.j = check_couplings(self.j, None, ValueError).copy()
        np.fill_diagonal(self.j, 0.0)


@functools.lru_cache(maxsize=MAX_IONS)
def _upper(n):
    """The n x n mask of the pairs i < k, built once per chain length (every length fits)."""
    return np.triu(np.ones((n, n), dtype=bool), 1)


def _gaps(u):
    """(d, |d|) over the pairs i < k in row order, d = u_i - u_k: each pair once per iterate."""
    d = np.subtract.outer(u, u)[_upper(len(u))]
    return d, np.abs(d)


def _pair_powers(gaps, y):
    """|u_i - u_k|**y from the pair gaps |d|, each pair once.

    np.float_power calls the C library's pow per element, as the per-pair scalar pow J was
    frozen with did; never np.power, whose SIMD pow (x*x for y = 2) rounds the last bit
    differently (numpy 2.4.6, 200,000 gaps log-uniform over 1e-3..1e3: 10,362 at y = 3,
    171 at y = 2). The benchmark's frozen shot counts on 4-7 ion traps hang on that bit.
    """
    return np.float_power(gaps, y)


def _mirror(above, below, out):
    """`out` with pair p = (i, k)'s term above[p] at (i, k) and below[p] at (k, i), exactly."""
    out[_upper(len(out))], out.T[_upper(len(out))] = above, below
    return out


def _scaled_gradient(u, gaps=None):
    """Gradient of V(u) = sum u^2/2 + sum_{i<j} 1/|u_i - u_j| in scaled units; gaps = _gaps(u)."""
    d, dist = _gaps(u) if gaps is None else gaps
    t = np.sign(d) / _pair_powers(dist, 2.0)
    folded = np.zeros((len(u), len(u) + 1))  # u_k, then ion k's pair terms (0.0 for k itself)
    folded[:, 0] = u
    _mirror(t, -t, folded[:, 1:])
    # a left fold, u_k minus each pair term in turn, so the sum rounds as a pair loop would
    return np.subtract.reduce(folded, axis=1)


def _scaled_hessian(u, gaps=None):
    t = -2.0 / _pair_powers((_gaps(u) if gaps is None else gaps)[1], 3.0)
    h = _mirror(t, t, np.zeros((len(u), len(u))))
    # 1 + the pair terms folded in pair order (0 - (-a) == 0 + a; the diagonal's 0.0 adds nothing)
    h.flat[::len(u) + 1] = np.subtract.reduce(h, axis=1, initial=0.0) + 1.0
    return h


def _rounding_floor(u):
    """16 eps |s|, with s_k = |u_k| + sum_m 1/(u_k - u_m)^2 the magnitude of ion k's gradient
    terms. A converged chain's |grad| stagnates at 0.15-7.7 eps |s| (2-120 ions, measured under
    OpenBLAS's SkylakeX, Haswell and Sandybridge kernels), so no damped step lowers it further."""
    s = 1.0 / _pair_powers(_gaps(u)[1], 2.0)
    terms = np.abs(u) + _mirror(s, s, np.zeros((len(u), len(u)))).sum(axis=1)
    return 16.0 * np.finfo(float).eps * float(np.linalg.norm(terms))


@functools.lru_cache(maxsize=MAX_IONS)
def _scaled_equilibrium(n):
    """(u, iterations, |grad|) of the n-ion crystal in the Coulomb length unit, u read-only:
    damped Newton from uniform spacing, at most 200 iterations, until |grad| < 1e-12. A long
    chain's gradient can round above 1e-12; once no damped step lowers |grad|, the search stops
    there if |grad| is within the rounding floor (`_rounding_floor`), and fails above it. A
    failed search raises, so only a solved length is cached."""
    # empirical minimum-spacing estimate keeps the start inside the basin
    spacing = 2.018 / n**0.559
    u = (np.arange(n) - (n - 1) / 2.0) * spacing
    gaps = _gaps(u)  # each iterate's gaps serve its gradient and then its Hessian
    g = _scaled_gradient(u, gaps)
    gnorm = np.sqrt(g.dot(g))  # what np.linalg.norm computes, without its checks
    for iteration in range(1, 201):
        if gnorm < 1e-12:
            break
        step = np.linalg.solve(_scaled_hessian(u, gaps), g)
        damp = 1.0
        for _ in range(40):
            trial = u - damp * step
            if (trial[1:] > trial[:-1]).all():
                # the accepted trial's gradient and gaps are the next iteration's
                trial_gaps = _gaps(trial)
                g_trial = _scaled_gradient(trial, trial_gaps)
                gnorm_trial = np.sqrt(g_trial.dot(g_trial))
                if gnorm_trial < gnorm:
                    break
            damp *= 0.5
        else:
            floor = _rounding_floor(u)
            if gnorm > floor:
                raise ChainModelError(f"equilibrium search stalled at iteration {iteration}, "
                                      f"|grad| = {gnorm:.3e}, above its rounding floor "
                                      f"{floor:.3e}")
            break
        u, gaps, g, gnorm = trial, trial_gaps, g_trial, gnorm_trial
    else:
        raise ChainModelError(
            "equilibrium search did not reach |grad| < 1e-12 in 200 iterations "
            f"(final |grad| = {gnorm:.3e})"
        )
    u -= u.mean()  # the quadratic well centres the crystal exactly
    u.flags.writeable = False
    return u, iteration, gnorm


def equilibrium_positions(config):
    """ChainGeometry at reference_coordinate + length_scale * u, u the centred scaled crystal
    that `_scaled_equilibrium` solves once per ion count; its arrays are the caller's own."""
    n = config.ion_count
    scale = config.length_scale
    if n == 1:
        return ChainGeometry(positions=np.array([config.reference_coordinate]),
                             scaled_positions=np.zeros(1), length_scale=scale, iterations=0,
                             gradient_norm=0.0)
    u, iterations, gnorm = _scaled_equilibrium(n)
    return ChainGeometry(positions=config.reference_coordinate + scale * u,
                         scaled_positions=u.copy(), length_scale=scale, iterations=iterations,
                         gradient_norm=gnorm)


@functools.lru_cache(maxsize=MAX_IONS)
def _scaled_modes(key):
    """`eigh`'s (lam, vectors), read-only, of the scaled Hessian at the float64 u bytes `key`."""
    lam, vecs = np.linalg.eigh(_scaled_hessian(np.frombuffer(key)))
    lam.flags.writeable = vecs.flags.writeable = False
    return lam, vecs


def normal_modes(config, geometry):
    """Axial normal modes from the scaled Hessian at the equilibrium `geometry`.

    Eigenvalues lam_n give nu_n = nu1 * sqrt(lam_n); the lowest mode is the
    centre-of-mass mode at exactly nu1 with vector (1,...,1)/sqrt(N). The eigensystem is
    cached by u's bytes (`_scaled_modes`); every returned array is new.
    """
    lam, vecs = _scaled_modes(np.asarray(geometry.scaled_positions, dtype=float).tobytes())
    if np.any(lam <= 0):
        raise ChainModelError(f"non-positive mode eigenvalue encountered: {lam}")
    # deterministic sign: largest-magnitude component of each mode positive
    pivots = np.argmax(np.abs(vecs), axis=0)
    vecs = vecs * np.sign(vecs[pivots, np.arange(vecs.shape[1])])
    freqs = config.axial_frequency * np.sqrt(lam)
    extents = np.sqrt(HBAR / (2.0 * config.ion_mass * freqs))
    return ModeDecomposition(frequencies=freqs, vectors=vecs, ground_extents=extents)


def zeeman_profile(config, geometry):
    """Per-ion field, qubit splitting and addressing offset at the equilibrium `geometry`.

    B(z_i) = bias_field + dB/dz * (z_i - reference_coordinate). Splittings are
    g_factor * mu_B * B / hbar; addressing offsets are quoted in Hz relative to
    the reference coordinate, g_factor * mu_B * (B(z_i) - B_ref) / h.
    """
    dz = geometry.positions - config.reference_coordinate
    fields = config.bias_field + config.magnetic_gradient * dz
    if np.any(fields < 0):
        raise ValueError(
            f"bias_field too small: the field changes sign across the chain (bias_field "
            f"{config.bias_field:g} T, magnetic_gradient {config.magnetic_gradient:g} T/m), "
            "so the per-ion splitting is not monotonic in position"
        )
    splittings = config.g_factor * BOHR_MAGNETON * fields / HBAR
    offsets_hz = config.g_factor * BOHR_MAGNETON * (fields - config.bias_field) / PLANCK
    rate = float(config.g_factor * BOHR_MAGNETON * config.magnetic_gradient / HBAR)
    if not math.isfinite(rate * HBAR / (2 * config.ion_mass * config.axial_frequency**2) * rate):
        raise ValueError(f"magnetic_gradient {config.magnetic_gradient:g} T/m overflows the "
                         "coupling scale rate^2 hbar / (2 m nu1^2), which bounds every |J|")
    return ZeemanProfile(
        fields=fields,
        splittings=splittings,
        addressing_offsets_hz=offsets_hz,
        gradient_rates=np.full(config.ion_count, rate),
    )


def solve_trap_file(path):
    """`TrapConfig.from_ini(path)` and its equilibrium geometry, with the field's sign checked
    across the chain (`zeeman_profile`, which needs the positions); an error names the file."""
    config = TrapConfig.from_ini(path)
    try:
        geometry = equilibrium_positions(config)
        zeeman_profile(config, geometry)
    except (ValueError, ChainModelError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    return config, geometry


def coupling_matrix(config, geometry=None):
    """Gradient-mediated Ising couplings J_ij (rad/s) for the configured chain.

    `geometry` is the chain's `equilibrium_positions`, solved here when not given; at a length
    already solved only the scaling and the J einsum run.
    """
    if geometry is None:
        geometry = equilibrium_positions(config)
    modes = normal_modes(config, geometry)
    zeeman = zeeman_profile(config, geometry)
    # eps_in = (d omega_i/dz) * (dz_n / nu_n) * S_in
    eps = (zeeman.gradient_rates[:, None] * (modes.ground_extents / modes.frequencies)[None, :]
           * modes.vectors)
    return CouplingMatrix(j=np.einsum("n,in,jn->ij", modes.frequencies, eps, eps))


def save_couplings(path, couplings):
    """Write a coupling matrix as plain-text rows (rad/s)."""
    np.savetxt(path, couplings.j, fmt="%.12e")


def load_couplings(path):
    """Read a plain-text coupling matrix (rad/s), checked as `CouplingMatrix` checks J.

    A parse error, a file with no data or a bad J names the file.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt only warns on no data
            return CouplingMatrix(j=np.atleast_2d(np.loadtxt(path)))
    except UserWarning as exc:
        raise ValueError(f"{path}: no coupling matrix in the file") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
