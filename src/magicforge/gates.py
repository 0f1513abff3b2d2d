"""Single- and multi-qubit gate primitives shared by the engine, compiler and metrics.

Conventions used everywhere in this package:

* computational basis order (|0>, |1>) with sigma_z = diag(1, -1),
* qubit 0 is the most significant bit of a basis-state index,
* R(theta, phi) = exp(-i theta/2 (sigma_x cos phi + sigma_y sin phi)),
* PH(phi)       = exp(-i phi sigma_z),
* free evolution U(T) = exp(+i T/2 sum_{i<j} J_ij sigma_z^i sigma_z^j).
"""

import math
import numbers
from functools import cache

import numpy as np

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def rotation_2x2(theta, phi):
    """Equatorial-axis rotation exp(-i theta/2 (sx cos phi + sy sin phi))."""
    axis = np.cos(phi) * SX + np.sin(phi) * SY
    return np.cos(theta / 2) * ID2 - 1j * np.sin(theta / 2) * axis


def phase_2x2(phi):
    """Z phase gate exp(-i phi sigma_z)."""
    return np.diag([np.exp(-1j * phi), np.exp(1j * phi)])


def read_only(array):
    """`array`, marked read-only: the idiom for an array built once and shared."""
    array.setflags(write=False)
    return array


@cache
def bit_table(n_qubits):
    """(2^n, n) array of bits; column k is the bit of qubit k (qubit 0 = MSB); shared, read-only."""
    idx = np.arange(2**n_qubits)
    return read_only(np.array([(idx >> (n_qubits - 1 - k)) & 1 for k in range(n_qubits)]).T)


@cache
def z_eigenvalues(n_qubits):
    """(2^n, n) array of sigma_z eigenvalues (+1 for bit 0, -1 for bit 1); shared, read-only."""
    return read_only(1.0 - 2.0 * bit_table(n_qubits))


def free_phases(j, duration):
    """Diagonal phase angles T/2 * sum_{i<j} J_ij z_i z_j for each basis state of J's register,
    the pair terms summed in row order by one left fold from 0.0 (`np.add.accumulate`)."""
    z = z_eigenvalues(len(j)).T
    i, k = np.triu_indices(len(j), 1)
    terms = np.zeros((len(i) + 1, 2 ** len(j)))
    np.multiply(j[i, k][:, None] * z[i], z[k], out=terms[1:])
    return duration / 2.0 * np.add.accumulate(terms)[-1]


def check_couplings(j, n_qubits, error):
    """The one check of a coupling matrix: J as a float array by `check_array`, else `error`.

    J must be n_qubits x n_qubits (any square size when n_qubits is None) and symmetric
    to |J[a, b] - J[b, a]| <= 1e-9 max|J|: far above rounding (about 1e-16 max|J|), far
    below a calibration error. The error names the first bad J[a, b] in row order.
    """
    j = check_array(j, "coupling J", error)
    if j.ndim != 2 or j.shape[0] != j.shape[1] or n_qubits not in (None, j.shape[0]):
        raise error(f"coupling matrix shape {j.shape} is not "
                    f"{'square' if n_qubits is None else (n_qubits, n_qubits)}")
    bad = np.argwhere(np.abs(j - j.T) > 1e-9 * np.abs(j).max(initial=0.0))
    if bad.size:
        a, b = bad[0]
        raise error(f"coupling J[{a}, {b}] = {j[a, b]} but J[{b}, {a}] = {j[b, a]}; "
                    "J must be symmetric to 1e-9 of max|J|")
    return j


def check_array(value, name, error, dtype=float, ndim=None, finite=True):
    """`value` as a `dtype` (float or complex) array, with `ndim` dimensions (an int, a tuple of
    them, None for any) and, if `finite`, finite entries; else an `error` (the caller's class)
    naming `name`."""
    try:
        a = np.asarray(value).astype(dtype, casting="same_kind", copy=False)
    except (TypeError, ValueError) as exc:  # not numbers of that kind, or a ragged sequence
        raise error(f"{name} must be an array of {dtype.__name__} numbers ({exc})") from None
    if ndim is not None and a.ndim not in (ndim if isinstance(ndim, tuple) else (ndim,)):
        raise error(f"{name} has shape {a.shape}; {name} must have {ndim} dimensions")
    if finite and not np.isfinite(a).all():
        k = tuple(np.argwhere(~np.isfinite(a))[0])
        raise error(f"{name}{list(map(int, k))} is {a[k]}; {name} must be finite")
    return a


def check_int(value, name, error, low=None, high=None, message=None):
    """`value` if it is an int (a numbers.Integral, numpy's too, but not a bool) within the
    inclusive bounds, None for none; else an `error` (the caller's class) with `message`, by
    default "<name> must be an int in <low>..<high>, got <value!r>"."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) \
            and (low is None or value >= low) and (high is None or value <= high):
        return value
    rule = "an int" if low is None and high is None else f"an int in {low}..{high}"
    raise error(message or f"{name} must be {rule}, got {value!r}")


def check_real(value, name, error, low=None, high=None, message=None):
    """`value` if it is an int or a float (numpy's too, but not a bool or a Fraction), finite
    and within the inclusive bounds, None for none; else an `error` (the caller's class) with
    `message`, by default "<name> must be a real number" or "... finite", with its bounds
    ("... finite and >= <low>"), then ", got <value!r>"."""
    real = type(value) is not bool and isinstance(value, (int, float, np.integer, np.floating))
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # an int past the largest float
        finite = False
    if finite and (low is None or value >= low) and (high is None or value <= high):
        return value
    bounds = "".join(f" and {op} {b}" for op, b in ((">=", low), ("<=", high)) if b is not None)
    rule = f"finite{bounds}" if real or bounds else "a real number"
    raise error(message or f"{name} must be {rule}, got {value!r}")


def relabel_index(perm):
    """Index i taking |q_0 q_1 ...> to |q_perm(0) q_perm(1) ...>: new amplitude a is old i[a].

    `perm` lists, for each output qubit slot, which input qubit lands there; a
    state relabels as rho[np.ix_(i, i)], a unitary as u[i].
    """
    n = len(perm)
    return bit_table(n) @ (1 << (n - 1 - np.asarray(perm)))


def product_ket(single_kets):
    out = np.array([1.0 + 0.0j])
    for s in single_kets:
        out = np.kron(out, np.asarray(s, dtype=complex))
    return out
