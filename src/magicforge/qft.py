"""Three-qubit Fourier-transform compiler for an always-on Ising register.

The target is the discrete Fourier transform on the 8-dimensional register,
F[j, k] = exp(2 pi i j k / 8) / sqrt(8). The compiler turns a given symmetric
coupling matrix into a fixed pulse skeleton with three scheduled windows:

* T1 and T2 realize the two conditional phases that involve qubit 0. They are
  pinned by J01 (T1 + T2) / 2 = pi/8 (mod 2 pi) and J02 (T1 - T2) / 2 = pi/16,
  with the smallest winding that keeps both durations nonnegative; an echo on
  qubit 2 between the windows flips the sign of its couplings for T2.
* T3 realizes the remaining qubit-1/qubit-2 entanglement. Its duration and the
  two partial rotation angles A1, A2 come from a small nonlinear system (below)
  because the window must also absorb the residual qubit-1/qubit-2 phase
  rho23 = (T1 - T2) J12 / 2 picked up while T1 and T2 ran.

With x = exp(i J12 T3 / 2), s_k = sin(A_k / 2), c_k = cos(A_k / 2) and
X = rho23 + pi/8, Y = rho23 - pi/8, the window is exact when

    e^{iX} x / sqrt(2) - s1 s2 x^2 + c1 c2 = 0
    e^{iY} x / sqrt(2) - s1 c2 x^2 - c1 s2 = 0

(four real equations, three unknowns, consistent by construction). The solver
runs damped Gauss-Newton from a lattice of starting points and keeps the root
with the shortest window. Starts that have stopped moving are retired from the
batch, which leaves every result bit-identical to iterating all starts for the
full iteration count. Every compile is gated by a process-fidelity check of
the emitted program against the reference transform.

Qubit indices: couplings j[0,1], j[0,2], j[1,2] in rad/s, durations in
seconds. The emitted programs end with the label swap 0 <-> 2 that the
bit-reversed output order of the pulse skeleton requires.
"""

from dataclasses import dataclass

import numpy as np

from .engine import PRODUCT_INPUTS, product_input_ket, program_unitary
from .gates import check_finite_couplings
from .metrics import process_fidelity, state_fidelity
from .program import (
    BASIS_PI,
    BASIS_SIGMA_MINUS,
    FreeEvolve,
    PulseProgram,
    Rotate,
    TransferBasis,
)


class CompilerError(RuntimeError):
    pass


# Benchmark windows of the reference register this compiler was tuned on.
BENCH_T1 = 3.69e-3
BENCH_T2 = 0.22e-3
BENCH_T3 = 4.87e-3


def reference_qft(n_qubits=3):
    dim = 2**n_qubits
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim)


def calibrated_couplings():
    """Coupling matrix whose compiled schedule reproduces the benchmark windows.

    J01 and J02 invert the window equations at the benchmark T1, T2; J12 is
    the root (frozen here) at which the minimal entangling window comes out
    at the benchmark T3.
    """
    j01 = np.pi / (4.0 * (BENCH_T1 + BENCH_T2))
    j02 = np.pi / (8.0 * (BENCH_T1 - BENCH_T2))
    j12 = 207.428523
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = j01
    j[0, 2] = j[2, 0] = j02
    j[1, 2] = j[2, 1] = j12
    return j


def _check_compile_couplings(j):
    j = np.asarray(j, dtype=float)
    if j.shape != (3, 3):
        raise CompilerError("need a symmetric 3x3 coupling matrix")
    check_finite_couplings(j, CompilerError)
    if not np.allclose(j, j.T):
        raise CompilerError("need a symmetric 3x3 coupling matrix")
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if j[a, b] <= 0:
            raise CompilerError(
                f"coupling between qubits {a} and {b} is {j[a, b]:.6g}; "
                "every pair must couple with positive strength to schedule the transform"
            )
    return j


def plan_times(j):
    """Durations (T1, T2) of the two qubit-0 windows for a coupling matrix.

    The difference is pinned exactly, T1 - T2 = pi / (8 J02); the sum is the
    smallest value with J01 (T1 + T2) / 2 = pi/8 mod 2 pi that keeps T2 >= 0
    (extra full windings absorb registers where J01 > 2 J02).
    """
    j = _check_compile_couplings(j)
    diff = np.pi / (8.0 * j[0, 2])
    windings = max(0, int(np.ceil((diff * j[0, 1] / 2.0 - np.pi / 8.0) / (2.0 * np.pi) - 1e-12)))
    total = (np.pi / 8.0 + 2.0 * np.pi * windings) * 2.0 / j[0, 1]
    t1 = (total + diff) / 2.0
    t2 = (total - diff) / 2.0
    return t1, t2


def residual_phase(j, t1, t2):
    """Qubit-1/qubit-2 phase rho23 accumulated across the echoed T1/T2 windows."""
    return (t1 - t2) * j[1, 2] / 2.0


@dataclass
class EntanglingSolution:
    t3: float
    a1: float
    a2: float
    residual: float
    n_roots: int


def _window_system(b, a1, a2, xphase, yphase, jacobian=True):
    """Residual vector and Jacobian of the entangling-window equations.

    Unknowns are b = J12 T3 / 2 and the two angles; the four rows are the real
    and imaginary parts of the two complex conditions. With `jacobian` false
    only the residual is computed and returned, with the same bits.
    """
    x = np.exp(1j * b)
    x2 = x * x
    s1, c1 = np.sin(a1 / 2.0), np.cos(a1 / 2.0)
    s2, c2 = np.sin(a2 / 2.0), np.cos(a2 / 2.0)
    ex = np.exp(1j * xphase) / np.sqrt(2.0)
    ey = np.exp(1j * yphase) / np.sqrt(2.0)
    f1 = ex * x - s1 * s2 * x2 + c1 * c2
    f2 = ey * x - s1 * c2 * x2 - c1 * s2
    res = np.stack([f1.real, f1.imag, f2.real, f2.imag], axis=-1)
    if not jacobian:
        return res
    d1b = 1j * ex * x - 2j * s1 * s2 * x2
    d1a1 = -(c1 * s2 / 2.0) * x2 - (s1 * c2 / 2.0)
    d1a2 = -(s1 * c2 / 2.0) * x2 - (c1 * s2 / 2.0)
    d2b = 1j * ey * x - 2j * s1 * c2 * x2
    d2a1 = -(c1 * c2 / 2.0) * x2 + (s1 * s2 / 2.0)
    d2a2 = (s1 * s2 / 2.0) * x2 - (c1 * c2 / 2.0)
    jac = np.stack([
        np.stack([d1b.real, d1a1.real, d1a2.real], axis=-1),
        np.stack([d1b.imag, d1a1.imag, d1a2.imag], axis=-1),
        np.stack([d2b.real, d2a1.real, d2a2.real], axis=-1),
        np.stack([d2b.imag, d2a1.imag, d2a2.imag], axis=-1),
    ], axis=-2)
    return res, jac


def solve_entangling_params(j, t1, t2, grid=16, max_iter=80, tol=1e-10):
    """Shortest entangling window (T3, A1, A2) absorbing the residual phase.

    Damped Gauss-Newton from a grid^3 lattice of (b, A1, A2) starting points,
    run in one vectorized batch; roots are accepted below `tol` residual norm
    and the one with the smallest positive window wins.

    Every start's trajectory depends on that start alone, so a start whose
    damped step no longer changes it is at a fixed point for the remaining
    iterations. Such starts are retired from the batch, and the line search
    re-evaluates only the residual of starts whose candidate is still worse.
    The result is bit for bit the one of iterating every start for
    `max_iter` steps.
    """
    j = _check_compile_couplings(j)
    rho23 = residual_phase(j, t1, t2)
    xphase = rho23 + np.pi / 8.0
    yphase = rho23 - np.pi / 8.0
    pts = (np.arange(grid) + 0.5) / grid * 2.0 * np.pi
    b0, a10, a20 = (g.ravel() for g in np.meshgrid(pts, pts, pts, indexing="ij"))
    theta = np.column_stack([b0, a10, a20])
    eye = 1e-12 * np.eye(3)
    active = np.arange(theta.shape[0])
    for _ in range(max_iter):
        if active.size == 0:
            break
        th = theta[active]
        res, jac = _window_system(th[:, 0], th[:, 1], th[:, 2], xphase, yphase)
        sq = (res**2).sum(axis=-1)
        jtj = np.einsum("mri,mrk->mik", jac, jac) + eye
        jtr = np.einsum("mri,mr->mi", jac, res)
        step = -np.linalg.solve(jtj, jtr[..., None])[..., 0]
        scale = np.ones(active.size)
        pending = np.arange(active.size)
        for _ in range(8):
            cand = th[pending] + scale[pending, None] * step[pending]
            res_c = _window_system(cand[:, 0], cand[:, 1], cand[:, 2], xphase, yphase,
                                   jacobian=False)
            pending = pending[(res_c**2).sum(axis=-1) > sq[pending]]
            if pending.size == 0:
                break
            scale[pending] *= 0.5
        new = th + scale[:, None] * step
        theta[active] = new
        # compare bit patterns, so that a start is retired only when its next
        # iteration would repeat this one exactly (signed zeros and NaNs too)
        active = active[(new.view(np.uint64) != th.view(np.uint64)).any(axis=1)]
    res = _window_system(theta[:, 0], theta[:, 1], theta[:, 2], xphase, yphase, jacobian=False)
    norms = np.sqrt((res**2).sum(axis=-1))
    ok = norms < tol
    if not ok.any():
        raise CompilerError("entangling-window solve did not converge from any start")
    b = np.mod(theta[ok, 0], 2.0 * np.pi)
    b[b < 1e-9] = 2.0 * np.pi  # a zero-length window cannot implement the step
    order = np.argsort(b)
    pick = order[0]
    t3 = 2.0 * b[pick] / j[1, 2]
    a1 = float(np.mod(theta[ok, 1][pick], 2.0 * np.pi))
    a2 = float(np.mod(theta[ok, 2][pick], 2.0 * np.pi))
    return EntanglingSolution(float(t3), a1, a2, float(norms[ok][pick]), int(ok.sum()))


def emit_sequence(t1, t2, solution, form="exact", dd_scheme=None, dd_budget=(20, 40)):
    """Pulse program for the transform from scheduled windows and angles.

    `exact` parks qubit 0 in the field-insensitive encoding for the whole
    entangling window. `optimized` instead wraps the window in an echo pair on
    qubit 0 (phases pi/2 and 11 pi/16, the second absorbing the conditional
    phase bookkeeping) and drops the short T2 window entirely; that trades a
    controlled infidelity for a shorter and simpler sequence. With a
    decoupling scheme set, the budget places dd_budget[0] pulses in T1 and
    dd_budget[1] in the entangling window (split across the halves in the
    optimized form).
    """
    a1, a2, t3 = solution.a1, solution.a2, solution.t3
    n1, n3 = (dd_budget if dd_scheme else (0, 0))
    scheme = dd_scheme or "cpmg"
    pi = np.pi
    if form == "exact":
        ins = [
            Rotate(0, pi, 0.0),
            Rotate(0, pi / 2, -pi / 2),
            Rotate(0, pi, 0.0),
            Rotate(1, pi, 0.0),
            Rotate(2, pi, 0.0),
            FreeEvolve(t1, n1, scheme),
            Rotate(2, pi, 0.0),
            FreeEvolve(t2),
            Rotate(2, pi, -3 * pi / 16),
            Rotate(1, a1, 3 * pi / 4),
            Rotate(0, pi, 3 * pi / 16),
            TransferBasis(0, BASIS_PI),
            FreeEvolve(t3, n3, scheme),
            TransferBasis(0, BASIS_SIGMA_MINUS),
            Rotate(2, pi / 2, -pi / 2),
            Rotate(1, a2, 3 * pi / 4),
        ]
    elif form == "optimized":
        ins = [
            Rotate(0, pi, 0.0),
            Rotate(0, pi / 2, -pi / 2),
            FreeEvolve(t1, n1, scheme),
            Rotate(2, pi, 13 * pi / 16),
            Rotate(1, pi, 0.0),
            Rotate(1, a1, 3 * pi / 4),
            FreeEvolve(t3 / 2, n3 // 2, scheme),
            Rotate(0, pi, pi / 2),
            FreeEvolve(t3 / 2, n3 - n3 // 2, scheme),
            Rotate(0, pi, 11 * pi / 16),
            Rotate(2, pi / 2, -pi / 2),
            Rotate(1, a2, 3 * pi / 4),
        ]
    else:
        raise CompilerError(f"unknown sequence form {form!r}")
    return PulseProgram(n_qubits=3, instructions=ins, relabel=(2, 1, 0),
                        name=f"qft {form}")


# Acceptable process infidelity of each emitted form against the reference.
FORM_TOLERANCE = {"exact": 1e-8, "optimized": 5e-3}


@dataclass
class CompiledTransform:
    program: PulseProgram
    couplings: np.ndarray
    t1: float
    t2: float
    t3: float
    a1: float
    a2: float
    form: str
    process_fidelity: float

    @property
    def duration(self):
        return self.program.duration


def compile_qft(j=None, form="exact", dd_scheme=None, dd_budget=(20, 40)):
    """Schedule, solve and emit the transform for a coupling matrix, then gate it.

    The returned program has been checked: its ideal unitary must match the
    reference transform to within the form's process-infidelity tolerance,
    otherwise compilation fails rather than returning a silently wrong
    sequence.
    """
    j = calibrated_couplings() if j is None else _check_compile_couplings(j)
    t1, t2 = plan_times(j)
    sol = solve_entangling_params(j, t1, t2)
    program = emit_sequence(t1, t2, sol, form=form, dd_scheme=dd_scheme, dd_budget=dd_budget)
    fid = process_fidelity(reference_qft(3), program_unitary(program, j))
    if fid < 1.0 - FORM_TOLERANCE[form]:
        raise CompilerError(
            f"compiled {form} sequence reached process fidelity {fid:.9f}, "
            f"below the 1 - {FORM_TOLERANCE[form]:g} gate"
        )
    return CompiledTransform(program, j, t1, t2, sol.t3, sol.a1, sol.a2, form, fid)


@dataclass
class PlanVerification:
    process_fidelity: float
    basis_fidelities: np.ndarray
    superposition_fidelities: np.ndarray

    @property
    def min_fidelity(self):
        return float(min(self.basis_fidelities.min(), self.superposition_fidelities.min()))


def verify_plan(compiled):
    """Ideal-output checks of a compiled program against the reference transform.

    Runs every computational basis state and the seven nontrivial |0>/|+>
    product inputs (`PRODUCT_INPUTS`) through the program's unitary and
    reports the overlaps with the reference outputs.
    """
    u = program_unitary(compiled.program, compiled.couplings)
    ref = reference_qft(3)
    kets = [product_input_ket(label) for label in PRODUCT_INPUTS]
    overlaps = np.array([state_fidelity(u @ v, ref @ v) for v in kets])
    return PlanVerification(process_fidelity(ref, u), overlaps[:8], overlaps[8:])


def serial_baseline(j):
    """Run time of the same transform as one-pair-at-a-time conditional phases.

    Each two-qubit step needs conditional phase pi/2 (adjacent pairs) or pi/4
    (outer pair); with only one pair active at a time the window for a phase
    phi is phi / J. Returns (total, per-pair dict).
    """
    j = _check_compile_couplings(j)
    steps = {
        (0, 1): (np.pi / 2) / j[0, 1],
        (0, 2): (np.pi / 4) / j[0, 2],
        (1, 2): (np.pi / 2) / j[1, 2],
    }
    return sum(steps.values()), steps
