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
with the shortest window. Its normal equations are summed over the residual
rows in the order an einsum over the Jacobian would add them; one residual
evaluation per step serves both the line search and the next step; and starts
that have settled on a fixed point or a two-cycle are retired from the batch
holding the iterate the last step would leave. Every result stays
bit-identical to iterating all starts for the full iteration count. Every
compile is gated by a process-fidelity check of the emitted program against
the reference transform.

Qubit indices: couplings j[0,1], j[0,2], j[1,2] in rad/s, durations in
seconds. The emitted programs end with the label swap 0 <-> 2 that the
bit-reversed output order of the pulse skeleton requires.
"""

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .engine import product_input_ket, program_unitary
from .gates import check_couplings, read_only
from .metrics import MetricsError, factor_product_state, process_fidelity, state_fidelity
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


@cache
def reference_qft():
    """The three-qubit transform, F[j, k] = exp(2 pi i j k / 8) / sqrt(8); shared, read-only."""
    j, k = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    return read_only(np.exp(2j * np.pi * j * k / 8) / np.sqrt(8))


# The 15 three-qubit inputs the transform is checked on: every basis state,
# then each nonempty set of qubits in |+> with the rest in |0>.
PRODUCT_INPUTS = tuple(format(k, "03b") for k in range(8)) + tuple(
    format(k, "03b").replace("1", "+") for k in range(1, 8))


class ReferenceAnswer(NamedTuple):
    ket: np.ndarray  # (8,) the product input
    output: np.ndarray  # (8,) reference_qft() @ ket
    factors: np.ndarray | None  # (3, 2) per-qubit factors of output; None if it is entangled


@cache
def reference_answer(label):
    """The reference transform on the product input `label`; built once, every array read-only."""
    ket = read_only(product_input_ket(label))
    output = read_only(reference_qft() @ ket)
    try:
        factors = read_only(np.array(factor_product_state(output, 3)))
    except MetricsError:  # an entangled output has no per-qubit factors
        factors = None
    return ReferenceAnswer(ket, output, factors)


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
    j = check_couplings(j, 3, CompilerError)
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


# Gauss-Newton steps; a retired start holds the iterate that this many leave.
_STEPS = 80


def _window_residual(theta, ex, ey):
    """Window conditions (f1, f2) at each row (b, A1, A2) of `theta`, with the
    trig terms their derivatives share; ex, ey = exp(iX), exp(iY) / sqrt(2)."""
    x = np.exp(1j * theta[:, 0])
    x2 = x * x
    s1, c1 = np.sin(theta[:, 1] / 2.0), np.cos(theta[:, 1] / 2.0)
    s2, c2 = np.sin(theta[:, 2] / 2.0), np.cos(theta[:, 2] / 2.0)
    f1 = ex * x - s1 * s2 * x2 + c1 * c2
    f2 = ey * x - s1 * c2 * x2 - c1 * s2
    return (f1, f2), (x, x2, s1, c1, s2, c2)


def _row_dot(u, v):
    """Sum of products over the real rows (Re u0, Im u0, Re u1, Im u1), in row
    order: np.einsum's bits once 0.0 is added (that fixes a zero's sign)."""
    return ((u[0].real * v[0].real + u[0].imag * v[0].imag)
            + u[1].real * v[1].real) + u[1].imag * v[1].imag


def solve_entangling_params(j, t1, t2):
    """Shortest entangling window (T3, A1, A2) absorbing the residual phase.

    Damped Gauss-Newton from a 16^3 lattice of (b, A1, A2) starting points,
    run in one vectorized batch for 80 iterations; roots are accepted below
    1e-10 residual norm and the one with the smallest positive window wins.
    The normal equations come straight from the complex derivatives, each
    entry summed over the four residual rows in the order np.einsum would.

    Every start's trajectory depends on that start alone, so a start whose
    new iterate equals, bit for bit, the one from two steps back (or whose
    step no longer moves it) alternates between two iterates from then on.
    It is retired from the batch holding the one that step 80 would leave.
    Each step evaluates the residual once, at the full step: that is the line
    search's first trial and, for every start that accepts it, the next
    step's residual. Only rejected starts are re-evaluated at the halved
    steps. The result is bit for bit the one of iterating every start for all
    80 steps.
    """
    j = _check_compile_couplings(j)
    rho23 = residual_phase(j, t1, t2)
    ex = np.exp(1j * (rho23 + np.pi / 8.0)) / np.sqrt(2.0)
    ey = np.exp(1j * (rho23 - np.pi / 8.0)) / np.sqrt(2.0)
    pts = (np.arange(16) + 0.5) / 16 * 2.0 * np.pi
    b0, a10, a20 = (g.ravel() for g in np.meshgrid(pts, pts, pts, indexing="ij"))
    th = prev = np.column_stack([b0, a10, a20])
    theta = np.empty_like(th)
    shift = np.diag([1e-12, 1e-12, 1e-12, 0.0])
    active = np.arange(th.shape[0])
    r, trig = _window_residual(th, ex, ey)
    for it in range(_STEPS):
        if active.size == 0:
            break
        x, x2, s1, c1, s2, c2 = trig
        cols = ((1j * ex * x - 2j * s1 * s2 * x2, 1j * ey * x - 2j * s1 * c2 * x2),
                (-(c1 * s2 / 2.0) * x2 - (s1 * c2 / 2.0), -(c1 * c2 / 2.0) * x2 + (s1 * s2 / 2.0)),
                (-(s1 * c2 / 2.0) * x2 - (c1 * s2 / 2.0), (s1 * s2 / 2.0) * x2 - (c1 * c2 / 2.0)),
                r)
        # Gram matrix of [J | r]: J^T J + 1e-12 I, J^T r and the squared residual
        gram = np.empty((active.size, 4, 4))
        for i in range(4):
            for k in range(i, 4):
                gram[:, i, k] = gram[:, k, i] = _row_dot(cols[i], cols[k])
        del cols, x, x2, s1, c1, s2, c2
        gram += shift
        sq = gram[:, 3, 3]
        step = -np.linalg.solve(gram[:, :3, :3], gram[:, :3, 3:])[..., 0]
        # line search from the full step (1.0 * step is step): each accepted
        # trial is the next iterate, and its residual serves the next step
        new = th + step
        r, trig = _window_residual(new, ex, ey)
        pending = np.flatnonzero(_row_dot(r, r) > sq)
        for k in range(1, 9):
            if pending.size == 0:
                break
            cand = th[pending] + 0.5 ** k * step[pending]
            r_c, trig_c = _window_residual(cand, ex, ey)
            # a NaN residual is accepted; after eight rejections 2^-8 is taken
            accept = ~(_row_dot(r_c, r_c) > sq[pending]) | (k == 8)
            at = pending[accept]
            new[at] = cand[accept]
            for term, trial in zip(r + trig, r_c + trig_c):
                term[at] = trial[accept]
            pending = pending[~accept]
        # compare bit patterns, so that signed zeros and NaNs repeat too
        bits = new.view(np.uint64)
        same, back = bits == th.view(np.uint64), bits == prev.view(np.uint64)
        done = (same[:, 0] & same[:, 1] & same[:, 2]) | (back[:, 0] & back[:, 1] & back[:, 2])
        if done.any():
            # an odd number of steps is left: a retired start ends on th
            theta[active[done]] = (th if (_STEPS - it) % 2 == 0 else new)[done]
            keep = ~done
            active, th, new = active[keep], th[keep], new[keep]
            r, trig = tuple(f[keep] for f in r), tuple(t[keep] for t in trig)
        prev, th = th, new
    theta[active] = th
    r, _ = _window_residual(theta, ex, ey)
    norms = np.sqrt(_row_dot(r, r))
    ok = norms < 1e-10
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


def emit_sequence(t1, t2, solution, form="exact", dd_scheme=None):
    """Pulse program for the transform from scheduled windows and angles.

    `exact` parks qubit 0 in the field-insensitive encoding for the whole
    entangling window. `optimized` instead wraps the window in an echo pair on
    qubit 0 (phases pi/2 and 11 pi/16, the second absorbing the conditional
    phase bookkeeping) and drops the short T2 window entirely; that trades a
    controlled infidelity for a shorter and simpler sequence. With a
    decoupling scheme set, 20 pulses go into T1 and 40 into the entangling
    window (split across the halves in the optimized form).
    """
    a1, a2, t3 = solution.a1, solution.a2, solution.t3
    n1, n3 = (20, 40) if dd_scheme else (0, 0)
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
    unitary: np.ndarray = field(init=False)  # the program's ideal unitary; read-only
    process_fidelity: float = field(init=False)

    def __post_init__(self):  # so dataclasses.replace builds both anew
        self.unitary = read_only(program_unitary(self.program, self.couplings))
        self.process_fidelity = process_fidelity(reference_qft(), self.unitary)

    @property
    def duration(self):
        return self.program.duration


def compile_qft(j=None, form="exact", dd_scheme=None):
    """Schedule, solve and emit the transform for a coupling matrix, then gate it.

    The returned program has been checked: its ideal unitary must match the
    reference transform to within the form's process-infidelity tolerance,
    otherwise compilation fails rather than returning a silently wrong
    sequence.
    """
    j = calibrated_couplings() if j is None else _check_compile_couplings(j)
    t1, t2 = plan_times(j)
    return gate_sequence(j, t1, t2, solve_entangling_params(j, t1, t2), form, dd_scheme)


def gate_sequence(j, t1, t2, solution, form="exact", dd_scheme=None):
    """Emit the transform in `form` from a solved schedule, then gate it as `compile_qft` does.

    One schedule (`plan_times`, `solve_entangling_params`) serves every form.
    """
    program = emit_sequence(t1, t2, solution, form=form, dd_scheme=dd_scheme)
    compiled = CompiledTransform(program, j, t1, t2, solution.t3, solution.a1, solution.a2, form)
    if compiled.process_fidelity < 1.0 - FORM_TOLERANCE[form]:
        raise CompilerError(
            f"compiled {form} sequence reached process fidelity "
            f"{compiled.process_fidelity:.9f}, below the 1 - {FORM_TOLERANCE[form]:g} gate"
        )
    return compiled


@dataclass
class PlanVerification:
    basis_fidelities: np.ndarray
    superposition_fidelities: np.ndarray

    @property
    def min_fidelity(self):
        return float(min(self.basis_fidelities.min(), self.superposition_fidelities.min()))


def verify_plan(compiled):
    """Ideal-output checks of a compiled program against the reference transform.

    Runs every computational basis state and the seven nontrivial |0>/|+>
    product inputs (`PRODUCT_INPUTS`) through the program's unitary, the one
    `CompiledTransform` built, and reports the overlaps with the reference outputs.
    """
    u = compiled.unitary
    overlaps = np.array([state_fidelity(u @ answer.ket, answer.output)
                         for answer in map(reference_answer, PRODUCT_INPUTS)])
    return PlanVerification(overlaps[:8], overlaps[8:])


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
