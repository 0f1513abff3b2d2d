import dataclasses
import platform

import numpy as np
import pytest

from magicforge import qft
from magicforge.engine import product_input_ket, program_unitary
from magicforge.metrics import state_fidelity
from magicforge.program import FreeEvolve
from magicforge.qft import (
    BENCH_T1,
    BENCH_T2,
    BENCH_T3,
    PRODUCT_INPUTS,
    CompilerError,
    calibrated_couplings,
    compile_qft,
    plan_times,
    reference_qft,
    serial_baseline,
    solve_entangling_params,
    verify_plan,
)


@pytest.fixture(autouse=True)
def cold_window_cache():
    """Each test starts with no window phase solved, so the tests that count the solver's work,
    or change its step count, see a cold solve; cleared again after, so a root solved under a
    patched step count reaches no other test."""
    qft._window_root.cache_clear()
    yield
    qft._window_root.cache_clear()


def pair_matrix(j01, j02, j12):
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = j01
    j[0, 2] = j[2, 0] = j02
    j[1, 2] = j[2, 1] = j12
    return j


def random_couplings(rng):
    return pair_matrix(rng.uniform(80, 400), rng.uniform(40, 200), rng.uniform(80, 400))


def window_oracle(j, t1, t2):
    """Closed-form minimal entangling window, independent of the iterative solver.

    The two analysis-window conditions reduce, with X, Y = rho +- pi/8 and
    x = exp(i b), to cos^2 b = (cos^2 X + cos^2 Y)/2 plus explicit arctangent
    expressions for the sum and difference of the analysis rotation angles.
    Both quadrant branches of b are enumerated and validated against the raw
    residuals; the smallest positive root wins.
    """
    j12 = j[1, 2]
    rho = (t1 - t2) * j12 / 2.0
    x_ang = rho + np.pi / 8
    y_ang = rho - np.pi / 8
    cos2b = (np.cos(x_ang) ** 2 + np.cos(y_ang) ** 2) / 2.0
    cos2b = min(max(cos2b, 0.0), 1.0)
    b0 = np.arccos(np.sqrt(cos2b))
    for b in sorted({c % (2 * np.pi) for c in
                     (b0, np.pi - b0, np.pi + b0, 2 * np.pi - b0)}):
        cb, sb = np.cos(b), np.sin(b)
        if b < 1e-9 or abs(cb) < 1e-12 or abs(sb) < 1e-12:
            continue
        p = np.arctan2(np.cos(y_ang) / (np.sqrt(2) * cb), -np.cos(x_ang) / (np.sqrt(2) * cb))
        m = np.arctan2(np.sin(y_ang) / (np.sqrt(2) * sb), np.sin(x_ang) / (np.sqrt(2) * sb))
        a1, a2 = p + m, p - m
        x = np.exp(1j * b)
        c1, s1 = np.cos(a1 / 2), np.sin(a1 / 2)
        c2, s2 = np.cos(a2 / 2), np.sin(a2 / 2)
        f1 = np.exp(1j * x_ang) * x / np.sqrt(2) - s1 * s2 * x**2 + c1 * c2
        f2 = np.exp(1j * y_ang) * x / np.sqrt(2) - s1 * c2 * x**2 - c1 * s2
        if abs(f1) + abs(f2) < 1e-8:
            return 2 * b / j12, a1, a2
    raise AssertionError("oracle found no admissible window")


def _lattice_window_system(b, a1, a2, xphase, yphase):
    x = np.exp(1j * b)
    x2 = x * x
    s1, c1 = np.sin(a1 / 2.0), np.cos(a1 / 2.0)
    s2, c2 = np.sin(a2 / 2.0), np.cos(a2 / 2.0)
    ex = np.exp(1j * xphase) / np.sqrt(2.0)
    ey = np.exp(1j * yphase) / np.sqrt(2.0)
    f1 = ex * x - s1 * s2 * x2 + c1 * c2
    f2 = ey * x - s1 * c2 * x2 - c1 * s2
    d1b = 1j * ex * x - 2j * s1 * s2 * x2
    d1a1 = -(c1 * s2 / 2.0) * x2 - (s1 * c2 / 2.0)
    d1a2 = -(s1 * c2 / 2.0) * x2 - (c1 * s2 / 2.0)
    d2b = 1j * ey * x - 2j * s1 * c2 * x2
    d2a1 = -(c1 * c2 / 2.0) * x2 + (s1 * s2 / 2.0)
    d2a2 = (s1 * s2 / 2.0) * x2 - (c1 * c2 / 2.0)
    res = np.stack([f1.real, f1.imag, f2.real, f2.imag], axis=-1)
    jac = np.stack([
        np.stack([d1b.real, d1a1.real, d1a2.real], axis=-1),
        np.stack([d1b.imag, d1a1.imag, d1a2.imag], axis=-1),
        np.stack([d2b.real, d2a1.real, d2a2.real], axis=-1),
        np.stack([d2b.imag, d2a1.imag, d2a2.imag], axis=-1),
    ], axis=-2)
    return res, jac


def lattice_oracle(j, t1, t2, grid=16, max_iter=80, tol=1e-10):
    """The lattice Gauss-Newton window solver, iterating every start every step.

    Kept as the reference the production solver must reproduce bit for bit:
    returns (t3, a1, a2, residual, n_roots).
    """
    rho23 = (t1 - t2) * j[1, 2] / 2.0
    xphase = rho23 + np.pi / 8.0
    yphase = rho23 - np.pi / 8.0
    pts = (np.arange(grid) + 0.5) / grid * 2.0 * np.pi
    b0, a10, a20 = (g.ravel() for g in np.meshgrid(pts, pts, pts, indexing="ij"))
    theta = np.column_stack([b0, a10, a20])
    eye = 1e-12 * np.eye(3)
    for _ in range(max_iter):
        res, jac = _lattice_window_system(theta[:, 0], theta[:, 1], theta[:, 2], xphase, yphase)
        sq = (res**2).sum(axis=-1)
        jtj = np.einsum("mri,mrk->mik", jac, jac) + eye
        jtr = np.einsum("mri,mr->mi", jac, res)
        step = -np.linalg.solve(jtj, jtr[..., None])[..., 0]
        scale = np.ones(theta.shape[0])
        for _ in range(8):
            cand = theta + scale[:, None] * step
            res_c, _ = _lattice_window_system(cand[:, 0], cand[:, 1], cand[:, 2], xphase, yphase)
            worse = (res_c**2).sum(axis=-1) > sq
            if not worse.any():
                break
            scale[worse] *= 0.5
        theta = theta + scale[:, None] * step
    res, _ = _lattice_window_system(theta[:, 0], theta[:, 1], theta[:, 2], xphase, yphase)
    norms = np.sqrt((res**2).sum(axis=-1))
    ok = norms < tol
    assert ok.any(), "lattice oracle did not converge from any start"
    b = np.mod(theta[ok, 0], 2.0 * np.pi)
    b[b < 1e-9] = 2.0 * np.pi
    order = np.argsort(b)
    pick = order[0]
    t3 = 2.0 * b[pick] / j[1, 2]
    a1 = float(np.mod(theta[ok, 1][pick], 2.0 * np.pi))
    a2 = float(np.mod(theta[ok, 2][pick], 2.0 * np.pi))
    return float(t3), a1, a2, float(norms[ok][pick]), int(ok.sum())


def test_reference_transform_is_the_dft():
    f = reference_qft()
    k, m = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    assert f == pytest.approx(np.exp(2j * np.pi * k * m / 8) / np.sqrt(8), abs=1e-12)
    assert f @ f.conj().T == pytest.approx(np.eye(8), abs=1e-12)
    # built once and shared, so no caller may write into it
    assert reference_qft() is f
    with pytest.raises(ValueError, match="read-only"):
        f[0, 0] = 0.0


def test_plan_times_closed_form(bench_j):
    t1, t2 = plan_times(bench_j)
    # window difference fixes the outer-pair phase, the sum the adjacent one
    diff = np.pi / (8.0 * bench_j[0, 2])
    assert (t1 - t2) == pytest.approx(diff, rel=1e-12)
    phase = (t1 + t2) / 2.0 * bench_j[0, 1]
    assert (phase - np.pi / 8) % (2 * np.pi) == pytest.approx(0.0, abs=1e-9)
    assert t2 > 0


def test_plan_times_add_windings_when_needed():
    # outer coupling so weak that the difference alone exceeds the base window
    j = pair_matrix(300.0, 5.0, 300.0)
    t1, t2 = plan_times(j)
    assert t2 > 0
    assert (t1 - t2) == pytest.approx(np.pi / (8.0 * j[0, 2]), rel=1e-12)


def test_benchmark_schedule_values(bench_j):
    t1, t2 = plan_times(bench_j)
    sol = solve_entangling_params(bench_j, t1, t2)
    assert t1 == pytest.approx(BENCH_T1, rel=1e-9)
    assert t2 == pytest.approx(BENCH_T2, rel=1e-9)
    assert sol.t3 == pytest.approx(BENCH_T3, rel=1e-6)
    assert sol.a1 == pytest.approx(0.6855197 * np.pi, rel=1e-6)
    assert sol.a2 == pytest.approx(0.7160496 * np.pi, rel=1e-6)


def test_solver_matches_closed_form_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        j = random_couplings(rng)
        t1, t2 = plan_times(j)
        sol = solve_entangling_params(j, t1, t2)
        t3, a1, a2 = window_oracle(j, t1, t2)
        assert sol.t3 == pytest.approx(t3, rel=1e-9)
        assert np.angle(np.exp(1j * (sol.a1 - a1))) == pytest.approx(0.0, abs=1e-9)
        assert np.angle(np.exp(1j * (sol.a2 - a2))) == pytest.approx(0.0, abs=1e-9)


def test_solver_is_bit_identical_to_lattice_oracle():
    rng = np.random.default_rng(4242)
    cases = [("calibrated", calibrated_couplings()),
             ("winding", pair_matrix(300.0, 5.0, 300.0)),
             ("asymmetric", pair_matrix(400.0, 60.0, 90.0))]
    cases += [(f"random {k}", random_couplings(rng)) for k in range(40)]
    for label, j in cases:
        t1, t2 = plan_times(j)
        sol = solve_entangling_params(j, t1, t2)
        got = (sol.t3, sol.a1, sol.a2, sol.residual, sol.n_roots)
        assert got == lattice_oracle(j, t1, t2), label


def long_double_window_residual(j, t1, t2, t3, a1, a2):
    """|(f1, f2)|, the two window conditions of the qft module docstring, evaluated in
    np.clongdouble at the float64 J12, T1, T2, T3, A1 and A2 as a compiled program holds them."""
    long = np.longdouble
    j12, pi = long(j[1, 2]), 4 * np.arctan(long(1))
    rho = (long(t1) - long(t2)) * j12 / 2
    x = np.exp(1j * (j12 * long(t3) / 2))
    ex, ey = (np.exp(1j * (rho + sign * pi / 8)) / np.sqrt(long(2)) for sign in (1, -1))
    (s1, c1), (s2, c2) = ((np.sin(long(a) / 2), np.cos(long(a) / 2)) for a in (a1, a2))
    f1 = ex * x - s1 * s2 * x * x + c1 * c2
    f2 = ey * x - s1 * c2 * x * x - c1 * s2
    assert f1.dtype == f2.dtype == np.clongdouble
    return float(np.sqrt(abs(f1) ** 2 + abs(f2) ** 2))


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason=f"np.longdouble is float64 on {platform.system()} {platform.machine()}")
def test_emitted_window_against_the_long_double_residual():
    """The emitted (T3, A1, A2) meet the window conditions within 4 x their measured error.

    Measured with numpy 2.4.6 as the long-double |(f1, f2)| at the solver's float64 output,
    worst over these 11 matrices: 5.7e-15 under (X86_V4, SkylakeX) and (X86_V3, Haswell),
    8.5e-15 under (X86_V2, Sandybridge); the solver's own float64 residual read 4.7e-15 to
    7.8e-15 there. Over the 43 matrices of the lattice test the worst was 1.7e-13, 4.8e-14
    and 1.4e-14 (the solver's residual up to 1.0e-13): a root is accepted below 1e-10, so the
    error is where the 80 steps stop, not rounding. k = 4 over 8.5e-15 gives 3.4e-14; an A1
    off by 1e-12 relative is about 1e-12 off and fails.
    """
    limit = 4 * 8.5e-15
    rng = np.random.default_rng(4242)
    cases = [calibrated_couplings(), pair_matrix(300.0, 5.0, 300.0),
             pair_matrix(400.0, 60.0, 90.0)] + [random_couplings(rng) for _ in range(8)]
    for j in cases:
        t1, t2 = plan_times(j)
        sol = solve_entangling_params(j, t1, t2)
        assert long_double_window_residual(j, t1, t2, sol.t3, sol.a1, sol.a2) <= limit, j
        off = long_double_window_residual(j, t1, t2, sol.t3, sol.a1 * (1 + 1e-12), sol.a2)
        assert off > limit, j


@pytest.mark.parametrize("steps", [79, 80])
def test_retired_starts_hold_the_last_steps_iterate(monkeypatch, steps):
    # a start retired on a two-cycle must end on the iterate of the right
    # parity; an odd and an even step count cover both. Roots on two-cycles
    # decide the result in the 35th random case of the bit-identity test and
    # in the 3rd one of the exact-form test, which flips between 79 and 80.
    monkeypatch.setattr(qft, "_STEPS", steps)
    cases = [calibrated_couplings(), pair_matrix(400.0, 60.0, 90.0)]
    for seed, draws in ((4242, 35), (77, 3)):
        rng = np.random.default_rng(seed)
        cases.append([random_couplings(rng) for _ in range(draws)][-1])
    for j in cases:
        t1, t2 = plan_times(j)
        sol = solve_entangling_params(j, t1, t2)
        got = (sol.t3, sol.a1, sol.a2, sol.residual, sol.n_roots)
        assert got == lattice_oracle(j, t1, t2, max_iter=steps)


def test_solver_retires_settled_starts_early(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    j = calibrated_couplings()
    solve_entangling_params(j, *plan_times(j))
    assert 0 < len(calls) <= 30


def test_line_search_trial_serves_the_next_step(monkeypatch):
    # the full-step trial is the next step's residual for every start that
    # accepts it: past the first and the final evaluation of all 4096 starts,
    # the solver evaluates few more rows than it solves (2.05 times when each
    # step evaluated its own residual before the line search)
    evaluated, solved = [], []
    residual, solve = qft._window_residual, np.linalg.solve

    def counting_residual(theta, ex, ey):
        evaluated.append(theta.shape[0])
        return residual(theta, ex, ey)

    def counting_solve(a, b):
        solved.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(qft, "_window_residual", counting_residual)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    j = calibrated_couplings()
    solve_entangling_params(j, *plan_times(j))
    assert sum(solved) > 0
    assert sum(evaluated) - 2 * 4096 <= 1.25 * sum(solved)


def test_each_window_phase_is_solved_once(monkeypatch):
    def hexed(values):  # float.hex, so that equal means bit for bit
        return tuple(v.hex() if isinstance(v, float) else v for v in values)

    def fields(sol):
        return hexed((sol.t3, sol.a1, sol.a2, sol.residual, sol.n_roots))

    solved = []
    solve = np.linalg.solve

    def counting_solve(*args, **kwargs):
        solved.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    j = calibrated_couplings()
    t1, t2 = plan_times(j)
    # a failed solve raises and leaves nothing cached, so the same phase solves once restored
    with monkeypatch.context() as patch:
        patch.setattr(qft, "_STEPS", 0)
        with pytest.raises(CompilerError, match="did not converge"):
            solve_entangling_params(j, t1, t2)
    cold = solve_entangling_params(j, t1, t2)
    assert solved
    # the second solve at the same phase runs no Gauss-Newton step, and hands out its own record
    solved.clear()
    warm = solve_entangling_params(j, t1, t2)
    assert not solved
    assert warm is not cold and fields(warm) == fields(cold)
    cold.t3, cold.a1, cold.a2, cold.residual, cold.n_roots = 0.0, 0.0, 0.0, 1.0, 0
    assert fields(solve_entangling_params(j, t1, t2)) == fields(warm)
    monkeypatch.undo()
    # warm equals cold equals the lattice oracle, bit for bit
    assert fields(warm) == hexed(lattice_oracle(j, t1, t2))
    rng = np.random.default_rng(40)
    for k in range(3):
        j = random_couplings(rng)
        t1, t2 = plan_times(j)
        cold = fields(solve_entangling_params(j, t1, t2))
        assert fields(solve_entangling_params(j, t1, t2)) == cold, k
        qft._window_root.cache_clear()
        assert fields(solve_entangling_params(j, t1, t2)) == cold, k
        assert cold == hexed(lattice_oracle(j, t1, t2)), k
    # a register with the same rho23 bit for bit but another J12 gets its own T3
    rho23 = (t1 - t2) * j[1, 2] / 2.0
    other = j.copy()
    other[1, 2] = other[2, 1] = 1.3 * j[1, 2]
    d = (t1 - t2) / 1.3
    for _ in range(64):
        if d * other[1, 2] / 2.0 == rho23:
            break
        d = np.nextafter(d, np.inf if d * other[1, 2] / 2.0 < rho23 else -np.inf)
    assert d * other[1, 2] / 2.0 == rho23
    sol = solve_entangling_params(other, d, 0.0)
    assert fields(sol) == hexed(lattice_oracle(other, d, 0.0))
    assert sol.t3 != solve_entangling_params(j, t1, t2).t3
    assert qft._window_root.cache_info().misses == 1


def test_plan_kets_are_built_once(bench_j):
    # verify_plan's input kets live in qft.reference_answer's cached, read-only records
    for label in PRODUCT_INPUTS:
        answer = qft.reference_answer(label)
        assert qft.reference_answer(label) is answer
        assert answer.ket.tobytes() == product_input_ket(label).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            answer.ket[0] = 0.0
    # its overlaps are the ones built from fresh kets, bit for bit
    compiled = compile_qft(bench_j, form="exact", dd_scheme="kdd")
    check = verify_plan(compiled)
    u, ref = program_unitary(compiled.program, compiled.couplings), reference_qft()
    fresh = [state_fidelity(u @ v, ref @ v) for v in map(product_input_ket, PRODUCT_INPUTS)]
    got = np.concatenate([check.basis_fidelities, check.superposition_fidelities])
    assert got.tobytes() == np.array(fresh).tobytes()


def test_closed_form_basis_factors_match_the_reference_answers():
    # the transform maps |k> to the product over qubits q of (|0> + e^{2 pi i k / 2^(q+1)} |1>)
    # / sqrt(2), qubit 0 first; the numerical factors agree with it up to each one's global phase
    for k in range(8):
        factors = qft.reference_answer(format(k, "03b")).factors
        assert factors.shape == (3, 2)
        for q, got in enumerate(factors):
            want = np.array([1.0, np.exp(2j * np.pi * k / 2 ** (q + 1))]) / np.sqrt(2.0)
            assert np.outer(got, got.conj()) == pytest.approx(np.outer(want, want.conj()),
                                                              abs=1e-12), (k, q)
    for label in PRODUCT_INPUTS:
        answer = qft.reference_answer(label)
        if answer.factors is not None:
            product = np.kron(np.kron(answer.factors[0], answer.factors[1]), answer.factors[2])
            assert np.abs(product - answer.output).max() <= 1e-15, label
    # the outputs that are entangled, and so have no per-qubit factors
    assert [label for label in PRODUCT_INPUTS if qft.reference_answer(label).factors is None] \
        == ["00+", "0+0", "0++", "+0+"]


def test_verify_plan_reuses_the_gate_unitary(monkeypatch, bench_j):
    compiled = compile_qft(bench_j, form="optimized", dd_scheme="kdd")
    u = compiled.unitary
    assert u.tobytes() == program_unitary(compiled.program, compiled.couplings).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        u[0, 0] = 0.0
    # a replaced program brings its own unitary, so verify_plan never reads a stale one
    exact = compile_qft(bench_j, form="exact")
    swapped = dataclasses.replace(compiled, program=exact.program)
    assert swapped.unitary.tobytes() == exact.unitary.tobytes()
    assert swapped.process_fidelity == exact.process_fidelity
    calls = []

    def counting(*args):
        calls.append(args)
        return program_unitary(*args)

    monkeypatch.setattr(qft, "program_unitary", counting)
    check = verify_plan(compiled)
    assert calls == [] and check.min_fidelity > 1 - 5e-3


def test_exact_form_compiles_to_the_reference_anywhere():
    rng = np.random.default_rng(77)
    for _ in range(8):
        j = random_couplings(rng)
        compiled = compile_qft(j, form="exact")
        assert 1.0 - compiled.process_fidelity <= 1e-8
        check = verify_plan(compiled)
        assert check.min_fidelity >= 1.0 - 1e-8


def test_optimized_form_fidelity_gate():
    compiled = compile_qft(calibrated_couplings(), form="optimized")
    assert 1.0 - compiled.process_fidelity <= 5e-3
    # strongly asymmetric couplings break the shortened sequence; the exact
    # form still compiles there
    bad = pair_matrix(400.0, 60.0, 90.0)
    with pytest.raises(CompilerError, match="process fidelity"):
        compile_qft(bad, form="optimized")
    exact = compile_qft(bad, form="exact")
    assert 1.0 - exact.process_fidelity <= 1e-8


def test_compile_rejects_degenerate_couplings():
    with pytest.raises(CompilerError):
        compile_qft(pair_matrix(0.0, 113.0, 207.0))
    with pytest.raises(CompilerError):
        compile_qft(np.array([[0.0, 1.0], [1.0, 0.0]]))
    asym = pair_matrix(200.0, 113.0, 207.0)
    asym[0, 1] = 150.0
    with pytest.raises((CompilerError, ValueError)):
        compile_qft(asym)
    with pytest.raises(CompilerError, match="unknown sequence form 'x'"):
        qft.emit_sequence(BENCH_T1, BENCH_T2, qft.EntanglingSolution(BENCH_T3, 1.0, 1.0, 0.0, 1),
                          form="x")


def test_compile_rejects_non_finite_couplings():
    j = pair_matrix(200.0, 113.0, 207.0)
    j[0, 2] = j[2, 0] = np.inf
    with pytest.raises(CompilerError,
                       match=r"coupling J\[0, 2\] is inf; coupling J must be finite"):
        compile_qft(j)


def test_compiled_program_relabels_and_times(bench_j):
    compiled = compile_qft(bench_j, form="exact")
    assert compiled.program.relabel == (2, 1, 0)
    waits = [ins.duration for ins in compiled.program.instructions
             if isinstance(ins, FreeEvolve)]
    assert sum(waits) == pytest.approx(compiled.t1 + compiled.t2 + compiled.t3, rel=1e-12)
    assert compiled.duration == pytest.approx(8.78e-3, rel=1e-6)
    optimized = compile_qft(bench_j, form="optimized")
    assert optimized.duration == pytest.approx(8.56e-3, rel=1e-6)


def test_dd_budget_insertion(bench_j):
    compiled = compile_qft(bench_j, form="exact", dd_scheme="cpmg")
    dd = [(ins.duration, ins.dd_pulses) for ins in compiled.program.instructions
          if isinstance(ins, FreeEvolve) and ins.dd_pulses]
    assert (pytest.approx(compiled.t1), 20) in [(pytest.approx(d), n) for d, n in dd]
    assert sum(n for _, n in dd) == 60
    split = compile_qft(bench_j, form="optimized", dd_scheme="kdd")
    dd_opt = [ins.dd_pulses for ins in split.program.instructions
              if isinstance(ins, FreeEvolve) and ins.dd_pulses]
    assert sum(dd_opt) == 60
    # decoupling must not move the compiled unitary
    u_plain = program_unitary(compile_qft(bench_j, form="exact").program, bench_j)
    u_dd = program_unitary(compiled.program, bench_j)
    d = u_dd @ u_plain.conj().T
    d /= d[0, 0]
    assert d == pytest.approx(np.eye(8), abs=1e-8)


def test_serial_baseline(bench_j):
    total, steps = serial_baseline(bench_j)
    assert steps[(0, 1)] == pytest.approx((np.pi / 2) / bench_j[0, 1], rel=1e-12)
    assert steps[(0, 2)] == pytest.approx((np.pi / 4) / bench_j[0, 2], rel=1e-12)
    assert steps[(1, 2)] == pytest.approx((np.pi / 2) / bench_j[1, 2], rel=1e-12)
    assert total == pytest.approx(sum(steps.values()), rel=1e-12)
    assert compile_qft(bench_j, form="optimized").duration < total
