import numpy as np
import pytest

from magicforge.engine import program_unitary
from magicforge.program import FreeEvolve
from magicforge.qft import (
    BENCH_T1,
    BENCH_T2,
    BENCH_T3,
    CompilerError,
    calibrated_couplings,
    compile_qft,
    plan_times,
    reference_qft,
    serial_baseline,
    solve_entangling_params,
    verify_plan,
)


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
    f = reference_qft(3)
    k, m = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    assert f == pytest.approx(np.exp(2j * np.pi * k * m / 8) / np.sqrt(8), abs=1e-12)
    assert f @ f.conj().T == pytest.approx(np.eye(8), abs=1e-12)


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


def test_compile_rejects_non_finite_couplings():
    j = pair_matrix(200.0, 113.0, 207.0)
    j[0, 2] = j[2, 0] = np.inf
    with pytest.raises(CompilerError, match=r"coupling J\[0, 2\] must be finite, got inf"):
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
    compiled = compile_qft(bench_j, form="exact", dd_scheme="cpmg", dd_budget=(20, 40))
    dd = [(ins.duration, ins.dd_pulses) for ins in compiled.program.instructions
          if isinstance(ins, FreeEvolve) and ins.dd_pulses]
    assert (pytest.approx(compiled.t1), 20) in [(pytest.approx(d), n) for d, n in dd]
    assert sum(n for _, n in dd) == 60
    split = compile_qft(bench_j, form="optimized", dd_scheme="kdd", dd_budget=(20, 40))
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
