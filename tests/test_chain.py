import dataclasses
import math
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_pin
from magicforge import chain
from magicforge.chain import (
    CouplingMatrix,
    TrapConfig,
    coupling_matrix,
    equilibrium_positions,
    load_couplings,
    normal_modes,
    save_couplings,
    zeeman_profile,
)
from magicforge.constants import ATOMIC_MASS, BOHR_MAGNETON, HBAR, MAX_IONS


@pytest.fixture(autouse=True)
def cold_chain_caches():
    """Each test starts with no chain length solved, so the tests that count the Newton search's
    work, or break it, see a cold solve."""
    chain._scaled_equilibrium.cache_clear()
    chain._scaled_modes.cache_clear()


def loop_gradient(u):
    """Reference: the scaled Coulomb gradient summed pair by pair."""
    n = len(u)
    g = u.copy()
    for k in range(n):
        for m in range(n):
            if m == k:
                continue
            d = u[k] - u[m]
            g[k] -= np.sign(d) / d**2
    return g


def loop_hessian(u):
    """Reference: the scaled Coulomb Hessian filled pair by pair."""
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


LONG = np.longdouble


def gauss_jordan(a, b):
    """x with a x = b in a's dtype, by Gauss-Jordan elimination (np.linalg takes no longdouble).
    No pivoting: every matrix solved here is a scaled Hessian, strictly diagonally dominant
    (A_kk = 1 + sum_m |A_km|)."""
    m = np.concatenate([a, b.reshape(len(a), -1)], axis=1)
    for k in range(len(a)):
        m[k] /= m[k, k]
        column = m[:, k].copy()
        column[k] = 0
        m -= np.outer(column, m[k])
    return m[:, len(a):].reshape(b.shape)


def long_gradient_hessian(u):
    """The scaled gradient and Hessian of V(u) in u's dtype, written out from V."""
    off = ~np.eye(len(u), dtype=bool)
    d = np.where(off, u[:, None] - u, 1)
    pull = np.where(off, np.sign(d) / d**2, 0)
    curve = np.where(off, 2 / np.abs(d) ** 3, 0)
    h = -curve
    h[np.diag_indices(len(u))] = 1 + curve.sum(axis=1)
    return u - pull.sum(axis=1), h


def long_double_couplings(config):
    """Oracle J in np.longdouble: the equilibrium by Newton from the float64 one, then
    J = hbar r^2 / (2 m nu1^2) A^-1, A the scaled Hessian there and r the Zeeman gradient rate
    (the mode sum sum_n nu_n eps_in eps_jn collapsed; ROADMAP direction 9)."""
    u = equilibrium_positions(config).scaled_positions.astype(LONG)
    for _ in range(3):
        g, h = long_gradient_hessian(u)
        step = gauss_jordan(h, g)
        u = u - step
    # converged from float64 in one step: the last step is at long double's own resolution
    assert np.abs(step).max() <= 64 * np.finfo(LONG).eps * np.abs(u).max()
    rate = LONG(config.g_factor) * LONG(BOHR_MAGNETON) * LONG(config.magnetic_gradient) / LONG(HBAR)
    scale = LONG(HBAR) * rate**2 / (2 * LONG(config.ion_mass) * LONG(config.axial_frequency) ** 2)
    j = scale * gauss_jordan(long_gradient_hessian(u)[1], np.eye(len(u), dtype=LONG))
    np.fill_diagonal(j, 0)
    return j


@st.composite
def ascending_chains(draw):
    """Strictly ascending scaled positions of 2-84 ions, every length TrapConfig accepts."""
    n = draw(st.integers(2, MAX_IONS))
    start = draw(st.floats(-50.0, 0.0))
    gaps = draw(st.lists(st.floats(1e-2, 5.0), min_size=n - 1, max_size=n - 1))
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


@settings(max_examples=60, deadline=None)
@given(ascending_chains())
def test_broadcast_potential_matches_pairwise_loops(u):
    assert np.all(np.diff(u) > 0)
    # bit for bit: the same pow per pair and the same summation order
    assert np.array_equal(chain._scaled_gradient(u), loop_gradient(u))
    h = chain._scaled_hessian(u)
    assert np.array_equal(h, loop_hessian(u))
    # the search hands both the gaps it built once; that call form rounds alike
    gaps = chain._gaps(u)
    assert chain._scaled_gradient(u, gaps).tobytes() == loop_gradient(u).tobytes()
    assert chain._scaled_hessian(u, gaps).tobytes() == h.tobytes()
    # the Hessian is the derivative of the gradient: central differences, column by column
    step = 1e-5 * np.diff(u).min()
    eye = np.eye(len(u))
    fd = np.column_stack([
        (chain._scaled_gradient(u + step * e) - chain._scaled_gradient(u - step * e)) / (2 * step)
        for e in eye])
    np.testing.assert_allclose(fd, h, rtol=1e-6, atol=1e-6 * np.abs(h).max())


@pytest.mark.skipif(np.finfo(LONG).eps == np.finfo(float).eps,
                    reason=f"np.longdouble is float64 on {platform.system()} {platform.machine()}")
def test_coupling_matrix_error_against_the_long_double_oracle():
    """`coupling_matrix` within 3 x its measured float64 error of the long-double oracle.

    Measured with numpy 2.4.6 as max |J - J_oracle| / max |J_oracle| per chain, worst over
    every chain of 2-84 ions at a 0.05 T bias: 1.13e-13 (82 ions) under OpenBLAS SkylakeX,
    1.27e-13 (73) under Haswell and 1.10e-13 (83) under Sandybridge. k = 3 over the worst
    gives 3.8e-13; a J scaled by 1 + 1e-12 is about 9e-13 off and fails.
    """
    # IEEE quad (aarch64 Linux) is software arithmetic: a sample of the lengths there
    lengths = range(2, MAX_IONS + 1) if np.finfo(LONG).nmant <= 64 else (2, 3, 10, 42, MAX_IONS)
    for n in lengths:
        config = TrapConfig(ion_count=n, bias_field=0.05)
        want = long_double_couplings(config)
        error = np.abs(coupling_matrix(config).j - want).max() / np.abs(want).max()
        assert error <= 3 * 1.27e-13, (n, float(error))


def test_pair_powers_are_the_c_library_pow():
    # J's last bit, and so the benchmark's frozen shot counts, rest on np.float_power calling
    # the C library's pow per element, as math.pow does; np.power differs in ~5% of gaps
    # at y = 3
    rng = np.random.default_rng(20261019)
    gaps = [10.0 ** rng.uniform(-3.0, 3.0, 100_000)]
    for n in range(2, MAX_IONS + 1):
        u = equilibrium_positions(TrapConfig(ion_count=n)).scaled_positions
        gaps.append(np.abs(u[:, None] - u)[np.triu_indices(n, 1)])
    gaps = np.concatenate(gaps)
    for y in (2.0, 3.0):
        want = np.array([math.pow(g, y) for g in gaps.tolist()])
        assert np.float_power(gaps, y).tobytes() == want.tobytes()


class RecordingNumpy:
    """numpy for `chain`, recording how many gaps each np.float_power call raises."""

    def __init__(self):
        self.raised = []

    def __getattr__(self, name):
        return getattr(np, name)

    def float_power(self, x, y):
        self.raised.append(np.size(x))
        return np.float_power(x, y)


@pytest.mark.parametrize("n", [10, 60])
def test_each_newton_iterate_raises_each_pair_once(monkeypatch, n):
    # the n(n-1)/2 pairs i < k, each mirrored to (k, i); the search once raised all n^2 entries of
    # the gap matrix, each pair twice and the diagonal besides
    recorder = RecordingNumpy()
    monkeypatch.setattr(chain, "np", recorder)
    geo = equilibrium_positions(TrapConfig(ion_count=n))
    # a gradient at the start and at each trial, a Hessian at each step
    assert len(recorder.raised) >= 2 * geo.iterations - 1
    assert set(recorder.raised) == {n * (n - 1) // 2}


@pytest.mark.parametrize("n, iterations", [(2, 5), (3, 4), (10, 6), (35, 8), (60, 8)])
def test_newton_iteration_counts_are_pinned(n, iterations):
    geo = equilibrium_positions(TrapConfig(ion_count=n))
    assert geo.iterations == iterations
    assert geo.gradient_norm < 1e-12


def test_newton_stop_at_max_ions_is_pinned_per_kernel():
    # np.linalg.solve rounds the last Newton steps per OpenBLAS core, and numpy's SIMD tier
    # does not move them (measured under each of X86_V2, X86_V3 and X86_V4 with each core),
    # so the pin is keyed by the core alone. Under SkylakeX the 84-ion chain meets
    # |grad| < 1e-12 at iteration 10, and under Sandybridge at 11; under Haswell no damped
    # step gets below 1.09e-12, inside the rounding floor, and the search stops at 12
    geo = equilibrium_positions(TrapConfig(ion_count=MAX_IONS))
    iterations, gradient_norm = kernel_pin({"SkylakeX": (10, 9.128095163917694e-13),
                                            "Haswell": (12, 1.0897090427327293e-12),
                                            "Sandybridge": (11, 9.413053801389982e-13)})
    assert (geo.iterations, geo.gradient_norm) == (iterations, gradient_norm)
    assert geo.gradient_norm <= chain._rounding_floor(geo.scaled_positions)


def test_newton_stall_above_the_rounding_floor_raises(monkeypatch):
    # a gradient that keeps 1e-9 of noise can never settle: the line search runs out
    # of halvings far above the floor, and the search must fail, not stop
    rng = np.random.default_rng(7)
    gradient = chain._scaled_gradient
    monkeypatch.setattr(chain, "_scaled_gradient",
                        lambda u, *rest: gradient(u, *rest) + 1e-9 * rng.standard_normal(u.size))
    with pytest.raises(chain.ChainModelError, match=r"stalled at iteration \d+, \|grad\| = "
                                                    r"\S+, above its rounding floor"):
        equilibrium_positions(TrapConfig(ion_count=10))


def test_each_newton_iterate_subtracts_its_pairs_once(monkeypatch):
    # one gap matrix per iterate whose gradient is taken (the start and each trial) serves
    # that gradient and, once the trial is accepted, the next step's Hessian; the search
    # once subtracted every pair three times per iterate, twice in the gradient and once
    # more in the Hessian
    built, gradients, hessians = [], [], []
    gaps, gradient, hessian = chain._gaps, chain._scaled_gradient, chain._scaled_hessian

    def counting_gaps(u):
        built.append((u, gaps(u)))
        return built[-1][1]

    def counting_gradient(u, *rest):
        gradients.append((u, *rest))
        return gradient(u, *rest)

    def counting_hessian(u, *rest):
        hessians.append((u, *rest))
        return hessian(u, *rest)

    monkeypatch.setattr(chain, "_gaps", counting_gaps)
    monkeypatch.setattr(chain, "_scaled_gradient", counting_gradient)
    monkeypatch.setattr(chain, "_scaled_hessian", counting_hessian)
    geo = equilibrium_positions(TrapConfig(ion_count=10))
    # every Newton step took its first trial: the start and five trials, six builds
    assert (geo.iterations, len(built), len(gradients), len(hessians)) == (6, 6, 6, 5)
    for (u, g), call in zip(built, gradients):
        assert call[0] is u and call[1] is g
    for (u, g), call in zip(built, hessians):  # step k's Hessian is at iterate k
        assert call[0] is u and call[1] is g


def test_chains_above_the_cap_are_rejected(tmp_path):
    # the cap stays at 84 ions, the longest chain Tier-1 pins (per OpenBLAS core)
    assert MAX_IONS == 84
    with pytest.raises(ValueError, match="ion_count 85 is above MAX_IONS = 84"):
        TrapConfig(ion_count=MAX_IONS + 1)
    ini = tmp_path / "long.ini"
    ini.write_text("[trap]\nion_count = 85\n")
    with pytest.raises(ValueError, match="long.ini: ion_count 85 is above MAX_IONS"):
        TrapConfig.from_ini(ini)


def test_two_ion_equilibrium_closed_form():
    # one Coulomb pair: u^3 = 1/4 at equilibrium
    geo = equilibrium_positions(TrapConfig(ion_count=2))
    assert geo.scaled_positions[1] == pytest.approx((1.0 / 4.0) ** (1.0 / 3.0), abs=1e-10)
    assert geo.scaled_positions.sum() == pytest.approx(0.0, abs=1e-12)


def test_three_ion_equilibrium_closed_form():
    # outer ions sit at +-(5/4)^(1/3) trap lengths, centre ion at 0
    geo = equilibrium_positions(TrapConfig(ion_count=3))
    assert geo.scaled_positions[2] == pytest.approx((5.0 / 4.0) ** (1.0 / 3.0), abs=1e-10)
    assert geo.scaled_positions[0] == pytest.approx(-((5.0 / 4.0) ** (1.0 / 3.0)), abs=1e-10)
    assert abs(geo.scaled_positions[1]) < 1e-12
    assert np.all(np.diff(geo.positions) > 0)


def test_three_ion_mode_ratios_closed_form():
    config = TrapConfig(ion_count=3)
    modes = normal_modes(config, equilibrium_positions(config))
    ratios = modes.frequencies / modes.frequencies[0]
    assert ratios == pytest.approx([1.0, np.sqrt(3.0), np.sqrt(29.0 / 5.0)], rel=1e-9)


def test_com_mode_is_uniform_and_vectors_orthonormal():
    config = TrapConfig(ion_count=3)
    modes = normal_modes(config, equilibrium_positions(config))
    com = modes.vectors[:, 0]
    assert np.allclose(com, 1.0 / np.sqrt(3.0), atol=1e-10)  # sign fixed positive
    assert np.allclose(modes.vectors.T @ modes.vectors, np.eye(3), atol=1e-10)


def test_single_ion_chain():
    # one ion sits at the reference coordinate and its only mode is the COM mode at nu1;
    # the general eigh path gives these exact values for the 1x1 scaled Hessian
    for reference in (0.0, 1.5e-6, -2e-6):
        config = TrapConfig(ion_count=1, reference_coordinate=reference)
        geo = equilibrium_positions(config)
        assert geo.positions.tolist() == [reference] and geo.iterations == 0
        modes = normal_modes(config, geo)
        assert modes.frequencies.tolist() == [config.axial_frequency]
        assert modes.vectors.tolist() == [[1.0]]
        assert coupling_matrix(config, geo).j.tolist() == [[0.0]]


def test_ground_extio_match_definition():
    config = TrapConfig(ion_count=3)
    modes = normal_modes(config, equilibrium_positions(config))
    expected = np.sqrt(HBAR / (2.0 * config.ion_mass * modes.frequencies))
    assert modes.ground_extents == pytest.approx(expected, rel=1e-12)


def test_addressing_offsets_track_gradient_and_position():
    config = TrapConfig(ion_count=3)
    geo = equilibrium_positions(config)
    zee = zeeman_profile(config, geo)
    # delta f = g mu_B B' z / h per ion, relative to the trap centre
    expected = BOHR_MAGNETON * config.magnetic_gradient * geo.positions / (2 * np.pi * HBAR)
    assert zee.addressing_offsets_hz == pytest.approx(expected, rel=1e-10, abs=1e-6)
    assert zee.splittings == pytest.approx(
        BOHR_MAGNETON * (config.bias_field + config.magnetic_gradient * geo.positions) / HBAR,
        rel=1e-10)


def test_couplings_scale_with_gradient_squared():
    # bias raised so the field stays positive across the chain at both gradients
    j1 = coupling_matrix(TrapConfig(magnetic_gradient=19.0, bias_field=2e-3)).j
    j2 = coupling_matrix(TrapConfig(magnetic_gradient=38.0, bias_field=2e-3)).j
    off = ~np.eye(3, dtype=bool)
    assert j2[off] / j1[off] == pytest.approx(np.full(6, 4.0), rel=1e-12)


def test_field_sign_change_is_rejected():
    config = TrapConfig(magnetic_gradient=38.0)
    with pytest.raises(ValueError, match="sign"):
        zeeman_profile(config, equilibrium_positions(config))


def test_coupling_matrix_regression_values():
    j = coupling_matrix(TrapConfig()).j / (2 * np.pi)
    assert j[0, 1] == pytest.approx(34.1159, rel=1e-4)
    assert j[1, 2] == pytest.approx(34.1159, rel=1e-4)
    assert j[0, 2] == pytest.approx(24.1654, rel=1e-4)
    assert np.allclose(j, j.T)
    assert np.allclose(np.diag(j), 0.0)


def test_coupling_matrix_solves_equilibrium_once(monkeypatch):
    calls = []
    solve = chain.equilibrium_positions

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(chain, "equilibrium_positions", counting_solve)
    config = TrapConfig(ion_count=10, bias_field=1e-2)
    coupling_matrix(config)
    assert len(calls) == 1
    calls.clear()
    geometry = solve(config)
    coupling_matrix(config, geometry)
    assert len(calls) == 0


def test_each_chain_length_is_solved_once(monkeypatch):
    rng = np.random.default_rng(20261022)

    def random_trap(n):  # bias above the 84-ion chain's field swing at the top gradient
        return TrapConfig(ion_count=n, ion_mass=rng.uniform(6.0, 200.0) * ATOMIC_MASS,
                          axial_frequency=2 * np.pi * rng.uniform(5e4, 5e5),
                          magnetic_gradient=rng.uniform(1.0, 40.0),
                          bias_field=rng.uniform(0.1, 1.0))

    def bits(config):
        return coupling_matrix(config).j.view(np.uint64)

    # a stalled search raises and leaves nothing cached, so the next call searches again
    gradient = chain._scaled_gradient
    monkeypatch.setattr(chain, "_scaled_gradient",
                        lambda u, *rest: gradient(u, *rest) + 1e-9 * rng.standard_normal(u.size))
    for _ in range(2):
        with pytest.raises(chain.ChainModelError, match="stalled"):
            equilibrium_positions(TrapConfig(ion_count=10))
    monkeypatch.undo()
    # warm equals cold bit for bit at every length, on traps that share only the ion count
    for n in range(2, MAX_IONS + 1):
        config = random_trap(n)
        coupling_matrix(random_trap(n))  # another trap of this length fills the caches
        warm = bits(config)
        chain._scaled_equilibrium.cache_clear()
        chain._scaled_modes.cache_clear()
        assert np.array_equal(warm, bits(config)), n

    def solved_again(*args):
        raise AssertionError("a cached chain length was solved again")

    config = random_trap(12)
    coupling_matrix(random_trap(12))
    for module, name in ((chain, "_scaled_gradient"), (chain, "_scaled_hessian"),
                         (np.linalg, "eigh")):
        monkeypatch.setattr(module, name, solved_again)
    j = bits(config)
    monkeypatch.undo()
    # every array handed out is the caller's: writing into it moves no later J
    geometry = equilibrium_positions(config)
    modes = normal_modes(config, geometry)
    for array in (geometry.positions, geometry.scaled_positions, modes.frequencies,
                  modes.vectors, modes.ground_extents):
        array[...] = 0.0
    assert np.array_equal(bits(config), j)
    # a caller-built geometry one ulp off the cached crystal gets the eigh of its own Hessian
    geometry = equilibrium_positions(config)
    nudged = geometry.scaled_positions.copy()
    nudged[-1] = np.nextafter(nudged[-1], np.inf)
    lam = np.linalg.eigh(chain._scaled_hessian(nudged))[0]
    own = dataclasses.replace(geometry, scaled_positions=nudged)
    frequencies = normal_modes(config, own).frequencies
    assert np.array_equal(frequencies, config.axial_frequency * np.sqrt(lam))
    assert not np.array_equal(frequencies, normal_modes(config, geometry).frequencies)


def test_coupling_ratio_from_mode_sums():
    # independent oracle: J_ij proportional to sum_n S_in S_jn / nu_n^2
    config = TrapConfig()
    modes = normal_modes(config, equilibrium_positions(config))
    s = modes.vectors
    weights = 1.0 / modes.frequencies**2
    def pair(i, k):
        return float(np.sum(weights * s[i] * s[k]))
    j = coupling_matrix(config).j
    assert j[0, 1] / j[0, 2] == pytest.approx(pair(0, 1) / pair(0, 2), rel=1e-10)


def test_save_load_round_trip(tmp_path):
    cm = coupling_matrix(TrapConfig())
    path = tmp_path / "j.txt"
    save_couplings(path, cm)
    again = load_couplings(path)
    assert again.j == pytest.approx(cm.j, rel=1e-11)


def test_load_rejects_asymmetric_matrix(tmp_path):
    path = tmp_path / "bad.txt"
    np.savetxt(path, np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"bad.txt: coupling J\[0, 1\]"):
        load_couplings(path)
    path.write_text("0 1\n1 x\n")
    with pytest.raises(ValueError, match="bad.txt: could not convert"):
        load_couplings(path)


def test_load_names_a_file_with_no_data(tmp_path):
    # numpy's loadtxt only warns on an empty file, and that warning escaped the reader
    path = tmp_path / "empty.txt"
    for text in ("", "# a comment and no matrix\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="empty.txt: no coupling matrix in the file"):
            load_couplings(path)


def test_coupling_matrix_validates_shape():
    with pytest.raises(ValueError):
        CouplingMatrix(j=np.zeros((2, 3)))


def test_coupling_matrix_leaves_the_callers_array_alone():
    j = np.array([[5.0, 1.0], [1.0, 7.0]])
    cm = CouplingMatrix(j=j)
    assert np.diag(cm.j).tolist() == [0.0, 0.0]
    assert j.tolist() == [[5.0, 1.0], [1.0, 7.0]]


def test_trap_config_rejects_non_finite_fields():
    with pytest.raises(ValueError, match="bias_field must be finite, got nan"):
        TrapConfig(bias_field=float("nan"))
    with pytest.raises(ValueError, match="ion_mass must be finite, got inf"):
        TrapConfig(ion_mass=float("inf"))
    with pytest.raises(ValueError, match="axial_frequency must be finite, got nan"):
        TrapConfig(axial_frequency=float("nan"))


def test_coupling_matrix_rejects_non_finite_entries():
    j = np.full((3, 3), 100.0)
    j[1, 2] = j[2, 1] = np.inf
    with pytest.raises(ValueError, match=r"coupling J\[1, 2\] is inf; coupling J must be finite"):
        CouplingMatrix(j=j)


def test_from_ini_parses_and_reports_errors(tmp_path):
    good = tmp_path / "trap.ini"
    good.write_text(
        "[trap]\nion_count = 3\nion_mass_amu = 171\naxial_frequency_hz = 130e3\n"
        "magnetic_gradient_t_per_m = 19\nbias_field_t = 0.4146e-3\n")
    config = TrapConfig.from_ini(good)
    assert config.axial_frequency == pytest.approx(2 * np.pi * 130e3)
    with pytest.raises(ValueError, match="missing"):
        bad = tmp_path / "empty.ini"
        bad.write_text("[other]\nx = 1\n")
        TrapConfig.from_ini(bad)
    with pytest.raises(ValueError, match="malformed"):
        bad = tmp_path / "mal.ini"
        bad.write_text("[trap]\nion_count = 3\nbias_field_t = many\n")
        TrapConfig.from_ini(bad)
    with pytest.raises(ValueError, match="missing.ini: config file not found"):
        TrapConfig.from_ini(tmp_path / "missing.ini")
    # configparser's own errors and a rejected value name the file too
    for text, message in (("ion_count = 3\n", "no section headers"),
                          ("[trap]\nion_count = 3\n[trap]\n", "already exists"),
                          ("[trap]\nion_count = 0\n", "ion_count must be an int"),
                          ("[trap]\nion_count = 3\ng_factor = 50%\n", "'%'"),
                          # a misspelt key once left its field at the default
                          ("[trap]\nmagnetic_gradent_t_per_m = 40\n",
                           r"\[trap\] has unknown key 'magnetic_gradent_t_per_m'; known: "),
                          # int() and float() read non-ASCII numerals: this ran a 3-ion chain
                          ("[trap]\nion_count = \uff13\n",
                           r"\[trap\] ion_count = '\uff13' is malformed: a number must be ASCII"),
                          # an overflow in zeeman_profile escaped as a bare RuntimeWarning,
                          # and a zero division in length_scale as a bare ZeroDivisionError
                          ("[trap]\nbias_field_t = 1e308\n",
                           r"bias_field 1e\+308 overflows .*\(\[trap\] bias_field_t = 1e308\)"),
                          ("[trap]\naxial_frequency_hz = 1e-300\n",
                           r"no finite Coulomb length .*\(\[trap\] axial_frequency_hz = 1e-300\)"),
                          ("[trap]\naxial_frequency_hz = 1e200\n",
                           r"\(\[trap\] axial_frequency_hz = 1e200\)"),
                          ("[trap]\nmagnetic_gradient_t_per_m = 1e308\n",
                           r"\(\[trap\] magnetic_gradient_t_per_m = 1e308\)")):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"bad.ini: .*{message}"):
            TrapConfig.from_ini(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        TrapConfig(ion_count=0)
    for count in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="ion_count must be an int of at least 1"):
            TrapConfig(ion_count=count)
    with pytest.raises(ValueError, match="bias_field must be a real number"):
        TrapConfig(bias_field="1e-3")
    with pytest.raises(ValueError, match="g_factor must be a real number"):
        TrapConfig(g_factor=None)
    with pytest.raises(ValueError):
        TrapConfig(ion_mass=-1.0)
    with pytest.raises(ValueError):
        TrapConfig(magnetic_gradient=-1.0)
