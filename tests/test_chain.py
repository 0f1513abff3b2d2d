import math

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
from magicforge.constants import BOHR_MAGNETON, HBAR, MAX_IONS


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
    # the Hessian is the derivative of the gradient: central differences, column by column
    step = 1e-5 * np.diff(u).min()
    eye = np.eye(len(u))
    fd = np.column_stack([
        (chain._scaled_gradient(u + step * e) - chain._scaled_gradient(u - step * e)) / (2 * step)
        for e in eye])
    np.testing.assert_allclose(fd, h, rtol=1e-6, atol=1e-6 * np.abs(h).max())


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
                        lambda u: gradient(u) + 1e-9 * rng.standard_normal(u.size))
    with pytest.raises(chain.ChainModelError, match=r"stalled at iteration \d+, \|grad\| = "
                                                    r"\S+, above its rounding floor"):
        equilibrium_positions(TrapConfig(ion_count=10))


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
