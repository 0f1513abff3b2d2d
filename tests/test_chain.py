import numpy as np
import pytest

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
from magicforge.constants import BOHR_MAGNETON, HBAR


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
    modes = normal_modes(TrapConfig(ion_count=3))
    ratios = modes.frequencies / modes.frequencies[0]
    assert ratios == pytest.approx([1.0, np.sqrt(3.0), np.sqrt(29.0 / 5.0)], rel=1e-9)


def test_com_mode_is_uniform_and_vectors_orthonormal():
    modes = normal_modes(TrapConfig(ion_count=3))
    com = modes.vectors[:, 0]
    assert np.allclose(np.abs(com), 1.0 / np.sqrt(3.0), atol=1e-10)
    assert np.allclose(modes.vectors.T @ modes.vectors, np.eye(3), atol=1e-10)


def test_ground_extio_match_definition():
    config = TrapConfig(ion_count=3)
    modes = normal_modes(config)
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
    with pytest.raises(ValueError, match="sign"):
        zeeman_profile(TrapConfig(magnetic_gradient=38.0))


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
    coupling_matrix(config, modes=normal_modes(config, geometry),
                    zeeman=zeeman_profile(config, geometry))
    assert len(calls) == 0


def test_coupling_ratio_from_mode_sums():
    # independent oracle: J_ij proportional to sum_n S_in S_jn / nu_n^2
    config = TrapConfig()
    modes = normal_modes(config)
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
    assert again.provenance == "user-supplied"


def test_load_rejects_asymmetric_matrix(tmp_path):
    path = tmp_path / "bad.txt"
    np.savetxt(path, np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        load_couplings(path)


def test_coupling_matrix_validates_shape():
    with pytest.raises(ValueError):
        CouplingMatrix(j=np.zeros((2, 3)))


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
    with pytest.raises(ValueError, match=r"coupling J\[1, 2\] must be finite, got inf"):
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
    with pytest.raises(ValueError):
        TrapConfig.from_ini(tmp_path / "missing.ini")


def test_config_validation():
    with pytest.raises(ValueError):
        TrapConfig(ion_count=0)
    with pytest.raises(ValueError):
        TrapConfig(ion_mass=-1.0)
    with pytest.raises(ValueError):
        TrapConfig(magnetic_gradient=-1.0)
