"""
Static chain properties: geometry, modes, addressing, couplings
===============================================================

Walks the full chain model for a three-ion 171Yb+ crystal in a static
magnetic gradient: equilibrium positions, axial normal modes, per-ion
Zeeman splittings, and the resulting Ising coupling matrix.
"""

import numpy as np

from magicforge import (
    TrapConfig,
    coupling_matrix,
    equilibrium_positions,
    normal_modes,
    zeeman_profile,
)

config = TrapConfig()  # defaults: 3 ions, 130 kHz axial trap, 19 T/m gradient

geometry = equilibrium_positions(config)
print("equilibrium positions (um):", np.round(geometry.positions * 1e6, 4))
print("length scale (um):         ", round(geometry.length_scale * 1e6, 4))
print("newton iterations:         ", geometry.iterations)

# Axial modes. For three ions the frequency ratios are 1 : sqrt(3) : sqrt(29/5)
# independent of mass and trap frequency.
modes = normal_modes(config, geometry)
freqs_khz = modes.frequencies / (2 * np.pi) / 1e3
print()
print("mode frequencies (kHz):", np.round(freqs_khz, 4))
print("ratios to COM:         ", np.round(modes.frequencies / modes.frequencies[0], 7))

zeeman = zeeman_profile(config, geometry)
print()
print("qubit splittings (MHz):", np.round(zeeman.splittings / (2 * np.pi) / 1e6, 5))
print("addressing offsets from the middle ion (MHz):",
      np.round(zeeman.addressing_offsets_hz / 1e6, 5))

# The gradient makes the splittings position dependent, which is what lets
# microwaves address single ions in frequency space and what generates the
# spin-spin coupling in the first place.
coupling = coupling_matrix(config, modes, zeeman)
print()
print("J / 2pi (Hz):")
for row in coupling.j / (2 * np.pi):
    print("   " + "  ".join(f"{v:8.4f}" for v in row))

# J scales with the square of the gradient. Doubling it buys a factor 4.
# A larger bias keeps the field from changing sign across the chain.
strong = TrapConfig(magnetic_gradient=38.0, bias_field=2e-3)
j_strong = coupling_matrix(strong).j
j_base = coupling_matrix(TrapConfig(bias_field=2e-3)).j
print()
print("J(38 T/m) / J(19 T/m) =", round(j_strong[0, 1] / j_base[0, 1], 6))
