"""
Ramsey fringes, conditional precession, and decoupling contrast
===============================================================

A probe qubit prepared on the equator precesses at a rate set by its
couplings to the spectators and by the spectator states. Scanning the
analysis phase at two wait times and fitting both fringes gives the rate;
flipping a spectator flips the sign of that spectator's contribution.
With dephasing on, the fringe contrast sits at the analytic e^(-gamma*T)
and a CPMG train passes through without touching phase or contrast.
"""

import numpy as np

from magicforge import NoiseModel, calibrated_couplings, ramsey_fit, ramsey_scan

j = np.asarray(calibrated_couplings())
phases = np.linspace(0.0, 2 * np.pi, 25, endpoint=False)
wait = 4e-3

print("probe qubit 0, couplings j01 = %.3f, j02 = %.3f rad/s" % (j[0, 1], j[0, 2]))
print()

for bits, expected in [({1: 0, 2: 0}, j[0, 1] + j[0, 2]),
                       ({1: 0, 2: 1}, j[0, 1] - j[0, 2])]:
    # Fit the fringe phase at T=0 and at T=wait; the rate is the slope.
    # Precession shows up as a negative shift of the fringe phase. The fit at
    # T=0 sits on the +-pi branch cut, where rounding picks the sign, so the
    # phase difference is wrapped into [-pi, pi).
    fits = []
    for t in (0.0, wait):
        probs = ramsey_scan(0, t, phases, j, noise=NoiseModel.off(),
                            spectator_bits=bits)
        fits.append(ramsey_fit(phases, probs))
    shift = (fits[1].phase - fits[0].phase + np.pi) % (2 * np.pi) - np.pi
    rate = -shift / wait
    print(f"spectators |{bits[1]}{bits[2]}>  fitted rate {rate:9.3f} rad/s"
          f"   expected {expected:9.3f}")

# Contrast under pure dephasing, echoes on and off. The dephasing model is
# Markovian, so the pulse train neither extends nor shortens the decay; the
# point of the check is that a 20-pulse train leaves both the contrast and
# the conditional phase untouched instead of distorting the fringe.
noise = NoiseModel(white_noise_fraction=0.0, readout_fidelity=1.0)
print()
print(f"analytic contrast at T = {wait * 1e3:.0f} ms:",
      round(float(np.exp(-noise.sigma_dephasing_rate * wait)), 4))
for pulses in (0, 20):
    probs = ramsey_scan(0, wait, phases, j, noise=noise, dd_pulses=pulses)
    fit = ramsey_fit(phases, probs)
    print(f"cpmg pulses = {pulses:2d}  fitted contrast {fit.contrast:.4f}")

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    probs = ramsey_scan(0, wait, phases, j, noise=noise, dd_pulses=20)
    plt.plot(phases, probs, "o-")
    plt.xlabel("analysis phase (rad)")
    plt.ylabel("P(bright)")
    plt.title("probe fringe, 4 ms wait, CPMG-20")
    plt.savefig("fringe.png", dpi=120)
    print()
    print("wrote fringe.png")
