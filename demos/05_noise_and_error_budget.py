"""
Noisy transform runs and where the infidelity goes
==================================================

Runs the optimized transform through the full noise model (dephasing during
the windows, a depolarizing white-noise floor, detection errors on the
histogram) for a family of input states, then splits the measured
infidelity into its three budget lines.
"""

import numpy as np

from magicforge import (
    NoiseModel,
    compile_qft,
    error_budget,
    measurement_probabilities,
    prepare_state,
    product_input_ket,
    run_program,
    sample_counts,
    state_fidelity,
    statistical_overlap,
)

compiled = compile_qft(form="optimized", dd_scheme="kdd")
rng = np.random.default_rng(20260816)

# Inputs walk from all-bright to the uniform superposition one qubit at a
# time. The transform of |111> is the uniform state; the transform of |+++>
# is a computational basis state.
inputs = ("111", "+11", "++1", "+++")

print("input   sso(analytic)   sso(1250 shots)")
for label in inputs:
    psi = product_input_ket(label)
    ideal = run_program(compiled.program, compiled.couplings,
                        noise=NoiseModel.off(), initial=psi)
    noisy = run_program(compiled.program, compiled.couplings, initial=psi)

    p_ideal = measurement_probabilities(ideal.state, NoiseModel.off())
    p_model = measurement_probabilities(noisy.state, NoiseModel())  # includes detection errors
    counts = sample_counts(p_model, shots=1250, rng=rng)
    empirical = counts / 1250

    print(f"|{label}>   {statistical_overlap(p_ideal, p_model):12.4f}"
          f"   {statistical_overlap(p_ideal, empirical):12.4f}")

# Budget for the |111> run: state fidelity with dephasing only, then the
# white-noise and detection lines stacked on top.
state = prepare_state(3, "111")
target = run_program(compiled.program, compiled.couplings,
                     noise=NoiseModel.off(), initial=state.rho)
dephased = run_program(
    compiled.program, compiled.couplings,
    noise=NoiseModel(white_noise_fraction=0.0, readout_fidelity=1.0), initial=state.rho)
f_deph = state_fidelity(dephased.state, target.state)

budget = error_budget(f_deph, white_noise_fraction=0.25, readout_fidelity=0.96)
print()
print(f"dephased-only fidelity:     {f_deph:.4f}")
print(f"predicted full fidelity:    {budget.predicted_fidelity:.4f}")
print(f"white-noise ceiling:        {budget.white_noise_ceiling:.4f}")
print(f"white-noise infidelity:     {budget.white_noise_infidelity:.4f}")
print(f"detection loss (histogram): {budget.detection_loss:.4f}")
print(f"pulse-error residual:       {budget.pulse_error_residual:.4f}")
