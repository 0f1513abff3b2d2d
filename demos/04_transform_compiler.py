"""
Compiling the three-qubit Fourier transform to pulses
=====================================================

Both compiled forms of the transform, side by side: the exact schedule
(three evolution windows, one spin parked during the third) and the
shorter optimized schedule that folds the small second window away at a
controlled fidelity cost. Prints the plan, verifies the unitary against
an explicit DFT matrix, and compares durations with a serial
pair-by-pair baseline.
"""

import numpy as np

from magicforge import (
    calibrated_couplings,
    compile_qft,
    process_fidelity,
    program_unitary,
    reference_qft,
    serial_baseline,
    verify_plan,
)

j = calibrated_couplings()
reference = reference_qft()

for form in ("exact", "optimized"):
    compiled = compile_qft(j, form=form)
    print(f"== {form} ==")
    print(f"windows (ms): T1={compiled.t1 * 1e3:.4f}  T2={compiled.t2 * 1e3:.4f}"
          f"  T3={compiled.t3 * 1e3:.4f}")
    print(f"echo-wrap angles: A1={compiled.a1 / np.pi:.5f} pi"
          f"  A2={compiled.a2 / np.pi:.5f} pi")
    print(f"total duration: {compiled.program.duration * 1e3:.4f} ms")

    u = program_unitary(compiled.program, compiled.couplings)
    print(f"process fidelity vs DFT: {process_fidelity(u, reference):.10f}")

    check = verify_plan(compiled)
    print(f"worst state fidelity over basis+superposition inputs: {check.min_fidelity:.6f}")
    print()

total, steps = serial_baseline(j)
optimized = compile_qft(j, form="optimized")
print(f"serial baseline (one pair at a time): {total * 1e3:.2f} ms")
print(f"parallel optimized schedule:          {optimized.program.duration * 1e3:.2f} ms")
print(f"speedup: {total / optimized.program.duration:.2f}x")

# The emitted program is plain text and runs anywhere the runtime does.
print()
print("optimized schedule with a 20+40 pulse KDD budget:")
print(compile_qft(j, form="optimized", dd_scheme="kdd").program.to_text())
