"""Pulse-level compiler and exact simulator for gradient-coupled ion registers.

The package models a linear chain of trapped ions whose internal states are
driven by microwave pulses and coupled by a static magnetic gradient. It
covers the full workflow: chain mechanics to coupling matrix, encoding
topologies, density-matrix pulse simulation with the experiment's noise
model, a compiler that schedules a three-qubit Fourier transform from free
Ising evolution windows, and the fidelity/overlap metrics used to judge the
results.
"""

import types

from .chain import (
    ChainGeometry,
    ChainModelError,
    CouplingMatrix,
    ModeDecomposition,
    TrapConfig,
    ZeemanProfile,
    coupling_matrix,
    equilibrium_positions,
    load_couplings,
    normal_modes,
    save_couplings,
    zeeman_profile,
)
from .encoding import (
    EncodingError,
    TopologyAssignment,
    decoupled_memory_fragment,
    effective_couplings,
    parse_topology,
    topology_preset,
)
from .engine import (
    EngineError,
    NoiseModel,
    QuantumState,
    RunResult,
    fringe_scan,
    measurement_probabilities,
    prepare_state,
    product_input_ket,
    program_unitary,
    ramsey_program,
    ramsey_scan,
    run_batch,
    run_program,
    sample_counts,
)
from .harness import (
    HarnessError,
    RunRecord,
    Scenario,
    emit_records,
    load_scenario_file,
    run_all,
    run_custom_scenario,
    run_scenario,
)
from .metrics import (
    ErrorBudget,
    FringeFit,
    MetricsError,
    distinguishability,
    error_budget,
    fidelity_via_local_rotation,
    fringe_fidelity,
    process_fidelity,
    ramsey_fit,
    state_fidelity,
    statistical_overlap,
    total_variation,
)
from .program import (
    BASIS_PI,
    BASIS_SIGMA_MINUS,
    BASIS_SIGMA_PLUS,
    Echo,
    FreeEvolve,
    Measure,
    PhaseShift,
    ProgramError,
    PulseProgram,
    Rotate,
    TransferBasis,
    parse_program,
)
from .qft import (
    PRODUCT_INPUTS,
    CompiledTransform,
    CompilerError,
    PlanVerification,
    calibrated_couplings,
    compile_qft,
    emit_sequence,
    plan_times,
    reference_qft,
    serial_baseline,
    solve_entangling_params,
    verify_plan,
)

__version__ = "0.1.0"

# every public name imported above; the submodules themselves are not exports
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
