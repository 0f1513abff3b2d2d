"""Physical constants used across the package, and the register and chain caps.

Values are CODATA 2018, fixed to 12 significant digits so results are
reproducible independent of any constants library version. All SI.
"""

PLANCK = 6.62607015e-34            # J s (exact)
HBAR = 1.05457181765e-34           # J s (h / 2 pi)
ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
BOHR_MAGNETON = 9.27401007830e-24  # J/T
VACUUM_PERMITTIVITY = 8.85418781280e-12  # F/m
COULOMB_CONSTANT = 8.98755178737e9  # N m^2 / C^2, 1/(4 pi eps0)
ATOMIC_MASS = 1.66053906660e-27    # kg

# Largest register the dense engine builds: a 2^n x 2^n density matrix of
# complex doubles is 16 MB at 10 qubits and grows fourfold per qubit.
MAX_QUBITS = 10

# Longest ion chain TrapConfig accepts. Every chain of 1-84 ions meets |grad| < 1e-12 but
# one: under OpenBLAS Haswell the 84-ion search stops at 1.0897e-12, inside its rounding
# floor. Beyond that the rule lies below the floor, and most longer chains report a stall.
MAX_IONS = 84

# Longest decoupling train one window takes; the schedules here use 8-20 pulses.
# The engine applies each pulse to every qubit in turn (1,000 pulses on 7 qubits
# run 1.2 s on one core), so an uncapped count such as dd=10**20 never ends.
MAX_DD_PULSES = 10_000
