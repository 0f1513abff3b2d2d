"""The benchmark's workloads: seeded inputs, the timed op, and output checks.

Each workload draws op k's inputs from its own counter-based stream keyed by
(seed, workload, k), so the same seed gives the same inputs whatever else
runs. The op calls the package only through module attributes
(`chain.coupling_matrix`, ...), so the traced run sees every call. Checks
compare outputs with `reference` (written from documented formulas, not
from the package's code) and, at DEFAULT_SEED, with values frozen in
`expected/` by `tools.py freeze`. A check returns a list of problems; an
empty list means the output is correct.
"""

import csv
import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import calibration
import reference as ref
from magicforge import chain, engine, harness, program, qft

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
DEFAULT_SEED = 20260816  # the harness's own default seed
REL, ABS = 1e-9, 1e-12
SHIFT = 1e-6  # relative shift the check self-test applies to a real output


def stream(seed, *key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


def random_trap(rng, ion_count):
    """Seeded trap; every chain here is under 0.2 mm long, so a bias of at
    least gradient x 0.5 mm keeps the field's sign across it."""
    gradient = rng.uniform(10.0, 40.0)
    return chain.TrapConfig(
        ion_count=ion_count,
        axial_frequency=2 * np.pi * rng.uniform(100e3, 250e3),
        magnetic_gradient=gradient,
        bias_field=gradient * 0.5e-3 * rng.uniform(1.0, 3.0),
    )


def close(actual, expected, rel=REL, abs_=ABS):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= abs_ + rel * np.abs(expected)))


def compare_frozen(record, frozen):
    """Problems between an op's record and its frozen twin (counts exactly)."""
    problems = []
    for key, want in frozen.items():
        got = record[key]
        same = np.array_equal(got, want) if key == "counts" else close(got, want)
        if not same:
            problems.append(f"{key} differs from the frozen value")
    return problems


class Workload:
    name = ""
    ident = 0
    warmup_policy = ""
    cycle = 1  # ops after which the mix of op structures repeats
    kernel = None  # calibration kernel factory (calibration.py)
    kernel_ref_ms = 1.0  # its time on the reference core, by definition

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.frozen = []
        path = EXPECTED / f"{self.name}.json"
        if seed == DEFAULT_SEED and path.is_file():
            self.frozen = json.loads(path.read_text())["ops"]

    def setup(self):
        """Inputs shared by every op; runs before the warm-up, counted in setup_s."""

    def warmup_inputs(self):
        raise NotImplementedError

    def make_input(self, k):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, k, inp, out):
        problems = self.check_output(inp, out)
        if k < len(self.frozen):
            problems += compare_frozen(self.record(out), self.frozen[k])
        return problems

    def check_output(self, inp, out):
        raise NotImplementedError

    def record(self, out):
        """The op's values that are frozen at the default seed."""
        raise NotImplementedError

    def mutate(self, out, kind):
        """A copy of `out` shifted by SHIFT ("shift") or with one shot count
        changed by one ("shot"); None when the output has no shot counts."""
        raise NotImplementedError

    def cleanup(self, out):
        pass

    def close(self):
        pass


# ---------------------------------------------------------------- reproduce

# Columns that come from shot sampling; every other column is seed-independent.
SAMPLED = {
    "precession": {"contrast", "contrast_err", "phase", "phase_err"},
    "transform_fringes": {"contrast", "contrast_err", "phase", "fringe_fidelity"},
    "distributions": {"p_simulated_noisy", "counts"},
    "distribution_summary": {"sso", "distinguishability"},
}


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def cells_match(got, want):
    if got == want:
        return True
    try:
        return close(float(got), float(want))
    except ValueError:
        return False


class Reproduce(Workload):
    name = "reproduce"
    ident = 1
    warmup_policy = "one run_all (3-qubit register; cpmg and kdd windows)"
    kernel = staticmethod(calibration.scenarios)
    kernel_ref_ms = 8.0

    def setup(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="reproduce-", dir=self.workdir))
        self.expected = {p.stem: read_table(p) for p in sorted((EXPECTED / "reproduce").glob("*.csv"))}
        self.sampled_first = None

    def warmup_inputs(self):
        return [self.seed]

    def make_input(self, k):
        return self.seed

    def op(self, seed):
        directory = tempfile.mkdtemp(dir=self.tmp)
        harness.run_all(directory, seed)
        return Path(directory)

    def check_output(self, seed, out):
        tables = {p.stem: read_table(p) for p in sorted(out.glob("*.csv"))}
        if set(tables) != set(self.expected):
            return [f"tables {sorted(tables)} != expected {sorted(self.expected)}"]
        problems, sampled = [], {}
        for stem, (columns, rows) in tables.items():
            want_columns, want_rows = self.expected[stem]
            if columns != want_columns or len(rows) != len(want_rows):
                problems.append(f"{stem}: layout differs from the expected table")
                continue
            for r, (row, want_row) in enumerate(zip(rows, want_rows)):
                for column, got, want in zip(columns, row, want_row):
                    if column in SAMPLED.get(stem, ()):
                        sampled[stem, r, column] = got
                        if seed == DEFAULT_SEED and got != want:
                            problems.append(f"{stem} row {r} {column}: {got} != frozen {want}")
                    elif not cells_match(got, want):
                        problems.append(f"{stem} row {r} {column}: {got} != expected {want}")
        problems += self._shot_consistency(tables)
        if self.sampled_first is None:
            self.sampled_first = sampled
        elif sampled != self.sampled_first:
            problems.append("shot-sampled cells differ from the run's first op")
        return problems

    @staticmethod
    def _shot_consistency(tables):
        columns, rows = tables["distributions"]
        s_columns, s_rows = tables["distribution_summary"]
        shots = {row[s_columns.index("input")]: int(row[s_columns.index("shots")]) for row in s_rows}
        totals = dict.fromkeys(shots, 0)
        problems = []
        for row in rows:
            cell = dict(zip(columns, row))
            counts = int(cell["counts"])
            totals[cell["input"]] += counts
            if not close(float(cell["p_simulated_noisy"]), counts / shots[cell["input"]]):
                problems.append(f"distributions {cell['label']}: frequency != counts / shots")
        problems += [f"distributions {label}: counts sum to {totals[label]}, not {n}"
                     for label, n in shots.items() if totals[label] != n]
        return problems

    def record(self, out):
        return {}

    def mutate(self, out, kind):
        copy = Path(tempfile.mkdtemp(dir=self.tmp))
        for path in out.iterdir():
            shutil.copy(path, copy / path.name)
        stem, column = ("fidelity_table", "fidelity") if kind == "shift" else ("distributions", "counts")
        columns, rows = read_table(copy / f"{stem}.csv")
        i = columns.index(column)
        if kind == "shift":
            rows[0][i] = format(float(rows[0][i]) * (1 + SHIFT), ".10g")
        else:
            rows[0][i] = str(int(rows[0][i]) + 1)
        with open(copy / f"{stem}.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([columns] + rows)
        return copy

    def cleanup(self, out):
        shutil.rmtree(out, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# ---------------------------------------------------------------- compile_sweep

SCHEMES = (None, "cpmg", "kdd")


class CompileSweep(Workload):
    name = "compile_sweep"
    ident = 2
    warmup_policy = "one op per decoupling scheme (none, cpmg, kdd), 3-qubit blocks"
    cycle = len(SCHEMES)
    kernel = staticmethod(calibration.lattice)
    kernel_ref_ms = 4.5

    def _input(self, rng, scheme):
        ions = int(rng.integers(3, 13))
        return random_trap(rng, ions), int(rng.integers(0, ions - 2)), scheme

    def warmup_inputs(self):
        return [self._input(stream(self.seed, self.ident, 1, i), s) for i, s in enumerate(SCHEMES)]

    def make_input(self, k):
        return self._input(stream(self.seed, self.ident, 0, k), SCHEMES[k % 3])

    def op(self, inp):
        config, start, scheme = inp
        j = chain.coupling_matrix(config).j[start:start + 3, start:start + 3]
        compiled = qft.compile_qft(j, form="exact", dd_scheme=scheme)
        return compiled, qft.verify_plan(compiled)

    def check_output(self, inp, out):
        compiled, plan = out
        j, t1, t2, t3 = compiled.couplings, compiled.t1, compiled.t2, compiled.t3
        problems = []
        residual = ref.window_residual(j, t1, t2, t3, compiled.a1, compiled.a2)
        if not residual <= 1e-8:
            problems.append(f"window residual {residual:.3g} > 1e-8")
        windings = (j[0, 1] * (t1 + t2) / 2 - np.pi / 8) / (2 * np.pi)
        if not abs(windings - round(windings)) <= 1e-9:
            problems.append("J01 (T1 + T2) / 2 is not pi/8 mod 2 pi")
        if not close(t1 - t2, np.pi / (8 * j[0, 2])):
            problems.append("T1 - T2 != pi / (8 J02)")
        if not (t2 >= 0 and t3 > 0):
            problems.append("negative window")
        if not plan.min_fidelity >= 1 - 1e-8:
            problems.append(f"verify_plan min fidelity {plan.min_fidelity:.12f}")
        u = ref.evolve(ref.instructions_of(compiled.program), 3, j, np.eye(8),
                       compiled.program.relabel)
        fidelity = abs(np.trace(ref.dft(3).conj().T @ u)) ** 2 / 64
        if not fidelity >= 1 - 1e-8:
            problems.append(f"reference process fidelity {fidelity:.12f}")
        return problems

    def record(self, out):
        c = out[0]
        return {"schedule": [c.t1, c.t2, c.t3, c.a1, c.a2]}

    def mutate(self, out, kind):
        if kind == "shot":
            return None
        compiled, plan = out
        return dataclasses.replace(compiled, t3=compiled.t3 * (1 + SHIFT)), plan


# ---------------------------------------------------------------- wide_register

# Op k's structure is fixed by k, so every seed runs the same mix of register
# sizes, windows and schemes and op cost does not depend on the seed; the seed
# draws the pulse angles, durations, parked qubits and trap parameters. The
# size cycle puts the median op inside the 6-qubit class.
SIZES = (4, 6, 5, 7, 6)
PULSES = {"cpmg": (8, 16, 12), "kdd": (10, 20, 20)}
SHOTS = 1000
NOISE = engine.NoiseModel()


def random_program(rng, n, windows):
    """Reference instruction tuples: pulses, phase gates, parked windows."""
    half_or_full = (np.pi / 2, np.pi)
    ins = [("R", q, half_or_full[rng.integers(2)], rng.uniform(0, 2 * np.pi)) for q in range(n)]
    for pulses, scheme in windows:
        parked = int(rng.integers(n))
        ins += [("XFER", parked, "pi"),
                ("EV", rng.uniform(0.5e-3, 2e-3), pulses, scheme),
                ("XFER", parked, "sigma-"),
                ("PH", int(rng.integers(n)), rng.uniform(0, 2 * np.pi)),
                ("R", int(rng.integers(n)), half_or_full[rng.integers(2)], rng.uniform(0, 2 * np.pi))]
    ins += [("R", q, np.pi / 2, rng.uniform(0, 2 * np.pi)) for q in range(n)]
    return ins + [("MEAS",)]


def program_text(ins, n):
    lines = [f"# qubits: {n}"]
    for i in ins:
        if i[0] == "R":
            theta = "pi" if i[2] == np.pi else "0.5pi"
            lines.append(f"R {i[1]} {theta} {i[3]!r}")
        elif i[0] == "PH":
            lines.append(f"PH {i[1]} {i[2]!r}")
        elif i[0] == "EV":
            lines.append(f"EV {i[1]!r} dd={i[2]},{i[3]}")
        elif i[0] == "XFER":
            lines.append(f"XFER {i[1]} {i[2]}")
        else:
            lines.append("MEAS")
    return "\n".join(lines) + "\n"


class WideRegister(Workload):
    name = "wide_register"
    ident = 3
    warmup_policy = "one op per register size (4-7) and decoupling scheme (cpmg, kdd)"
    cycle = 2 * len(SIZES)
    kernel = staticmethod(calibration.register)
    kernel_ref_ms = 2.0

    def setup(self):
        rng = stream(self.seed, self.ident, 2)
        self.couplings = {n: chain.coupling_matrix(random_trap(rng, n)).j for n in (4, 5, 6, 7)}

    def _input(self, rng, n, windows):
        ins = random_program(rng, n, windows)
        return n, ins, program_text(ins, n), rng

    def warmup_inputs(self):
        return [self._input(stream(self.seed, self.ident, 1, n, s), n,
                            [(PULSES[scheme][w], scheme) for w in range(2)])
                for n in (4, 5, 6, 7) for s, scheme in enumerate(("cpmg", "kdd"))]

    def make_input(self, k):
        n = SIZES[k % len(SIZES)]
        schemes = [("cpmg", "kdd")[(k + w) % 2] for w in range(2 + (k // len(SIZES)) % 2)]
        windows = [(PULSES[scheme][w], scheme) for w, scheme in enumerate(schemes)]
        return self._input(stream(self.seed, self.ident, 0, k), n, windows)

    def op(self, inp):
        n, _, text, rng = inp
        prog = program.parse_program(text)
        state = engine.run_program(prog, self.couplings[n], noise=NOISE).state
        p = engine.measurement_probabilities(state, NOISE)
        return prog, state.rho, engine.sample_counts(p, SHOTS, rng)

    def check_output(self, inp, out):
        n, ins, _, _ = inp
        prog, rho, counts = out
        if prog.n_qubits != n or rho.shape != (2**n, 2**n):
            return [f"register of {prog.n_qubits} qubits, expected {n}"]
        problems = []
        trace = np.trace(rho)
        if not (abs(trace.real - 1) <= 1e-10 and abs(trace.imag) <= 1e-12):
            problems.append(f"trace {trace}")
        if not np.abs(rho - rho.conj().T).max() <= 1e-12:
            problems.append("state is not Hermitian")
        elif not np.linalg.eigvalsh(rho).min() >= -1e-10:
            problems.append("state has a negative eigenvalue below -1e-10")
        if not (counts.sum() == SHOTS and counts.min() >= 0):
            problems.append(f"counts sum to {counts.sum()}, not {SHOTS}")
        j = self.couplings[n]
        ideal = engine.run_program(prog, j, noise=engine.NoiseModel.off()).state.rho
        e0 = np.zeros((2**n, 1))
        e0[0] = 1.0
        psi = ref.evolve(ins, n, j, e0)[:, 0]
        want = np.outer(psi, psi.conj())
        if not np.abs(ideal - want).max() <= 1e-9 * np.abs(want).max():
            problems.append("noise-off run differs from the reference statevector")
        return problems

    def record(self, out):
        return {"populations": np.diag(out[1]).real.tolist(), "counts": out[2].tolist()}

    def mutate(self, out, kind):
        prog, rho, counts = out
        if kind == "shift":
            rho = rho.copy()
            rho[0, 0] *= 1 + SHIFT
        else:
            counts = counts.copy()
            counts[np.argmax(counts)] += 1
        return prog, rho, counts


# ---------------------------------------------------------------- chain_scan

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class ChainScan(Workload):
    name = "chain_scan"
    ident = 4
    warmup_policy = "one op at 10, 35 and 60 ions"
    kernel = staticmethod(calibration.scaled_chain)
    kernel_ref_ms = 1.0

    @staticmethod
    def ions(k):
        """10-60 ions in a fixed low-discrepancy order, so the mix of chain
        lengths (and so op cost) is the same for every seed."""
        return 10 + int(51 * ((k * GOLDEN) % 1.0))

    def warmup_inputs(self):
        return [random_trap(stream(self.seed, self.ident, 1, n), n) for n in (10, 35, 60)]

    def make_input(self, k):
        return random_trap(stream(self.seed, self.ident, 0, k), self.ions(k))

    def op(self, config):
        return chain.coupling_matrix(config).j

    def check_output(self, config, j):
        n = config.ion_count
        geometry = chain.equilibrium_positions(config)
        modes = chain.normal_modes(config, geometry)
        u = geometry.scaled_positions
        scale = ref.length_scale(config.ion_mass, config.axial_frequency, config.charge)
        problems = []
        if not np.linalg.norm(ref.scaled_gradient(u)) < 1e-9:
            problems.append("positions are not at the potential minimum")
        if not (np.all(np.diff(u) > 0) and np.abs(u + u[::-1]).max() <= 1e-9):
            problems.append("positions are not ascending and mirror-symmetric")
        if not close(geometry.positions, config.reference_coordinate + scale * u, abs_=1e-9 * scale):
            problems.append("positions do not match the Coulomb length scale")
        nu = config.axial_frequency
        if not close(modes.frequencies[:2], [nu, np.sqrt(3) * nu]):
            problems.append("COM / breathing modes are not at nu1 / sqrt(3) nu1")
        if j.shape != (n, n):
            return problems + [f"J has shape {j.shape}"]
        off = ~np.eye(n, dtype=bool)
        if not (np.abs(j - j.T).max() <= 1e-12 * np.abs(j).max() and np.all(j[off] > 0)
                and np.all(np.diag(j) == 0)):
            problems.append("J is not symmetric with positive off-diagonal entries")
        want = ref.couplings(u, config.ion_mass, nu, config.magnetic_gradient, config.g_factor)
        if not np.abs(j - want).max() <= 1e-8 * np.abs(want).max():
            problems.append("J differs from the reference couplings")
        return problems

    def record(self, j):
        return {"j_upper": j[np.triu_indices(len(j), 1)].tolist()}

    def mutate(self, j, kind):
        if kind == "shot":
            return None
        j = j.copy()
        j[0, 1] *= 1 + SHIFT
        return j


WORKLOADS = {w.name: w for w in (Reproduce, CompileSweep, WideRegister, ChainScan)}
