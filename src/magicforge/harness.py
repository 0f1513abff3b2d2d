"""Benchmark scenarios for the reference three-ion register.

Each scenario returns its tables of flat records keyed by file stem; `run_all`
writes one CSV/JSON pair per table. Both files render every float with the same
%.10g format so the two serializations carry byte-identical numbers; a float
that is not finite is missing in both (an empty CSV cell, JSON null).

The scenarios mirror the standard characterization workflow of a
gradient-coupled register:

* precession: conditional Ramsey fringes of a probe spin against the four
  computational states of its two neighbours,
* topologies: coupling-sign patterns of the named encoding presets, plus a
  live demonstration that parking a neighbour in the pi encoding removes it
  from the precession,
* transform_fringes: per-ion analysis fringes of the compiled transform's
  output and the fidelities estimated from them,
* distributions: outcome histograms of the transform on four product inputs
  of growing coherence, against the ideal distributions,
* fidelity_table: direct and rotation-protocol fidelities of the transform
  output for all basis-state and |0>/|+> product inputs.

`run_all` compiles the transform once and runs it once, on one stack of the 17
distinct inputs its three scenarios read. Readout error enters only on measuring:
the histogram scenario keeps the 0.96 default; the fidelity scenarios compare
readout-corrected quantities. Ion columns are reported in physical chain order
(the relabeling at the end of the compiled sequence is undone for reporting).
"""

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .chain import coupling_matrix, load_couplings, read_ini, solve_trap_file
from .encoding import effective_couplings, parse_topology, topology_preset
from .engine import (
    NoiseModel,
    check_label,
    fringe_scan,
    measurement_probabilities,
    partial_trace,
    ramsey_program,
    run_batch,
    sample_counts,
)
from .gates import check_couplings, check_int, check_real
from .metrics import (
    distinguishability,
    equatorial_phase,
    fidelity_via_local_rotation,
    fringe_fidelity,
    fringe_phase_for,
    ramsey_fit,
    state_fidelity,
    statistical_overlap,
)
from .program import (
    BASIS_SIGMA_MINUS,
    PulseProgram,
    TransferBasis,
    check_name,
    load_program,
)
from .qft import PRODUCT_INPUTS, compile_qft, reference_answer

DEFAULT_SEED = 20260816


class HarnessError(ValueError):
    pass


@dataclass
class RunRecord:
    label: str
    values: dict


def demo_couplings():
    """Symmetric-chain couplings used by the precession scenarios (rad/s)."""
    near, far = 2 * np.pi * 36.5, 2 * np.pi * 15.5  # neighbours, and the outer pair
    return np.array([[0.0, near, far], [near, 0.0, near], [far, near, 0.0]])


def expected_precession_rate(j, probe, spectator_bits):
    """d(chi)/dT of the probe's azimuth for fixed neighbour states (rad/s)."""
    rate = 0.0
    for q, bit in spectator_bits.items():
        rate -= j[probe, q] * (1.0 - 2.0 * bit)
    return rate


def _wrap(angle):
    return (angle + np.pi) % (2 * np.pi) - np.pi


_PHASES = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)


def _stack(results):
    """The finished states of `run_batch` results as one (2^n, 2^n, B) stack, slice b last."""
    return np.stack([res.state.rho for res in results], axis=-1)


def _sampled_fits(rng, p, shots):
    """Ramsey fits of the fringe rows `p` (k, 16), `shots` draws per phase, drawn row by row:
    each phase is a two-outcome distribution (P, 1 - P), and column 0 counts the bright shots."""
    rows = p.reshape(-1, 1)
    counts = sample_counts(np.hstack([rows, 1.0 - rows]), shots, rng)[:, 0].reshape(p.shape)
    return ramsey_fit(_PHASES, counts / shots, shots=shots)


def scenario_precession(rng):
    """Probe-spin fringes (50 shots a phase, CPMG-20 wait) versus wait, per neighbour state."""
    shots = 50
    j = demo_couplings()
    noise = NoiseModel(white_noise_fraction=0.0, readout_fidelity=1.0)
    neighbours = ("00", "01", "10", "11")
    waits_ms = (1, 2, 3, 4)
    # each neighbour state is a product input; the probe runs on all four at once
    inputs = ["0" + bits for bits in neighbours]
    rho = np.concatenate([
        _stack(run_batch(ramsey_program(0, t_ms * 1e-3, dd_pulses=20), j, inputs, noise=noise))
        for t_ms in waits_ms], axis=-1)
    fits = _sampled_fits(rng, fringe_scan(rho, 0, _PHASES), shots)
    records = []
    for (t_ms, bits), fit in zip(itertools.product(waits_ms, neighbours), fits):
        duration = t_ms * 1e-3
        spect = {1: int(bits[0]), 2: int(bits[1])}
        rate = expected_precession_rate(j, 0, spect)
        phase_pred = _wrap(-np.pi + rate * duration)
        records.append(RunRecord(
            f"T={t_ms}ms n={bits}",
            {
                "duration_ms": float(t_ms),
                "neighbours": bits,
                "contrast": fit.contrast,
                "contrast_err": fit.contrast_err,
                "phase": fit.phase,
                "phase_err": fit.phase_err,
                "phase_predicted": phase_pred,
                "rate_predicted_hz": rate / (2 * np.pi),
                "shots_per_point": shots,
            }))
    return {"precession": records}


def _topology_row(label, j, assignment, rate_hz="", contrast=""):
    """One topologies row: the couplings (Hz) that `assignment` leaves of `j`."""
    eff = effective_couplings(j, assignment) / (2 * np.pi)
    return RunRecord(label, {"assignment": str(assignment), "j01_hz": eff[0, 1],
                             "j02_hz": eff[0, 2], "j12_hz": eff[1, 2],
                             "rate_hz": rate_hz, "contrast": contrast})


def scenario_topologies():
    """Preset coupling patterns, plus parked-neighbour precession rates."""
    j = demo_couplings()
    records = [_topology_row(f"preset {label}", j, topology_preset(label)) for label in "ABCDE"]
    duration = 1e-3
    noise = NoiseModel(white_noise_fraction=0.0, readout_fidelity=1.0)
    tags = {"both neighbours active": parse_topology("-,-,-"),
            "outer neighbour parked": parse_topology("-,-,0")}
    runs = []
    for assignment in tags.values():
        *pulses, wait = ramsey_program(0, duration, 20).instructions
        # every run starts in sigma-, so only the other encodings need a transfer before the wait
        transfers = [TransferBasis(q, basis) for q, basis in enumerate(assignment.bases)
                     if basis != BASIS_SIGMA_MINUS]
        probe = PulseProgram(3, [*pulses, *transfers, wait])
        runs += run_batch(probe, j, ["011"], noise=noise)
    fits = ramsey_fit(_PHASES, fringe_scan(_stack(runs), 0, _PHASES))
    for (tag, assignment), fit in zip(tags.items(), fits):
        rate = -_wrap(fit.phase - (-np.pi)) / duration
        records.append(_topology_row(tag, j, assignment, rate / (2 * np.pi), fit.contrast))
    return {"topologies": records}


def _compile_transform():
    """The transform the builtin scenarios run: optimized form, KDD decoupling."""
    return compile_qft(form="optimized", dd_scheme="kdd")


def _ion_fidelities(rho, factors, perm):
    """Fidelity of each ion's reduced state against its ideal factor, (3, B) in ion order.

    `rho` is a (8, 8, B) stack and `factors` its (3, 2, B) ideal factors. Slot s of
    the finished register holds ion perm[s] and is compared with factors[s]; the
    three slots' reduced states are read as one stack of 3B slices.
    """
    reduced = np.concatenate([partial_trace(rho, slot) for slot in range(3)], axis=-1)
    fidelities = state_fidelity(reduced, np.concatenate(factors, axis=-1))
    return fidelities.reshape(3, -1)[np.argsort(perm)]


def scenario_transform_fringes(rng, runs, compiled):
    """Per-ion fringes, 150 shots per phase, on the compiled transform's output for |010>."""
    shots = 150
    rho = _stack([runs["010"]])
    factors = reference_answer("010").factors
    perm = compiled.program.relabel
    reduced = _ion_fidelities(rho, factors[..., None], perm)[:, 0]
    # the shots are drawn in slot order
    fits = _sampled_fits(rng, np.concatenate([fringe_scan(rho, slot, _PHASES)
                                              for slot in range(3)]), shots)
    records = []
    for slot, (ion, fit) in enumerate(zip(perm, fits)):
        phi_star = fringe_phase_for(equatorial_phase(factors[slot]))
        records.append(RunRecord(
            f"ion {ion}",
            {
                "ion": ion,
                "contrast": fit.contrast,
                "contrast_err": fit.contrast_err,
                "phase": fit.phase,
                "phase_ideal": _wrap(phi_star),
                "fringe_fidelity": fringe_fidelity(fit, phi_star),
                "reduced_fidelity": reduced[ion],
                "shots_per_point": shots,
            }))
    records.sort(key=lambda r: r.values["ion"])
    return {"transform_fringes": records}


def _histogram(label, p_ideal, p_model, counts=None):
    """Outcome-histogram rows of the product input `label`, one per outcome.

    With `counts` (sampled shots per outcome) each row also carries the sampled
    frequency as p_simulated_noisy and its count.
    """
    n = len(label)
    p_sampled = None if counts is None else counts / counts.sum()
    rows = []
    for k in range(2**n):
        state = format(k, f"0{n}b")
        values = {"input": label, "state_label": state}
        if counts is not None:
            values["p_simulated_noisy"] = p_sampled[k]
        values["p_ideal"] = p_ideal[k]
        values["p_simulated"] = p_model[k]
        if counts is not None:
            values["counts"] = int(counts[k])
        rows.append(RunRecord(f"{label} -> {state}", values))
    return rows


DISTRIBUTION_INPUTS = ("111", "+11", "++1", "+++")


def scenario_distributions(rng, runs, compiled):
    """Transform outcome histograms of 1250 shots for inputs of growing coherence."""
    shots = 1250
    noise = NoiseModel()
    rows, summary = [], []
    for label in DISTRIBUTION_INPUTS:
        p_model = measurement_probabilities(runs[label].state, noise)
        p_ideal = np.abs(reference_answer(label).output) ** 2
        counts = sample_counts(p_model, shots, rng)
        rows += _histogram(label, p_ideal, p_model, counts)
        p_emp = counts / shots
        summary.append(RunRecord(
            label,
            {
                "input": label,
                "sso": statistical_overlap(p_emp, p_ideal),
                "distinguishability": distinguishability(p_emp, p_ideal),
                "shots": shots,
            }))
    return {"distributions": rows, "distribution_summary": summary}


def scenario_fidelity_table(runs, compiled):
    """Direct and rotation-protocol fidelities of the transform, all 15 inputs."""
    rho = _stack([runs[label] for label in PRODUCT_INPUTS])
    answers = [reference_answer(label) for label in PRODUCT_INPUTS]
    direct = state_fidelity(rho, np.stack([a.output for a in answers], axis=-1))
    # the rotation protocol and the per-ion fidelities need the output's product factors
    product = [b for b, a in enumerate(answers) if a.factors is not None]
    product_factors = np.stack([answers[b].factors for b in product], axis=-1)
    rotation = np.full(len(PRODUCT_INPUTS), np.nan)
    per_ion = np.full((3, len(PRODUCT_INPUTS)), np.nan)
    rotation[product] = fidelity_via_local_rotation(rho[..., product], product_factors)
    per_ion[:, product] = _ion_fidelities(rho[..., product], product_factors,
                                          compiled.program.relabel)
    records = []
    for b, label in enumerate(PRODUCT_INPUTS):
        values = {
            "input": label,
            "fidelity": direct[b],
            "benchmark": 1 if label == "010" else 0,
            "rotation_fidelity": rotation[b],
        }
        values.update((f"f_ion{ion}", per_ion[ion, b]) for ion in range(3))
        records.append(RunRecord(label, values))
    return {"fidelity_table": records}


def _cell(v):
    """One value as its (CSV cell, JSON text) pair; a missing value is ("", "null")."""
    if isinstance(v, str):
        return _csv_escape(v), json.dumps(v)
    if not isinstance(v, (float, np.floating, type(None))):  # an int, numpy's or a flag
        return (str(int(v)),) * 2
    if v is None or not math.isfinite(v):
        return "", "null"
    text = format(float(v), ".10g")
    # within 10 digits of the largest double the text can round past it to inf
    return (text if math.isfinite(float(text)) else repr(float(v)),) * 2


def emit_records(records, directory, stem):
    """One scenario's records as {stem}.csv and {stem}.json under `directory`."""
    columns = ["scenario", "label"]
    for rec in records:
        for key in rec.values:
            if key not in columns:
                columns.append(key)
    csv_path = os.path.join(directory, f"{stem}.csv")
    json_path = os.path.join(directory, f"{stem}.json")
    rows = [{"scenario": stem, "label": rec.label, **rec.values} for rec in records]
    cells = [[_cell(row.get(c)) for c in columns] for row in rows]
    lines = [",".join(_csv_escape(c) for c in columns)]
    lines += [",".join(csv for csv, _ in row) for row in cells]
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    keys = [json.dumps(c) for c in columns]
    chunks = ["  {" + ", ".join(f"{k}: {text}" for k, (_, text) in zip(keys, row)) + "}"
              for row in cells]
    with open(json_path, "w") as fh:
        fh.write("[\n" + ",\n".join(chunks) + "\n]\n")
    return csv_path, json_path


def _csv_escape(text):
    if any(ch in text for ch in ",\"\n\r"):
        return "\"" + text.replace("\"", "\"\"") + "\""
    return text


# name: (alias, shot-stream index or None, the compiled transform's inputs it reads).
# Each sampling scenario owns a counter-based stream, so running any subset, in
# any order, reproduces the exact bytes of a full run.
_BUILTINS = {
    "precession": ("fig1", 0, ()),
    "topologies": ("fig2", None, ()),
    "transform_fringes": ("fig4", 1, ("010",)),
    "distributions": ("fig5", 2, DISTRIBUTION_INPUTS),
    "fidelity_table": ("table1", None, PRODUCT_INPUTS),
}
SCENARIO_NAMES = tuple(_BUILTINS)


def _stream(seed, *spawn_key):
    """Philox generator of SeedSequence(seed, spawn_key): key (i,) is child i of any spawn."""
    child = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(child))


def resolve_scenario_name(token):
    for name, (alias, _, _) in _BUILTINS.items():
        if token in (name, alias):
            return name
    known = ", ".join([*_BUILTINS, *(alias for alias, _, _ in _BUILTINS.values())])
    raise HarnessError(f"unknown scenario {token!r}; builtins: {known}")


def _check_seed(seed):
    """`seed` if it is an int in 0..2^64-1, else a HarnessError naming it."""
    check_int(seed, "seed", HarnessError)
    check_int(seed, "seed", HarnessError, high=2**64 - 1, message=f"seed {seed} is not below 2^64")
    return check_int(seed, "seed", HarnessError, 0, message=f"seed must be >= 0, got {seed}")


def _run_builtins(names, directory, seed):
    """Run the named builtin scenarios; write their CSV/JSON pairs; return {stem: records}.

    The transform is compiled only if a named scenario reads it, and then run once, on one
    stack of the union of their inputs ({label: RunResult}).
    """
    _check_seed(seed)
    os.makedirs(directory, exist_ok=True)
    inputs = dict.fromkeys(label for name in names for label in _BUILTINS[name][2])
    if inputs:
        compiled = _compile_transform()
        runs = dict(zip(inputs, run_batch(compiled.program, compiled.couplings, list(inputs))))
    out = {}
    for name in names:
        _, stream, reads = _BUILTINS[name]
        args = [] if stream is None else [_stream(seed, stream)]
        if reads:
            args += [runs, compiled]
        # looked up at call time, so a wrapper set on the module attribute sees the call
        out.update(globals()[f"scenario_{name}"](*args))
    for stem, records in out.items():
        emit_records(records, directory, stem)
    return out


def run_scenario(name, directory, seed=DEFAULT_SEED):
    """Run one builtin scenario, by name or alias; write its tables as `run_all` does."""
    return _run_builtins([resolve_scenario_name(name)], directory, seed)


def run_all(directory, seed=DEFAULT_SEED):
    """Run every builtin scenario; write one CSV/JSON pair per result table."""
    return _run_builtins(SCENARIO_NAMES, directory, seed)


@dataclass
class Scenario:
    """A custom run described by a config file: program + couplings + sampling."""
    name: str
    program: PulseProgram
    couplings: np.ndarray
    input_state: str | None = None
    noise: bool = False
    shots: int = 0
    seed: int = DEFAULT_SEED
    pulse_duration: float = 0.0

    def __post_init__(self):
        check_name(self.name, HarnessError)
        # the name is the output file stem, so it must not leave the output directory
        if self.name in ("", ".", "..") or any(sep in self.name for sep in ("/", "\\", os.sep)):
            raise HarnessError(f"name must be a plain file stem, got {self.name!r}")
        n = self.program.n_qubits
        self.couplings = check_couplings(self.couplings, n, HarnessError)
        if self.input_state is None:
            self.input_state = "0" * n
        check_label(self.input_state, n, HarnessError)
        if type(self.noise) is not bool:
            raise HarnessError(f"noise must be a bool, got {self.noise!r}")
        check_int(self.shots, "shots", HarnessError, high=2**63 - 1,
                  message=f"shots must be an int below 2^63, got {self.shots!r}")
        check_int(self.shots, "shots", HarnessError, 0,
                  message=f"shots must be >= 0, got {self.shots}")
        _check_seed(self.seed)
        check_real(self.pulse_duration, "pulse_duration", HarnessError, 0)


# [scenario] key: the type `chain.read_ini` reads it as
_SCENARIO_FIELDS = {"program": str, "couplings": str, "trap": str, "topology": str, "name": str,
                    "input": str, "noise": bool, "shots": int, "seed": int, "pulse_duration": float}


def build_scenario(values, base, name):
    """A `Scenario` from [scenario] `values`, {key: value} as `load_scenario_file` reads them and
    `magic-forge run` passes its flags. Relative paths resolve against `base`; `name` is the name
    if `values` sets none. A field that `values` leaves out takes `Scenario`'s default."""
    fields = {"name": name, **values}
    program, couplings, trap, topology = (fields.pop(key, None)
                                          for key in ("program", "couplings", "trap", "topology"))
    if program is None:
        raise ValueError("missing program path")
    program = load_program(os.path.join(base, program))
    if (couplings is None) == (trap is None):
        raise ValueError("need either couplings or trap, "
                         + ("got neither" if trap is None else "not both"))
    if couplings is not None:
        if topology:
            raise ValueError("topology needs a trap source, not couplings")
        j = load_couplings(os.path.join(base, couplings)).j
    elif trap is not None:
        j = coupling_matrix(*solve_trap_file(os.path.join(base, trap))).j
        if topology:
            j = effective_couplings(j, parse_topology(topology))
    return Scenario(program=program, couplings=j, input_state=fields.pop("input", None), **fields)


def load_scenario_file(path):
    """`build_scenario` of a scenario config (INI, by `chain.read_ini`); HarnessError on bad input.

    Required keys in [scenario]: program (path). Coupling source: exactly one of couplings (J
    matrix file) or trap (trap config file); only trap takes topology (preset letter or per-qubit
    basis list); relative paths are read from the file's directory. Optional: input (one of
    0, 1, + per program qubit; all 0 by default), noise, shots (0..2^63-1), seed (>= 0),
    name (one line, no path separator, not . or ..; the file's stem by default; also
    the output file stem), pulse_duration. A key the file leaves out takes `Scenario`'s
    default; any other key is rejected.
    """
    try:
        return build_scenario(read_ini(path, "scenario", _SCENARIO_FIELDS),
                              os.path.dirname(os.path.abspath(path)),
                              os.path.splitext(os.path.basename(path))[0])
    except (OSError, ValueError) as exc:
        raise HarnessError(f"{path}: {exc}") from exc


def run_custom_scenario(scenario, directory):
    """Execute a file-defined scenario; write its histogram; return the records."""
    os.makedirs(directory, exist_ok=True)
    noise = NoiseModel() if scenario.noise else NoiseModel.off()
    inputs = [scenario.input_state]
    [res] = run_batch(scenario.program, scenario.couplings, inputs, noise=noise,
                      pulse_duration=scenario.pulse_duration)
    p_model = measurement_probabilities(res.state, noise)
    ideal = res  # with noise off, the model run is the ideal run bit for bit
    if scenario.noise:
        [ideal] = run_batch(scenario.program, scenario.couplings, inputs, noise=NoiseModel.off())
    counts = (sample_counts(p_model, scenario.shots, _stream(scenario.seed)) if scenario.shots
              else None)
    records = _histogram(scenario.input_state, ideal.state.populations(), p_model, counts)
    emit_records(records, directory, scenario.name)
    return records
