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

Fidelity scenarios compare readout-corrected quantities, so they run with
readout fidelity 1; the histogram scenario keeps the 0.96 default. Ion columns
are reported in physical chain order (the relabeling at the end of the
compiled sequence is undone for reporting).
"""

import configparser
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .chain import TrapConfig, coupling_matrix, load_couplings
from .encoding import effective_couplings, parse_topology, topology_preset
from .engine import (
    PRODUCT_INPUTS,
    NoiseModel,
    fringe_scan,
    measurement_probabilities,
    product_input_ket,
    product_input_pulses,
    ramsey_program,
    run_batch,
    run_program,
    sample_counts,
)
from .gates import check_couplings
from .metrics import (
    MetricsError,
    distinguishability,
    equatorial_phase,
    factor_product_state,
    fidelity_via_local_rotation,
    fringe_fidelity,
    fringe_phase_for,
    ramsey_fit,
    state_fidelity,
    statistical_overlap,
)
from .program import (
    BASIS_SIGMA_MINUS,
    ProgramError,
    PulseProgram,
    TransferBasis,
    check_name,
    load_program,
)
from .qft import compile_qft, reference_qft

DEFAULT_SEED = 20260816


class HarnessError(ValueError):
    pass


@dataclass
class RunRecord:
    label: str
    values: dict


def demo_couplings():
    """Symmetric-chain couplings used by the precession scenarios (rad/s)."""
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = 2 * np.pi * 36.5
    j[1, 2] = j[2, 1] = 2 * np.pi * 36.5
    j[0, 2] = j[2, 0] = 2 * np.pi * 15.5
    return j


def expected_precession_rate(j, probe, spectator_bits):
    """d(chi)/dT of the probe's azimuth for fixed neighbour states (rad/s)."""
    rate = 0.0
    for q, bit in spectator_bits.items():
        rate -= j[probe, q] * (1.0 - 2.0 * bit)
    return rate


def _wrap(angle):
    return (angle + np.pi) % (2 * np.pi) - np.pi


_PHASES = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)


def _sampled_fit(rng, state, qubit, shots):
    """Ramsey fit of `qubit`'s fringe in `state`, sampled with `shots` draws per phase."""
    p = fringe_scan(state, qubit, _PHASES)
    counts = rng.binomial(shots, np.clip(p, 0.0, 1.0))
    return ramsey_fit(_PHASES, counts / shots, shots=shots)


def scenario_precession(rng):
    """Probe-spin fringes (50 shots a phase, CPMG-20 wait) versus wait, per neighbour state."""
    shots = 50
    j = demo_couplings()
    noise = NoiseModel(white_noise_fraction=0.0, readout_fidelity=1.0)
    records = []
    neighbours = ("00", "01", "10", "11")
    for t_ms in (1, 2, 3, 4):
        duration = t_ms * 1e-3
        # each neighbour state is prepared by its flips; the probe runs on all four at once
        runs = run_batch(ramsey_program(0, duration, dd_pulses=20), j,
                         [product_input_pulses("0" + bits) for bits in neighbours], noise=noise)
        for bits, res in zip(neighbours, runs):
            spect = {1: int(bits[0]), 2: int(bits[1])}
            fit = _sampled_fit(rng, res.state, 0, shots)
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
    for tag, text in (("both neighbours active", "-,-,-"), ("outer neighbour parked", "-,-,0")):
        assignment = parse_topology(text)
        probe = ramsey_program(0, duration, {1: 1, 2: 1}, 20)
        # every run starts in sigma-, so only the other encodings need a transfer before the wait
        probe.instructions[-1:-1] = [TransferBasis(q, basis)
                                     for q, basis in enumerate(assignment.bases)
                                     if basis != BASIS_SIGMA_MINUS]
        p = fringe_scan(run_program(probe, j, noise=noise).state, 0, _PHASES)
        fit = ramsey_fit(_PHASES, p)
        rate = -_wrap(fit.phase - (-np.pi)) / duration
        records.append(_topology_row(tag, j, assignment, rate / (2 * np.pi), fit.contrast))
    return {"topologies": records}


def _transform_runs(labels, compiled, noise):
    """The compiled transform on each product input in `labels`, as one stack."""
    return run_batch(compiled.program, compiled.couplings,
                     [product_input_pulses(label) for label in labels], noise=noise)


def _compile_transform():
    """The transform the builtin scenarios run: optimized form, KDD decoupling."""
    return compile_qft(form="optimized", dd_scheme="kdd")


def _ideal_output(label):
    """The ideal transform's output ket for the product input `label`."""
    return reference_qft() @ product_input_ket(label)


def _ion_fidelities(state, factors, perm):
    """Fidelity of each ion's reduced state against its ideal factor, in ion order.

    Slot s of the finished register holds ion perm[s] and is compared with factors[s].
    """
    return [state_fidelity(state.reduced_density([slot]), factors[slot])
            for slot in np.argsort(perm)]


def scenario_transform_fringes(rng, compiled):
    """Per-ion fringes, 150 shots per phase, on the compiled transform's output for |010>."""
    shots = 150
    noise = NoiseModel(readout_fidelity=1.0)
    [res] = _transform_runs(["010"], compiled, noise)
    factors = factor_product_state(_ideal_output("010"), 3)
    perm = compiled.program.relabel
    reduced = _ion_fidelities(res.state, factors, perm)
    records = []
    for slot, ion in enumerate(perm):  # the shots are drawn in slot order
        fit = _sampled_fit(rng, res.state, slot, shots)
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


def scenario_distributions(rng, compiled):
    """Transform outcome histograms of 1250 shots for inputs of growing coherence."""
    shots = 1250
    noise = NoiseModel()
    rows, summary = [], []
    for label, res in zip(DISTRIBUTION_INPUTS,
                          _transform_runs(DISTRIBUTION_INPUTS, compiled, noise)):
        p_model = measurement_probabilities(res.state, noise)
        p_ideal = np.abs(_ideal_output(label)) ** 2
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


def scenario_fidelity_table(compiled):
    """Direct and rotation-protocol fidelities of the transform, all 15 inputs."""
    noise = NoiseModel(readout_fidelity=1.0)
    perm = compiled.program.relabel
    records = []
    for label, res in zip(PRODUCT_INPUTS, _transform_runs(PRODUCT_INPUTS, compiled, noise)):
        ideal = _ideal_output(label)
        values = {
            "input": label,
            "fidelity": state_fidelity(res.state, ideal),
            "benchmark": 1 if label == "010" else 0,
        }
        try:
            factors = factor_product_state(ideal, 3)
        except MetricsError:  # an entangled output has no per-ion factors
            rotation, per_ion = float("nan"), [float("nan")] * 3
        else:
            rotation = fidelity_via_local_rotation(res.state.rho, factors)
            per_ion = _ion_fidelities(res.state, factors, perm)
        values["rotation_fidelity"] = rotation
        values.update((f"f_ion{ion}", fidelity) for ion, fidelity in enumerate(per_ion))
        records.append(RunRecord(label, values))
    return {"fidelity_table": records}


def _cell(v, missing="", text=str):
    """One value as a CSV cell, or as JSON with missing="null", text=json.dumps."""
    if isinstance(v, str):
        return text(v)
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    if v is None or not math.isfinite(float(v)):
        return missing
    text = format(float(v), ".10g")
    # within 10 digits of the largest double the text can round past it to inf
    return text if math.isfinite(float(text)) else repr(float(v))


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
    lines = [",".join(_csv_escape(c) for c in columns)]
    lines += [",".join(_csv_escape(_cell(row.get(c))) for c in columns) for row in rows]
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    chunks = []
    for row in rows:
        body = ", ".join(f"{json.dumps(c)}: {_cell(row.get(c), 'null', json.dumps)}"
                         for c in columns)
        chunks.append("  {" + body + "}")
    with open(json_path, "w") as fh:
        fh.write("[\n" + ",\n".join(chunks) + "\n]\n")
    return csv_path, json_path


def _csv_escape(text):
    if any(ch in text for ch in ",\"\n\r"):
        return "\"" + text.replace("\"", "\"\"") + "\""
    return text


# name: (alias, shot-stream index or None, whether it runs the compiled transform).
# Each sampling scenario owns a counter-based stream, so running any subset, in
# any order, reproduces the exact bytes of a full run.
_BUILTINS = {
    "precession": ("fig1", 0, False),
    "topologies": ("fig2", None, False),
    "transform_fringes": ("fig4", 1, True),
    "distributions": ("fig5", 2, True),
    "fidelity_table": ("table1", None, True),
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


def run_scenario(name, directory, seed=DEFAULT_SEED, compiled=None):
    """Run one builtin scenario; write its CSV/JSON pairs; return {stem: records}.

    The transform scenarios run `compiled`, the optimized KDD-decoupled
    `CompiledTransform` of the calibrated register; when it is None they
    compile it themselves.
    """
    name = resolve_scenario_name(name)
    _, stream, transform = _BUILTINS[name]
    os.makedirs(directory, exist_ok=True)
    args = [] if stream is None else [_stream(seed, stream)]
    if transform:
        args.append(_compile_transform() if compiled is None else compiled)
    # looked up at call time, so a wrapper set on the module attribute sees the call
    out = globals()[f"scenario_{name}"](*args)
    for stem, records in out.items():
        emit_records(records, directory, stem)
    return out


def run_all(directory, seed=DEFAULT_SEED):
    """Run every builtin scenario; write one CSV/JSON pair per result table.

    The transform is compiled once and shared by the scenarios that run it.
    """
    compiled = _compile_transform()
    out = {}
    for name in SCENARIO_NAMES:
        out.update(run_scenario(name, directory, seed, compiled=compiled))
    return out


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
        # the name is the output file stem, so it must not leave the output directory
        if self.name in ("", ".", "..") or any(sep in self.name for sep in ("/", "\\", os.sep)):
            raise HarnessError(f"name must be a plain file stem, got {self.name!r}")
        try:
            check_name(self.name)
        except ProgramError as exc:
            raise HarnessError(str(exc)) from exc
        n = self.program.n_qubits
        self.couplings = check_couplings(self.couplings, n, HarnessError)
        if self.input_state is None:
            self.input_state = "0" * n
        try:
            product_input_pulses(self.input_state)
        except ProgramError as exc:
            raise HarnessError(f"input: {exc}") from exc
        if len(self.input_state) != n:
            raise HarnessError(f"input {self.input_state!r} does not match a {n}-qubit program")
        if self.shots < 0:
            raise HarnessError(f"shots must be >= 0, got {self.shots}")
        if self.seed < 0:
            raise HarnessError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.pulse_duration < math.inf:
            raise HarnessError(f"pulse_duration must be finite and >= 0, "
                               f"got {self.pulse_duration}")


def load_scenario_file(path):
    """Parse a scenario config (INI format); raise HarnessError on bad input.

    Required keys in [scenario]: program (path). Coupling source: either
    couplings (J matrix file) or trap (trap config file); only trap takes
    topology (preset letter or per-qubit basis list). Optional: input (one of
    0, 1, + per program qubit; all 0 by default), noise, shots, seed (>= 0),
    name (one line, no path separator, not . or ..; also the output file stem),
    pulse_duration.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(path):
            raise OSError("cannot read scenario file")
        if not parser.has_section("scenario"):
            raise ValueError("missing [scenario] section")
        sec = parser["scenario"]
        if "program" not in sec:
            raise ValueError("missing program path")
        base = os.path.dirname(os.path.abspath(path))

        def _resolve(rel):
            return rel if os.path.isabs(rel) else os.path.join(base, rel)

        program = load_program(_resolve(sec["program"]))
        topology = sec.get("topology", "")
        if "couplings" in sec:
            if topology:
                raise ValueError("topology needs a trap source, not couplings")
            j = load_couplings(_resolve(sec["couplings"])).j
        elif "trap" in sec:
            j = coupling_matrix(TrapConfig.from_ini(_resolve(sec["trap"]))).j
            if topology:
                j = effective_couplings(j, parse_topology(topology))
        else:
            raise ValueError("need either couplings or trap")
        return Scenario(
            name=sec.get("name", os.path.splitext(os.path.basename(path))[0]),
            program=program,
            couplings=j,
            input_state=sec.get("input"),
            noise=sec.getboolean("noise", False),
            shots=sec.getint("shots", 0),
            seed=sec.getint("seed", DEFAULT_SEED),
            pulse_duration=sec.getfloat("pulse_duration", 0.0),
        )
    except (OSError, ValueError, configparser.Error) as exc:
        raise HarnessError(f"{path}: {exc}") from exc


def run_custom_scenario(scenario, directory):
    """Execute a file-defined scenario; write its histogram; return the records."""
    os.makedirs(directory, exist_ok=True)
    noise = NoiseModel() if scenario.noise else NoiseModel.off()
    prep = product_input_pulses(scenario.input_state)
    [res] = run_batch(scenario.program, scenario.couplings, [prep], noise=noise,
                      pulse_duration=scenario.pulse_duration)
    p_model = measurement_probabilities(res.state, noise)
    [ideal] = run_batch(scenario.program, scenario.couplings, [prep], noise=NoiseModel.off())
    counts = None
    if scenario.shots:
        counts = sample_counts(p_model, scenario.shots, _stream(scenario.seed))
    records = _histogram(scenario.input_state, ideal.state.populations(), p_model, counts)
    emit_records(records, directory, scenario.name)
    return records
