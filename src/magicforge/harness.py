"""Benchmark scenarios for the reference three-ion register.

Each scenario returns a list of flat records; `run_all` writes one CSV/JSON
pair per scenario. Both files render every float with the same %.10g format
so the two serializations carry byte-identical numbers.

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

Fidelity scenarios compare readout-corrected quantities, so they run with the
readout channel disabled; the histogram scenario keeps it on. Ion columns are
reported in physical chain order (the relabeling at the end of the compiled
sequence is undone for reporting).
"""

import configparser
import json
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
    ramsey_scan,
    run_program,
    sample_counts,
)
from .gates import ket
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
    BASIS_PI,
    FreeEvolve,
    ProgramError,
    PulseProgram,
    Rotate,
    TransferBasis,
    parse_program,
)
from .qft import calibrated_couplings, compile_qft, reference_qft

DEFAULT_SEED = 20260816


class HarnessError(ValueError):
    pass


@dataclass
class RunRecord:
    scenario: str
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


def scenario_precession(rng, shots=50, dd_pulses=20):
    """Probe-spin fringes versus wait time for each neighbour configuration."""
    j = demo_couplings()
    noise = NoiseModel(white_noise=False, readout=False)
    records = []
    for t_ms in (1, 2, 3, 4):
        duration = t_ms * 1e-3
        for b1 in (0, 1):
            for b2 in (0, 1):
                spect = {1: b1, 2: b2}
                p = ramsey_scan(0, duration, _PHASES, j, noise=noise,
                                spectator_bits=spect, dd_pulses=dd_pulses)
                counts = rng.binomial(shots, np.clip(p, 0.0, 1.0))
                fit = ramsey_fit(_PHASES, counts / shots, shots=shots)
                rate = expected_precession_rate(j, 0, spect)
                phase_pred = _wrap(-np.pi + rate * duration)
                records.append(RunRecord(
                    "precession", f"T={t_ms}ms n={b1}{b2}",
                    {
                        "duration_ms": float(t_ms),
                        "neighbours": f"{b1}{b2}",
                        "contrast": fit.contrast,
                        "contrast_err": fit.contrast_err,
                        "phase": fit.phase,
                        "phase_err": fit.phase_err,
                        "phase_predicted": phase_pred,
                        "rate_predicted_hz": rate / (2 * np.pi),
                        "shots_per_point": shots,
                    }))
    return records


def _parked_probe_program(duration, park_qubit=None):
    """Probe program up to its analysis pulse; neighbours bright, one optionally parked."""
    ins = [Rotate(1, np.pi, 0.0), Rotate(2, np.pi, 0.0)]
    if park_qubit is not None:
        ins.append(TransferBasis(park_qubit, BASIS_PI))
    ins.append(Rotate(0, np.pi / 2, 0.0))
    ins.append(FreeEvolve(duration, 20, "cpmg"))
    return PulseProgram(n_qubits=3, instructions=ins)


def scenario_topologies():
    """Preset coupling patterns, plus parked-neighbour precession rates."""
    j = demo_couplings()
    records = []
    for label in "ABCDE":
        preset = topology_preset(label)
        eff = effective_couplings(j, preset)
        records.append(RunRecord(
            "topologies", f"preset {label}",
            {
                "assignment": str(preset),
                "j01_hz": eff[0, 1] / (2 * np.pi),
                "j02_hz": eff[0, 2] / (2 * np.pi),
                "j12_hz": eff[1, 2] / (2 * np.pi),
                "rate_hz": "",
                "contrast": "",
            }))
    duration = 1e-3
    noise = NoiseModel(white_noise=False, readout=False)
    for park, tag in ((None, "both neighbours active"), (2, "outer neighbour parked")):
        res = run_program(_parked_probe_program(duration, park), j, noise=noise)
        p = fringe_scan(res.state, 0, _PHASES)
        fit = ramsey_fit(_PHASES, p)
        rate = -_wrap(fit.phase - (-np.pi)) / duration
        records.append(RunRecord(
            "topologies", tag,
            {
                "assignment": "-,-,-" if park is None else "-,-,0",
                "j01_hz": j[0, 1] / (2 * np.pi),
                "j02_hz": 0.0 if park == 2 else j[0, 2] / (2 * np.pi),
                "j12_hz": 0.0 if park == 2 else j[1, 2] / (2 * np.pi),
                "rate_hz": rate / (2 * np.pi),
                "contrast": fit.contrast,
            }))
    return records


def _transform_run(inputs_label, compiled, noise):
    prog = PulseProgram(
        n_qubits=3,
        instructions=product_input_pulses(inputs_label) + list(compiled.program.instructions),
        relabel=compiled.program.relabel,
        name=f"transform on {inputs_label}",
    )
    return run_program(prog, compiled.couplings, noise=noise)


def _compile_transform():
    """The transform the builtin scenarios run: optimized form, KDD decoupling."""
    return compile_qft(form="optimized", dd_scheme="kdd")


def scenario_transform_fringes(rng, compiled, shots=150):
    """Per-ion fringes on the compiled transform's output for input |010>."""
    noise = NoiseModel(readout=False)
    res = _transform_run("010", compiled, noise)
    ideal = reference_qft(3) @ ket("010")
    factors = factor_product_state(ideal, 3)
    perm = compiled.program.relabel
    records = []
    for slot in range(3):
        ion = perm[slot]
        p = fringe_scan(res.state, slot, _PHASES)
        counts = rng.binomial(shots, np.clip(p, 0.0, 1.0))
        fit = ramsey_fit(_PHASES, counts / shots, shots=shots)
        phi_star = fringe_phase_for(equatorial_phase(factors[slot]))
        records.append(RunRecord(
            "transform_fringes", f"ion {ion}",
            {
                "ion": ion,
                "contrast": fit.contrast,
                "contrast_err": fit.contrast_err,
                "phase": fit.phase,
                "phase_ideal": _wrap(phi_star),
                "fringe_fidelity": fringe_fidelity(fit, phi_star),
                "reduced_fidelity": state_fidelity(res.state.reduced_density([slot]),
                                                   factors[slot]),
                "shots_per_point": shots,
            }))
    records.sort(key=lambda r: r.values["ion"])
    return records


DISTRIBUTION_INPUTS = ("111", "+11", "++1", "+++")


def scenario_distributions(rng, compiled, shots=1250):
    """Transform outcome histograms for inputs of growing coherence."""
    noise = NoiseModel()
    rows, summary = [], []
    for label in DISTRIBUTION_INPUTS:
        res = _transform_run(label, compiled, noise)
        p_model = measurement_probabilities(res.state, noise)
        p_ideal = np.abs(reference_qft(3) @ product_input_ket(label)) ** 2
        counts = sample_counts(p_model, shots, rng)
        p_emp = counts / shots
        for k in range(8):
            rows.append(RunRecord(
                "distributions", f"{label} -> {format(k, '03b')}",
                {
                    "input": label,
                    "state_label": format(k, "03b"),
                    "p_simulated_noisy": p_emp[k],
                    "p_ideal": p_ideal[k],
                    "p_simulated": p_model[k],
                    "counts": int(counts[k]),
                }))
        summary.append(RunRecord(
            "distribution_summary", label,
            {
                "input": label,
                "sso": statistical_overlap(p_emp, p_ideal),
                "distinguishability": distinguishability(p_emp, p_ideal),
                "shots": shots,
            }))
    return rows, summary


def scenario_fidelity_table(compiled):
    """Direct and rotation-protocol fidelities of the transform, all 15 inputs."""
    noise = NoiseModel(readout=False)
    ref = reference_qft(3)
    perm = compiled.program.relabel
    records = []
    for label in PRODUCT_INPUTS:
        res = _transform_run(label, compiled, noise)
        ideal = ref @ product_input_ket(label)
        direct = state_fidelity(res.state, ideal)
        values = {
            "input": label,
            "fidelity": direct,
            "benchmark": 1 if label == "010" else 0,
        }
        try:
            factors = factor_product_state(ideal, 3)
            per_ion = {}
            for slot in range(3):
                per_ion[perm[slot]] = state_fidelity(
                    res.state.reduced_density([slot]), factors[slot])
            values["rotation_fidelity"] = fidelity_via_local_rotation(res.state.rho, factors)
            for ion in range(3):
                values[f"f_ion{ion}"] = per_ion[ion]
        except MetricsError:
            values["rotation_fidelity"] = float("nan")
            for ion in range(3):
                values[f"f_ion{ion}"] = float("nan")
        records.append(RunRecord("fidelity_table", label, values))
    return records


def _cell(v, missing="", text=str):
    """One value as a CSV cell, or as JSON with missing="null", text=json.dumps."""
    if isinstance(v, str):
        return text(v)
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    if v is None or np.isnan(float(v)):
        return missing
    return format(float(v), ".10g")


def emit_records(records, directory, stem):
    """One scenario's records as {stem}.csv and {stem}.json under `directory`."""
    columns = ["scenario", "label"]
    for rec in records:
        for key in rec.values:
            if key not in columns:
                columns.append(key)
    csv_path = os.path.join(directory, f"{stem}.csv")
    json_path = os.path.join(directory, f"{stem}.json")
    rows = [{"scenario": rec.scenario, "label": rec.label, **rec.values} for rec in records]
    lines = [",".join(columns)]
    lines += [",".join(_csv_escape(_cell(row.get(c))) for c in columns) for row in rows]
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    chunks = []
    for row in rows:
        body = ", ".join(f"\"{c}\": {_cell(row.get(c), 'null', json.dumps)}" for c in columns)
        chunks.append("  {" + body + "}")
    with open(json_path, "w") as fh:
        fh.write("[\n" + ",\n".join(chunks) + "\n]\n")
    return csv_path, json_path


def _csv_escape(text):
    if any(ch in text for ch in ",\"\n\r"):
        return "\"" + text.replace("\"", "\"\"") + "\""
    return text


# Builtin scenarios draw from dedicated counter-based streams so that running
# any subset, in any order, reproduces the exact bytes of a full run.
_STREAM_INDEX = {"precession": 0, "transform_fringes": 1, "distributions": 2}
SCENARIO_NAMES = ("precession", "topologies", "transform_fringes",
                  "distributions", "fidelity_table")
_TRANSFORM_SCENARIOS = ("transform_fringes", "distributions", "fidelity_table")
# Shorthand tokens accepted wherever a scenario name is.
SCENARIO_ALIASES = {
    "fig1": "precession",
    "fig2": "topologies",
    "fig4": "transform_fringes",
    "fig5": "distributions",
    "table1": "fidelity_table",
}


def scenario_stream(seed, name):
    """The counter-based generator a named builtin scenario owns under `seed`."""
    children = np.random.SeedSequence(seed).spawn(len(_STREAM_INDEX))
    return np.random.Generator(np.random.Philox(children[_STREAM_INDEX[name]]))


def resolve_scenario_name(token):
    name = SCENARIO_ALIASES.get(token, token)
    if name not in SCENARIO_NAMES:
        known = ", ".join(SCENARIO_NAMES + tuple(SCENARIO_ALIASES))
        raise HarnessError(f"unknown scenario {token!r}; builtins: {known}")
    return name


def run_scenario(name, directory, seed=DEFAULT_SEED, compiled=None):
    """Run one builtin scenario; write its CSV/JSON pairs; return {stem: records}.

    The transform scenarios run `compiled`, the optimized KDD-decoupled
    `CompiledTransform` of the calibrated register; when it is None they
    compile it themselves.
    """
    name = resolve_scenario_name(name)
    os.makedirs(directory, exist_ok=True)
    if compiled is None and name in _TRANSFORM_SCENARIOS:
        compiled = _compile_transform()
    if name == "precession":
        out = {"precession": scenario_precession(scenario_stream(seed, name))}
    elif name == "topologies":
        out = {"topologies": scenario_topologies()}
    elif name == "transform_fringes":
        out = {"transform_fringes": scenario_transform_fringes(scenario_stream(seed, name),
                                                               compiled)}
    elif name == "distributions":
        rows, summary = scenario_distributions(scenario_stream(seed, name), compiled)
        out = {"distributions": rows, "distribution_summary": summary}
    else:
        out = {"fidelity_table": scenario_fidelity_table(compiled)}
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
    input_state: str = "000"
    topology: str = ""
    noise: bool = False
    shots: int = 0
    seed: int = DEFAULT_SEED
    pulse_duration: float = 0.0


def load_scenario_file(path):
    """Parse a scenario config (INI format); raise HarnessError on bad input.

    Required keys in [scenario]: program (path). Coupling source: either
    couplings (J matrix file) or trap (trap config file); trap source accepts
    topology (preset letter or per-qubit basis list). Optional: input, noise,
    shots, seed, name, pulse_duration.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise HarnessError(f"{path}: {exc}") from exc
    if not read:
        raise HarnessError(f"cannot read scenario file {path}")
    if not parser.has_section("scenario"):
        raise HarnessError(f"{path}: missing [scenario] section")
    sec = parser["scenario"]
    if "program" not in sec:
        raise HarnessError(f"{path}: missing program path")
    base = os.path.dirname(os.path.abspath(path))

    def _resolve(rel):
        return rel if os.path.isabs(rel) else os.path.join(base, rel)

    program_path = _resolve(sec["program"])
    try:
        with open(program_path) as fh:
            program = parse_program(fh.read())
    except OSError as exc:
        raise HarnessError(f"cannot read program file {program_path}: {exc}") from exc
    except ProgramError as exc:
        raise HarnessError(f"{program_path}: {exc}") from exc

    topology = sec.get("topology", "")
    if "couplings" in sec:
        j = load_couplings(_resolve(sec["couplings"]))
    elif "trap" in sec:
        config = TrapConfig.from_ini(_resolve(sec["trap"]))
        j = coupling_matrix(config)
        if topology:
            j = effective_couplings(j, _parse_topology_token(topology))
    else:
        raise HarnessError(f"{path}: need either couplings or trap")

    try:
        shots = sec.getint("shots", 0)
        seed = sec.getint("seed", DEFAULT_SEED)
        noise = sec.getboolean("noise", False)
        pulse_duration = sec.getfloat("pulse_duration", 0.0)
    except ValueError as exc:
        raise HarnessError(f"{path}: {exc}") from exc
    return Scenario(
        name=sec.get("name", os.path.splitext(os.path.basename(path))[0]),
        program=program,
        couplings=j,
        input_state=sec.get("input", "000"),
        topology=topology,
        noise=noise,
        shots=shots,
        seed=seed,
        pulse_duration=pulse_duration,
    )


def _parse_topology_token(token):
    if len(token) == 1 and token.upper() in "ABCDE":
        return topology_preset(token.upper())
    return parse_topology(token)


def run_custom_scenario(scenario, directory):
    """Execute a file-defined scenario; write its histogram; return the records."""
    os.makedirs(directory, exist_ok=True)
    noise = NoiseModel() if scenario.noise else NoiseModel.off()
    n = scenario.program.n_qubits
    if len(scenario.input_state) != n:
        raise HarnessError(
            f"input {scenario.input_state!r} does not match a {n}-qubit program")
    prep = product_input_pulses(scenario.input_state)
    program = PulseProgram(n_qubits=n, instructions=prep + list(scenario.program.instructions),
                           relabel=scenario.program.relabel, name=scenario.name)
    res = run_program(program, scenario.couplings, noise=noise,
                      pulse_duration=scenario.pulse_duration)
    p_model = measurement_probabilities(res.state, noise)
    ideal = run_program(program, scenario.couplings, noise=NoiseModel.off())
    p_ideal = ideal.state.populations()
    records = []
    if scenario.shots:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(scenario.seed)))
        counts = sample_counts(p_model, scenario.shots, rng)
        p_emp = counts / scenario.shots
    for k in range(2**n):
        values = {
            "input": scenario.input_state,
            "state_label": format(k, f"0{n}b"),
            "p_ideal": p_ideal[k],
            "p_simulated": p_model[k],
        }
        if scenario.shots:
            values["p_simulated_noisy"] = p_emp[k]
            values["counts"] = int(counts[k])
        records.append(RunRecord(scenario.name, values["state_label"], values))
    emit_records(records, directory, scenario.name)
    return records
