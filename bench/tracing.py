"""Per-layer spans for the traced benchmark run.

The tracer wraps the public functions listed in WRAPPED at every namespace
of the package that holds them (for example `magicforge.engine.run_program`,
`magicforge.harness.run_program` and `magicforge.run_program`), so calls
between layers are seen as well as the benchmark's own calls. Spans (name,
start, end, parent span, op id) stay in memory and are written out when the
run ends. A layer's `.ms` metric is its self time in raw wall-clock ms:
span durations minus the time covered by child spans, summed over the traced
ops of the run. `.calls` and the counters are summed the same way.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "magicforge"

WRAPPED = (
    ("chain", "coupling_matrix"),
    ("chain", "equilibrium_positions"),
    ("chain", "normal_modes"),
    ("chain", "zeeman_profile"),
    ("qft", "compile_qft"),
    ("qft", "plan_times"),
    ("qft", "solve_entangling_params"),
    ("qft", "emit_sequence"),
    ("qft", "verify_plan"),
    ("engine", "run_program"),
    ("engine", "program_unitary"),
    ("engine", "apply_rotation"),
    ("engine", "free_evolution"),
    ("engine", "ramsey_scan"),
    ("engine", "fringe_scan"),
    ("engine", "measurement_probabilities"),
    ("engine", "sample_counts"),
    ("program", "parse_program"),
    ("metrics", "state_fidelity"),
    ("metrics", "ramsey_fit"),
    ("metrics", "fidelity_via_local_rotation"),
    ("metrics", "process_fidelity"),
    ("harness", "run_all"),
    ("harness", "scenario_precession"),
    ("harness", "scenario_topologies"),
    ("harness", "scenario_transform_fringes"),
    ("harness", "scenario_distributions"),
    ("harness", "scenario_fidelity_table"),
    ("harness", "emit_records"),
)

_E2E = "op_p50_ms"
_OPS = "ops_per_s"

# (metric, unit, end-to-end metric it should move, workloads it shows on).
# Shares in the notes are of op time at the commit that added the benchmark.
LAYER_METRICS = (
    ("qft.solve_entangling_params.ms", "ms", f"{_E2E}, {_OPS}",
     "compile_sweep (~95%), reproduce (~43%); no change on wide_register, chain_scan"),
    ("qft.solve_entangling_params.calls", "count", f"{_E2E}, {_OPS}", "compile_sweep, reproduce"),
    ("qft.solve_entangling_params.roots", "count",
     "waste ratio of the start lattice (roots / 4096 starts per call)", "compile_sweep"),
    ("qft.compile_qft.ms", "ms", _E2E, "compile_sweep, reproduce"),
    ("qft.plan_times.ms", "ms", _E2E, "compile_sweep, reproduce"),
    ("qft.emit_sequence.ms", "ms", _E2E, "compile_sweep, reproduce"),
    ("qft.verify_plan.ms", "ms", _E2E, "compile_sweep"),
    ("engine.program_unitary.ms", "ms", _E2E,
     "compile_sweep (~5%, most of the op once the solver is closed-form), reproduce"),
    ("engine.program_unitary.calls", "count", _E2E, "compile_sweep, reproduce"),
    ("engine.run_program.ms", "ms", _OPS, "wide_register (~all), reproduce (~54%)"),
    ("engine.run_program.calls", "count", _OPS, "wide_register, reproduce"),
    ("engine.apply_rotation.ms", "ms", _OPS, "wide_register, reproduce"),
    ("engine.apply_rotation.calls", "count", _OPS, "wide_register, reproduce"),
    ("engine.free_evolution.ms", "ms", _OPS, "wide_register, reproduce"),
    ("engine.free_evolution.calls", "count", _OPS, "wide_register, reproduce"),
    ("engine.instructions", "count", "denominator for per-instruction cost",
     "wide_register, reproduce, compile_sweep"),
    ("engine.ramsey_scan.ms", "ms", _OPS, "reproduce (precession ~41%)"),
    ("engine.fringe_scan.ms", "ms", _OPS, "reproduce"),
    ("engine.measurement_probabilities.ms", "ms", _E2E, "wide_register, reproduce (small)"),
    ("engine.sample_counts.ms", "ms", _E2E, "wide_register, reproduce (small)"),
    ("chain.coupling_matrix.ms", "ms", _OPS, "chain_scan; <1% on compile_sweep, wide_register"),
    ("chain.equilibrium_positions.ms", "ms", _OPS, "chain_scan"),
    ("chain.equilibrium_positions.calls", "count", _OPS,
     "chain_scan (2 per coupling_matrix call today)"),
    ("chain.normal_modes.ms", "ms", _OPS, "chain_scan"),
    ("chain.zeeman_profile.ms", "ms", _OPS, "chain_scan"),
    ("chain.newton_iterations", "count", _OPS, "chain_scan"),
    ("program.parse_program.ms", "ms", _E2E, "wide_register (small)"),
    ("metrics.state_fidelity.ms", "ms", _OPS, "reproduce"),
    ("metrics.ramsey_fit.ms", "ms", _OPS, "reproduce"),
    ("metrics.fidelity_via_local_rotation.ms", "ms", _OPS, "reproduce"),
    ("metrics.process_fidelity.ms", "ms", _OPS, "reproduce, compile_sweep"),
    ("harness.scenario_precession.ms", "ms", _OPS, "reproduce only"),
    ("harness.scenario_topologies.ms", "ms", _OPS, "reproduce only"),
    ("harness.scenario_transform_fringes.ms", "ms", _OPS, "reproduce only"),
    ("harness.scenario_distributions.ms", "ms", _OPS, "reproduce only"),
    ("harness.scenario_fidelity_table.ms", "ms", _OPS, "reproduce only"),
    ("harness.emit_records.ms", "ms", _OPS, "reproduce only"),
    ("harness.bytes_written", "bytes", _OPS, "reproduce only"),
    ("trace.ops", "count", "number of traced ops the sums above cover", "all"),
    ("trace.overhead_pct", "%", "untraced over traced ops_per_s, minus one", "all"),
)


def expanded_length(program, dd_fragment):
    """Instructions a program executes once decoupled windows are expanded."""
    count = 0
    for ins in program.instructions:
        if type(ins).__name__ == "FreeEvolve" and ins.dd_pulses:
            count += len(dd_fragment(ins.duration, ins.dd_pulses, ins.dd_scheme,
                                     program.n_qubits).instructions)
        else:
            count += 1
    return count


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._op = None
        self._patches = []
        self._wrappers = None

    def _after(self, name, args, result):
        if name == "qft.solve_entangling_params":
            self.counts["qft.solve_entangling_params.roots"] += result.n_roots
        elif name == "chain.equilibrium_positions":
            self.counts["chain.newton_iterations"] += result.iterations
        elif name in ("engine.run_program", "engine.program_unitary"):
            engine = sys.modules[f"{PACKAGE}.engine"]
            self.counts["engine.instructions"] += expanded_length(args[0], engine.dd_fragment)
        elif name == "harness.emit_records":
            self.counts["harness.bytes_written"] += sum(os.path.getsize(p) for p in result)

    def _wrap(self, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._op)
            self._after(name, args, result)
            return result
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        if self._wrappers is None:
            self._wrappers = {}
            for layer, func in WRAPPED:
                original = getattr(sys.modules[f"{PACKAGE}.{layer}"], func)
                self._wrappers[id(original)] = (original, self._wrap(f"{layer}.{func}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def begin(self, op_id):
        """Install the wrappers and open the root span of one traced op."""
        self.install()
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._op_start = time.perf_counter_ns()

    def end(self):
        end = time.perf_counter_ns()
        index = self._stack.pop()
        self.spans[index] = ("op", self._op_start, end, -1, self._op)
        self._op = None
        self.uninstall()

    def summary(self):
        """Per span name: self time in ms, and calls."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] += (end - start - covered[i]) / 1e6
            calls[name] += 1
        return self_ms, calls

    def layer_metrics(self):
        self_ms, calls = self.summary()
        out = {}
        for name, unit, _, _ in LAYER_METRICS:
            if name.startswith("trace."):
                continue
            if name.endswith(".ms"):
                out[name] = self_ms.get(name[:-3], 0.0)
            elif name.endswith(".calls"):
                out[name] = calls.get(name[:-6], 0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
