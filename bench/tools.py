"""Maintenance commands for the benchmark.

    python3 bench/tools.py freeze      # rewrite expected/ at the default seed
    python3 bench/tools.py selftest    # show that every output check can fail
    python3 bench/tools.py crosswalk   # traced default-seed run vs the ROADMAP baseline

`freeze` changes what the checks accept; run it only when an output change
is intended, and say which numbers moved and why.
"""

import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from magicforge import chain, engine, harness, program, qft  # noqa: E402
from workloads import DEFAULT_SEED, EXPECTED, WORKLOADS  # noqa: E402

FROZEN_OPS = {"compile_sweep": 6, "wide_register": 5, "chain_scan": 3}
OTHER_SEED = 7


def freeze():
    OUT.mkdir(exist_ok=True)
    target = EXPECTED / "reproduce"
    target.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        harness.run_all(tmp, DEFAULT_SEED)
        for old in target.glob("*.csv"):
            old.unlink()
        for path in sorted(Path(tmp).glob("*.csv")):
            shutil.copy(path, target / path.name)
    # every column outside workloads.SAMPLED must be the same at another seed
    wl = WORKLOADS["reproduce"](OTHER_SEED, OUT)
    wl.setup()
    try:
        out = wl.op(OTHER_SEED)
        problems = wl.check(0, OTHER_SEED, out)
        if problems:
            raise SystemExit(f"reproduce at seed {OTHER_SEED}: {problems[:5]}")
    finally:
        wl.close()
    print(f"froze {len(list(target.glob('*.csv')))} tables under {target.relative_to(ROOT)}")
    for name, count in FROZEN_OPS.items():
        wl = WORKLOADS[name](DEFAULT_SEED, OUT)
        wl.frozen = []
        wl.setup()
        records = []
        for k in range(count):
            inp = wl.make_input(k)
            out = wl.op(inp)
            problems = wl.check(k, inp, out)
            if problems:
                raise SystemExit(f"{name} op {k}: {problems}")
            records.append(wl.record(out))
        path = EXPECTED / f"{name}.json"
        path.write_text(json.dumps({"seed": DEFAULT_SEED, "ops": records}) + "\n")
        print(f"froze {count} ops of {name} in {path.relative_to(ROOT)}")


def selftest():
    """Each check must pass a real output and fail it shifted or miscounted."""
    ok = True
    for name, cls in WORKLOADS.items():
        for seed in (DEFAULT_SEED, OTHER_SEED):
            wl = cls(seed, OUT)
            wl.setup()
            try:
                inp = wl.make_input(0)
                out = wl.op(inp)
                real = wl.check(0, inp, out)
                ok &= not real
                print(f"{name:14s} seed {seed:<9d} real output         "
                      f"{'passes' if not real else 'FAILS: ' + real[0]}")
                for kind, label in (("shift", f"shifted by {workloads.SHIFT:g}"),
                                    ("shot", "one count off by one")):
                    bad = wl.mutate(out, kind)
                    if bad is None:
                        print(f"{name:14s} seed {seed:<9d} {label:20s} n/a (no shot counts)")
                        continue
                    problems = wl.check(0, inp, bad)
                    ok &= bool(problems)
                    print(f"{name:14s} seed {seed:<9d} {label:20s} "
                          f"{'fails: ' + problems[0] if problems else 'PASSES (vacuous check)'}")
                    wl.cleanup(bad)
                wl.cleanup(out)
            finally:
                wl.close()
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


# ROADMAP baseline rows (ms) at the commit that added the benchmark.
BASELINE = {
    "solve_entangling_params (benchmark J)": 857,
    "compile_qft(optimized, kdd)": 900,
    "run_program, compiled kdd program": 28.6,
    "program_unitary, same program": 20.5,
    "ramsey_scan, 16 phases, dd=20": 152,
    "scenario precession": 2414,
    "scenario topologies": 304,
    "scenario transform_fringes": 938,
    "scenario distributions": 1006,
    "scenario fidelity_table": 1377,
    "run_all": 6080,
    "3-qubit program (n pi/2 + EV dd=20,cpmg)": 9.7,
    "5-qubit program": 23,
    "7-qubit program": 1060,
    "9-qubit program": 5470,
    "coupling_matrix, 3 ions": 1.3,
    "coupling_matrix, 30 ions": 81.5,
    "coupling_matrix, 60 ions": 302,
    "equilibrium solves per coupling_matrix call": 3,
}


def _median_ms(func, repeats):
    func()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def crosswalk():
    OUT.mkdir(exist_ok=True)
    measured = {}
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        harness.run_all(tmp, DEFAULT_SEED)  # warm-up
        tracer.begin(0)
        harness.run_all(tmp, DEFAULT_SEED)
        tracer.end()
    spans = tracer.spans

    def under(i, ancestor):
        while i >= 0:
            if spans[i][0] == ancestor:
                return True
            i = spans[i][3]
        return False

    def mean_ms(name, ancestor=None):
        picked = [(e - s) / 1e6 for i, (n, s, e, _, _) in enumerate(spans)
                  if n == name and (ancestor is None or under(spans[i][3], ancestor))]
        return statistics.fmean(picked)

    measured["solve_entangling_params (benchmark J)"] = mean_ms("qft.solve_entangling_params")
    measured["compile_qft(optimized, kdd)"] = mean_ms("qft.compile_qft")
    measured["run_program, compiled kdd program"] = mean_ms(
        "engine.run_program", "harness.scenario_fidelity_table")
    measured["program_unitary, same program"] = mean_ms("engine.program_unitary", "qft.compile_qft")
    measured["ramsey_scan, 16 phases, dd=20"] = mean_ms("engine.ramsey_scan")
    for name in harness.SCENARIO_NAMES:
        measured[f"scenario {name}"] = mean_ms(f"harness.scenario_{name}")
    measured["run_all"] = mean_ms("harness.run_all")

    for n in (3, 5, 7, 9):
        j = chain.coupling_matrix(chain.TrapConfig(ion_count=n, bias_field=0.01)).j
        prog = program.PulseProgram(
            n, [program.Rotate(q, np.pi / 2, 0.0) for q in range(n)]
            + [program.FreeEvolve(1e-3, 20, "cpmg")])
        label = "3-qubit program (n pi/2 + EV dd=20,cpmg)" if n == 3 else f"{n}-qubit program"
        measured[label] = _median_ms(lambda: engine.run_program(prog, j), 3)
    for n in (3, 30, 60):
        config = chain.TrapConfig(ion_count=n, bias_field=0.01)
        measured[f"coupling_matrix, {n} ions"] = _median_ms(lambda: chain.coupling_matrix(config), 5)
    solves = tracing.Tracer()
    solves.begin(0)
    chain.coupling_matrix(chain.TrapConfig(ion_count=30, bias_field=0.01))
    solves.end()
    measured["equilibrium solves per coupling_matrix call"] = solves.summary()[1][
        "chain.equilibrium_positions"]

    print(f"{'row':45s} {'ROADMAP':>10s} {'measured':>10s} {'ratio':>7s}")
    for row, base in BASELINE.items():
        got = measured[row]
        ratio = got / base
        flag = "  <- disagrees" if not 0.8 <= ratio <= 1.25 else ""
        print(f"{row:45s} {base:10.4g} {got:10.4g} {ratio:7.2f}{flag}")
    print("times in ms (solve count as a count); run_all rows come from one traced run at "
          f"seed {DEFAULT_SEED}, the rest are medians of untraced repeats; ratio outside "
          "0.8-1.25 is flagged")
    return 0


if __name__ == "__main__":
    commands = {"freeze": freeze, "selftest": selftest, "crosswalk": crosswalk}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        raise SystemExit(__doc__)
    sys.exit(commands[sys.argv[1]]() or 0)
