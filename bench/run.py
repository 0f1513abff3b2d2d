"""End-to-end and per-layer benchmark of magicforge.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all      # every workload, one process each

Workloads are defined in workloads.py; BENCHMARK.json at the repository root
lists them and the metrics. One process runs one workload as a closed loop
with a single caller: the next op starts when the previous one returns. The
loop runs for --seconds of wall time and then to the end of the workload's
cycle of op structures; each op is timed alone, and its output is checked,
untimed, right after it. BLAS is pinned to one thread.

--trace 0 reports the end-to-end metrics. --trace 1 runs every input twice,
traced and untraced in alternating order, reports the per-layer metrics of
the traced ops (tracing.py) and the tracing overhead over the pairs, and
writes the spans to .bench_out/.

Op times are reported on a reference-speed core. On a shared 2-vCPU Xeon
host, core speed drifted by up to a third over tens of seconds as other
tenants loaded it. So each op's wall time is scaled by the workload's
kernel_ref_ms over the mean time of its calibration kernel (calibration.py:
fixed work shaped like the op, not calling the package) timed right before
and right after the op (the median of those two and the run's median
reading, so one stalled reading does not count). The raw wall times are in
the report.

setup_s is the time from process start to the first timed op: import and
input generation, taken as the median over this process and SETUP_PROBES
fresh interpreters, plus this process's warm-up (one op per register size
and decoupling scheme the workload uses; see each workload's warmup_policy),
scaled like an op by calibrations right before and after it.

The last line of standard output is the result object; the line before it
is a report with the environment, op counts, tail latency and failures.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
CALIBRATION_SHARE = 0.04
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def calibrator(kernel, kernel_ms):
    """Median run time of a calibration kernel, in ms, over at least five
    runs and about CALIBRATION_SHARE of the op time it stands for, so a
    reading of a long op is not one short burst; the median drops interrupts."""
    def calibrate(op_ms):
        samples = []
        for _ in range(max(5, math.ceil(CALIBRATION_SHARE * op_ms / kernel_ms))):
            start = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) * 1e3
    return calibrate


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(np):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
    }


def tail(times_ms):
    """Highest listed percentile with at least 10 ops beyond it, or None."""
    ordered = sorted(times_ms)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        index = max(int(-(-p * n // 100)) - 1, 0)
        if n - index - 1 >= 10:
            return {"percentile": p, "value_ms": ordered[index], "ops": n}
    return None


def setup_probe(name, seed):
    """Import and input-generation time of a fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_probe_s"]


def run_workload(args):
    OUT.mkdir(exist_ok=True)
    import numpy as np
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        wl.setup()
        t_inputs = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_probe_s": t_inputs}))
            return 0
        scale = wl.kernel_ref_ms
        calibrate = calibrator(wl.kernel(), scale)
        cal_before = calibrate(0.0)
        t_warmup = time.perf_counter()
        warmup_inputs = wl.warmup_inputs()
        for inp in warmup_inputs:
            wl.cleanup(wl.op(inp))
        t_loop = time.perf_counter()
        warmup_raw_s = t_loop - t_warmup
        cal_after = calibrate(1e3 * warmup_raw_s / len(warmup_inputs))
        warmup_bracket = (cal_before, cal_after)

        tracer = tracing.Tracer() if args.trace else None
        raw, brackets, cals, traced, failures = [], [], [cal_before, cal_after], [], []
        cal_before = cal_after
        k = 0
        # untraced runs end on a whole cycle of the workload's op mix
        while time.perf_counter() - t_loop < args.seconds or (tracer is None and k % wl.cycle):
            index = k // 2 if tracer is not None else k
            inp = wl.make_input(index)
            trace_this = tracer is not None and k % 2 == index % 2
            if trace_this:
                tracer.begin(k)
            start = time.perf_counter()
            try:
                out = wl.op(inp)
                error = None
            except Exception:  # one failed op is counted, the run goes on
                out, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            if trace_this:
                tracer.end()
            cal_after = calibrate(elapsed * 1e3)
            cals.append(cal_after)
            raw.append(elapsed * 1e3)
            brackets.append((cal_before, cal_after))
            cal_before = cal_after
            problems = [error] if error else wl.check(index, inp, out)
            if out is not None:
                wl.cleanup(out)
            traced.append(trace_this)
            if problems:
                failures.append({"op": k, "problems": problems[:5]})
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        wl.close()

    # a bracket reading far off the run's median (a stall inside the kernel)
    # is outvoted by the other bracket and the median
    typical = statistics.median(cals)
    times = [t * scale / statistics.median([*b, typical]) for t, b in zip(raw, brackets)]
    warmup_s = warmup_raw_s * scale / statistics.median([*warmup_bracket, typical])
    probes = [t_inputs] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    attempted, failed = len(times), len(failures)
    ok = attempted - failed
    e2e = {
        "ops_per_s": {"value": ok / (sum(times) / 1e3), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(times), "unit": "ms"},
        "setup_s": {"value": statistics.median(probes) + warmup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np),
        "warmup_policy": wl.warmup_policy,
        "ops": {"attempted": attempted, "failed": failed, "ok": ok},
        "fail_ratio": failed / attempted if attempted else None,
        "op_tail": tail(times),
        "raw": {"ops_per_s": ok / (sum(raw) / 1e3), "op_p50_ms": statistics.median(raw),
                "op_tail": tail(raw), "calibration_ms": {"median": statistics.median(cals),
                                                         "min": min(cals), "max": max(cals)}},
        "setup": {"import_and_inputs_s": probes, "warmup_s": warmup_s,
                  "warmup_raw_s": warmup_raw_s, "wall_to_first_op_s": t_loop - T_START},
        "end_to_end": e2e,
        "failures": failures[:10],
    }
    metrics = e2e
    if tracer is not None:
        paired = len(times) // 2 * 2
        on = [t for t, flag in zip(times[:paired], traced) if flag]
        off = [t for t, flag in zip(times[:paired], traced) if not flag]
        layers = tracer.layer_metrics()
        layers["trace.ops"] = sum(traced)
        layers["trace.overhead_pct"] = (
            100.0 * (sum(on) / sum(off) - 1.0) if paired else 0.0)
        units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != listed:
        raise SystemExit(f"metrics {sorted(set(metrics) ^ listed)} disagree with BENCHMARK.json")
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    for failure in failures[:5]:
        print(f"op {failure['op']} failed: {failure['problems']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all_workloads(args):
    """Run each workload in its own process and print every metric by name."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_correct = True
    for i, workload in enumerate(declared["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode:
            print(f"== {workload['name']}: exit {proc.returncode}\n{proc.stderr}")
            all_correct = False
            continue
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        if i == 0:
            print("environment:", json.dumps(report["environment"]))
            print(f"seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
        print(f"== {workload['name']}: {workload['why']}")
        print(f"  warm-up: {report['warmup_policy']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:<14.6g} {metric['unit']}")
        print(f"  {'fail_ratio':40s} {report['fail_ratio']:<14.6g} "
              f"({result['failed']} of {result['attempted']} ops)")
        t = report["op_tail"]
        print(f"  {'op_tail_ms':40s} " + (f"{t['value_ms']:<14.6g} ms (p{t['percentile']:g} of {t['ops']} ops)"
                                         if t else f"{'-':<14} (fewer than 11 ops in the run)"))
        all_correct &= result["correct"]
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20260816)  # workloads.DEFAULT_SEED
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "magicforge" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all_workloads(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
