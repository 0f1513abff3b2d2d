"""Command line front end for the chain model, pulse engine and compiler.

Subcommands:

* ``chain <config>``: solve a trap config and print the chain report
  (positions, mode spectrum, addressing splittings, coupling matrix).
* ``couplings <config> [--topology A..E]``: write the coupling matrix of a
  trap config as a plain-text file, optionally sign-shaped by an encoding
  preset.
* ``run <program> --j <matrix> [--noise] [--shots N] [--seed S]``: execute a
  pulse program file against a coupling matrix file and emit the outcome
  histogram.
* ``compile-qft --j <matrix> [--form exact|optimized]``: schedule the
  three-qubit transform for a coupling matrix; writes a plan report and both
  pulse program files.
* ``scenario <name|file>``: run a builtin benchmark scenario (or a scenario
  config file) and emit its record tables.

Output files land under the directory named by the MAGIC_FORGE_OUT
environment variable (default: the current directory). ``--seed`` is
required whenever a finite shot count makes a run stochastic.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import harness
from .chain import (
    TrapConfig,
    coupling_matrix,
    equilibrium_positions,
    load_couplings,
    normal_modes,
    save_couplings,
    zeeman_profile,
)
from .encoding import effective_couplings, topology_preset
from .program import load_program
from .qft import CompilerError, compile_qft, serial_baseline, verify_plan

OUTPUT_ROOT_VAR = "MAGIC_FORGE_OUT"


def output_root():
    root = os.environ.get(OUTPUT_ROOT_VAR, "").strip() or "."
    os.makedirs(root, exist_ok=True)
    return root


def _fmt_matrix(j):
    j = np.asarray(j, dtype=float) / (2 * np.pi)
    width = max(len(f"{v:.4f}") for v in j.ravel())
    rows = ["  ".join(f"{v:{width}.4f}" for v in row) for row in j]
    return "J/2pi (Hz):\n  " + "\n  ".join(rows)


def _cmd_chain(args):
    config = TrapConfig.from_ini(args.config)
    geometry = equilibrium_positions(config)
    modes = normal_modes(config, geometry)
    zeeman = zeeman_profile(config, geometry)
    couplings = coupling_matrix(config, geometry)
    com = modes.frequencies[0]
    lines = [
        f"ions: {config.ion_count}, axial COM mode {com / (2 * np.pi) / 1e3:.3f} kHz, "
        f"gradient {config.magnetic_gradient:.3f} T/m",
        "positions (um): " + "  ".join(f"{z * 1e6:.4f}" for z in geometry.positions),
        "mode frequencies (kHz): "
        + "  ".join(f"{f / (2 * np.pi) / 1e3:.4f}" for f in modes.frequencies),
        "mode frequency ratios: "
        + "  ".join(f"{f / com:.7f}" for f in modes.frequencies),
        "qubit splittings (MHz): "
        + "  ".join(f"{w / (2 * np.pi) / 1e6:.5f}" for w in zeeman.splittings),
        "addressing offsets (MHz): "
        + "  ".join(f"{f / 1e6:+.5f}" for f in zeeman.addressing_offsets_hz),
        _fmt_matrix(couplings.j),
    ]
    print("\n".join(lines))
    return 0


def _cmd_couplings(args):
    config = TrapConfig.from_ini(args.config)
    couplings = coupling_matrix(config)
    stem = "couplings"
    if args.topology:
        shaped = effective_couplings(couplings.j, topology_preset(args.topology))
        couplings.j = shaped
        stem += f"_{args.topology}"
    path = os.path.join(output_root(), f"{stem}.txt")
    save_couplings(path, couplings)
    print(f"wrote {path}")
    print(_fmt_matrix(couplings.j))
    return 0


def _cmd_run(args):
    if args.shots and args.seed is None:
        raise ValueError("--seed is required when --shots is finite")
    program = load_program(args.program)
    couplings = load_couplings(args.j)
    name = os.path.splitext(os.path.basename(args.program))[0]
    scenario = harness.Scenario(
        name=name,
        program=program,
        couplings=couplings.j,
        input_state=args.input,
        noise=args.noise,
        shots=args.shots,
        seed=args.seed if args.seed is not None else harness.DEFAULT_SEED,
    )
    records = harness.run_custom_scenario(scenario, output_root())
    columns = [c for c in records[0].values if c != "input"]  # the histogram's own layout
    print("  ".join(f"{c:>17s}" for c in columns))
    for rec in records:
        cells = []
        for c in columns:
            v = rec.values[c]
            cells.append(f"{v:>17s}" if isinstance(v, str) else
                         f"{v:>17d}" if isinstance(v, int) else f"{v:>17.6g}")
        print("  ".join(cells))
    print(f"wrote {os.path.join(output_root(), name)}.csv/.json")
    return 0


def _cmd_compile_qft(args):
    couplings = load_couplings(args.j)
    root = output_root()
    # Both forms are compiled before any file is written. The selected form must
    # pass its fidelity gate, or the command fails with nothing written; the other
    # form is compiled best-effort so a gate failure there cannot block the one the
    # user asked for.
    compiled = {}
    for form in ("exact", "optimized"):
        try:
            compiled[form] = compile_qft(couplings.j, form=form)
        except CompilerError as exc:
            if form == args.form:
                raise
            compiled[form] = exc
    report = [_fmt_matrix(couplings.j)]
    for form, plan in compiled.items():
        if isinstance(plan, CompilerError):
            report += ["", f"[{form}] not emitted: {plan}"]
            continue
        path = os.path.join(root, f"qft_{form}.pulse")
        with open(path, "w") as fh:
            fh.write(plan.program.to_text())
        check = verify_plan(plan)
        report += [
            "",
            f"[{form}] wrote {path}",
            f"  windows: T1={plan.t1 * 1e3:.6f} ms  T2={plan.t2 * 1e3:.6f} ms  "
            f"T3={plan.t3 * 1e3:.6f} ms",
            f"  analysis rotations: A1={plan.a1 / np.pi:.7f} pi  A2={plan.a2 / np.pi:.7f} pi",
            f"  duration: {plan.duration * 1e3:.6f} ms",
            f"  process fidelity: {plan.process_fidelity:.10f}",
            f"  worst state fidelity over 15 product inputs: {check.min_fidelity:.10f}",
        ]
    baseline, _ = serial_baseline(couplings.j)
    chosen = compiled[args.form]
    report += [
        "",
        f"serial one-pair-at-a-time baseline: {baseline * 1e3:.6f} ms",
        f"selected form: {args.form} "
        f"({chosen.duration / baseline:.3f} of the serial duration)",
    ]
    text = "\n".join(report) + "\n"
    plan_path = os.path.join(root, "qft_plan.txt")
    with open(plan_path, "w") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {plan_path}")
    return 0


def _cmd_scenario(args):
    root = output_root()
    if os.path.exists(args.scenario) and not os.path.isdir(args.scenario):
        scenario = harness.load_scenario_file(args.scenario)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        harness.run_custom_scenario(scenario, root)
        print(f"wrote {os.path.join(root, scenario.name)}.csv/.json")
        return 0
    seed = args.seed if args.seed is not None else harness.DEFAULT_SEED
    out = harness.run_scenario(args.scenario, root, seed=seed)
    for stem in out:
        print(f"wrote {os.path.join(root, stem)}.csv/.json")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magic-forge",
        description="Gradient-coupled ion register: chain model, pulse engine, "
                    "transform compiler and benchmark scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chain", help="solve a trap config and print the chain report")
    p.add_argument("config", help="trap config file (INI)")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("couplings", help="write the coupling matrix of a trap config")
    p.add_argument("config", help="trap config file (INI)")
    p.add_argument("--topology", choices=list("ABCDE"),
                   help="sign-shape by an encoding preset")
    p.set_defaults(func=_cmd_couplings)

    p = sub.add_parser("run", help="execute a pulse program file")
    p.add_argument("program", help="pulse program file")
    p.add_argument("--j", required=True, help="coupling matrix file (rad/s)")
    p.add_argument("--noise", action="store_true", help="enable the noise model")
    p.add_argument("--shots", type=int, default=0,
                   help="sample a finite number of shots (default: analytic)")
    p.add_argument("--seed", type=int, help="RNG seed; required with --shots")
    p.add_argument("--input", help="product input state over {0,1,+} (default all 0)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compile-qft",
                       help="schedule the three-qubit transform for a coupling matrix")
    p.add_argument("--j", required=True, help="coupling matrix file (rad/s)")
    p.add_argument("--form", choices=("exact", "optimized"), default="exact",
                   help="which emitted form the summary highlights")
    p.set_defaults(func=_cmd_compile_qft)

    p = sub.add_parser("scenario", help="run a builtin or file-defined scenario")
    p.add_argument("scenario", help="builtin name or scenario config file")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
