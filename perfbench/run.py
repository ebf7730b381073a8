"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload xmark --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the engine is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  A record of the run (seeds, per-rate and per-query figures,
failures) and, for traced runs, every span are written under
``.perfbench/``.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a run that hangs is stopped (exit code 1) before this many seconds
WATCHDOG_SECONDS = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("xmark", "adhoc", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--doc-seed", type=int, default=None,
                        help="seed of the generated document (default: --seed)")
    parser.add_argument("--variant-seed", type=int, default=None,
                        help="seed of the adhoc texts (default: --seed + 1)")
    parser.add_argument("--write-seed", type=int, default=None,
                        help="seed of the update transactions "
                             "(default: --seed + 2)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)

    import workloads

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    config = workloads.Config(
        seconds=args.seconds, trace=bool(args.trace),
        doc_seed=args.seed if args.doc_seed is None else args.doc_seed,
        variant_seed=args.seed + 1 if args.variant_seed is None
        else args.variant_seed,
        write_seed=args.seed + 2 if args.write_seed is None
        else args.write_seed,
        workdir=workdir)
    report = workloads.Report()
    workloads.WORKLOADS[args.workload](config, report)

    seeds = {"doc_seed": config.doc_seed, "variant_seed": config.variant_seed,
             "write_seed": config.write_seed}
    if config.trace:
        units, values = workloads.LAYER_UNITS, report.layers
    else:
        units, values = workloads.E2E_UNITS, report.e2e
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "seconds": args.seconds, **seeds,
              "attempted": report.attempted, "failed": report.failed,
              "failures": report.failures, "info": report.info,
              "metrics": metrics}

    print("seeds: " + " ".join(f"{key}={value}" for key, value in seeds.items()))
    for message in report.failures:
        print(f"FAILED {message}")
    print(" ".join(f"{key}={report.info[key]}"
                   for key in ("passes", "setups", "writes") if key in report.info))
    for label, value in report.info.get("min_ms", {}).items():
        print(f"{label}: {value:.3f} ms (fastest), "
              f"{report.info['p50_ms'][label]:.3f} ms (median)")
    if config.trace:
        problems = workloads.sanity(args.workload, report.layers)
        record["sanity"] = problems
        print("sanity: " + ("; ".join(problems) if problems else "ok"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (workdir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if report.tracer is not None:
        report.tracer.dump(workdir / f"{stem}-spans.json", seeds)
    if report.attempted:
        print(f"failed_ratio: {report.failed / report.attempted:.6f}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    correct = report.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, report.attempted),
                      "failed": report.failed, "metrics": metrics}))
    faulthandler.cancel_dump_traceback_later()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
