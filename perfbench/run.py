"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload matched_fleet --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root (the program is imported from ``src/``).
``--trace 0`` prints every end-to-end metric ``BENCHMARK.json`` names,
``--trace 1`` every per-layer metric plus the per-layer self-time table,
and writes the spans to ``.perfbench_out/``. Serving rates, latencies and
refresh times are quoted at a reference host speed, from samples of a
fixed kernel taken during the run (``perfbench.measure.HostPace``); the
report prints the slowdowns beside them. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Any wrong label, undelivered result or bus gap makes
``correct`` false and the exit code 1. ``--smoke`` runs every workload
briefly with one set-up (and raw_fleet's open loop sized for the
percentile rule alone), traced (a traced run serves every other segment
untraced, so both paths run), and exits non-zero on any failure.
"""

import time

IMPORT_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SECONDS = 3.0


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as error:
        fail_setup(f"cannot read BENCHMARK.json: {error}")


def run_one(workload, spec: dict) -> bool:
    """Run one workload, print its report and result line; True if
    every output was correct."""
    outcome = workload.run()
    name, seed, seconds, trace = (workload.name, workload.seed,
                                  workload.seconds, workload.trace)
    print(f"== {name} seed {seed}, {seconds:g}s, trace {int(trace)}")
    for line in outcome.lines:
        print(line)
    ledger = outcome.ledger
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value = outcome.metrics.get(entry["name"])
        if value is None:
            ledger.fail("report", f"metric {entry['name']} not measured")
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<38} {value:>14.6g} {entry['unit']}")
    print("operations:")
    for line in ledger.format():
        print(line)
    if trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{name}-seed{seed}-spans.jsonl"
        count = workload.recorder.write_jsonl(path)
        print(f"{count} spans written to {path.relative_to(ROOT)}")
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}),
          flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload for {SMOKE_SECONDS:g}s, "
                             "traced, one set-up each")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        fail_setup(f"no program to measure: {ROOT / 'src' / 'repro'} "
                   "is missing (run from a checkout of the repository)")
    spec = load_spec()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro  # noqa: F401  (imports count toward set-up time)
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - IMPORT_STARTED
    if args.smoke:
        results = [run_one(WORKLOADS[name](args.seed, SMOKE_SECONDS, True,
                                           import_s, smoke=True), spec)
                   for name in WORKLOADS]
        return 0 if all(results) else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds,
                                        bool(args.trace), import_s)
    return 0 if run_one(workload, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
