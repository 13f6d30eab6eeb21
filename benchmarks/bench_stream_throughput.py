"""Fleet throughput: the batched StreamEngine vs. the per-trajectory loop.

Replays the same workload twice — once through ``OnlineDetector.detect`` one
trajectory at a time, once through ``StreamEngine`` with 64 concurrent
streams — verifies the labels are identical, and reports points/sec for both.
The engine's batched tick amortizes the LSTM and policy matmuls across the
fleet and reuses per-segment features through the LRU cache, so it should
clear the per-trajectory loop by >= 3x.

Both paths are warmed with one untimed run, then timed over ``REPEATS``
alternating runs (so a swing in host speed hits both alike). Each path
reports the median with min/max; the speedup floor is judged on the ratio
of the medians and every timed run's labels are checked.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_stream_throughput.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_stream_throughput.py -s
"""

import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from repro.core import replay_fleet
from repro.eval import measure_throughput
from repro.experiments.common import prepare_city, train_rl4oasd

from conftest import bench_settings, maybe_record_json, record_result

CONCURRENCY = 64
WORKLOAD_TRIPS = 256
#: Required points/sec advantage of the fleet engine; override to loosen on
#: noisy shared runners, e.g. REPRO_BENCH_MIN_SPEEDUP=2.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
#: Timed runs per path, after one warm-up run each.
REPEATS = 7


@pytest.fixture(scope="module")
def throughput():
    result = run_bench()
    record_result("stream_throughput", result["text"])
    return result


def run_bench():
    settings = bench_settings(joint_trajectories=100)
    split = prepare_city("chengdu", settings)
    model, _ = train_rl4oasd(split, settings)
    workload = [split.test[i % len(split.test)] for i in range(WORKLOAD_TRIPS)]
    total_points = sum(len(trajectory) for trajectory in workload)

    detector = model.detector()
    engine = model.stream_engine()
    paths = {
        "single": (lambda: [detector.detect(trajectory)
                            for trajectory in workload],
                   "OnlineDetector (one stream at a time)"),
        "fleet": (lambda: replay_fleet(engine, workload,
                                       concurrency=CONCURRENCY),
                  f"StreamEngine ({CONCURRENCY} concurrent streams)"),
    }
    runs = {path: [] for path in paths}
    labels = {path: [] for path in paths}
    for repeat in range(REPEATS + 1):
        for path, (run, name) in paths.items():
            report, results = measure_throughput(
                run, total_points, name=name,
                num_trajectories=len(workload))
            if repeat:  # the first round only warms both paths
                runs[path].append(report)
                labels[path].append([result.labels for result in results])
    single, fleet = (median_report(runs[path]) for path in paths)
    mismatches = max(
        sum(1 for reference, result in zip(labels["single"][0], run)
            if reference != result)
        for run in labels["single"] + labels["fleet"])
    speedup = fleet.speedup_over(single)
    text = "\n".join([
        f"Fleet streaming throughput (warm; median [min-max] of {REPEATS} "
        "alternating runs)",
        f"  workload: {len(workload)} trips, {total_points} points",
        f"  {format_runs(single, runs['single'])}",
        f"  {format_runs(fleet, runs['fleet'])}",
        f"  speedup of the medians: {speedup:.2f}x   "
        f"label mismatches: {mismatches}",
        f"  segment cache: {engine.cache.hits} hits / "
        f"{engine.cache.misses} misses ({engine.cache.hit_rate:.1%})",
    ])
    return {
        "text": text,
        "speedup": speedup,
        "mismatches": mismatches,
        "single": single,
        "fleet": fleet,
        "single_runs": [report.points_per_second for report in runs["single"]],
        "fleet_runs": [report.points_per_second for report in runs["fleet"]],
        "model": model,
        "workload": workload,
    }


def median_report(reports):
    """The run with the median rate (REPEATS is odd, so it is one run)."""
    rates = [report.points_per_second for report in reports]
    return reports[rates.index(statistics.median_low(rates))]


def format_runs(median, reports):
    rates = [report.points_per_second for report in reports]
    return (f"{median.name}: median {median.points_per_second:,.0f} "
            f"points/sec [{min(rates):,.0f}-{max(rates):,.0f}]")


def test_stream_engine_matches_single_stream_labels(throughput):
    assert throughput["mismatches"] == 0


def test_stream_engine_speedup_at_64_streams(throughput):
    assert throughput["speedup"] >= MIN_SPEEDUP, throughput["text"]


def test_bench_stream_tick(benchmark, throughput):
    """Time one fleet round: one ingest per vehicle plus one batched tick."""
    engine = throughput["model"].stream_engine()
    workload = throughput["workload"]
    feeds = []
    for vehicle in range(CONCURRENCY):
        trajectory = workload[vehicle % len(workload)]
        engine.ingest(vehicle, trajectory.segments[0],
                      destination=trajectory.destination,
                      start_time_s=trajectory.start_time_s)
        feeds.append((vehicle, trajectory.segments))
    cursor = [1]

    def fleet_round():
        # Cycle each trip's own segments so the streams never run dry.
        position = cursor[0]
        cursor[0] += 1
        for vehicle, segments in feeds:
            engine.ingest(vehicle, segments[position % len(segments)])
        engine.tick()

    benchmark(fleet_round)


def main() -> None:
    result = run_bench()
    print(result["text"])
    maybe_record_json("stream_throughput", result)
    if result["mismatches"]:
        raise SystemExit("label mismatch between the two paths")
    if result["speedup"] < MIN_SPEEDUP:
        raise SystemExit(
            f"speedup {result['speedup']:.2f}x below the {MIN_SPEEDUP:.1f}x floor")


if __name__ == "__main__":
    main()
