"""Tests of the benchmark itself: its statistics, spans, open-loop timing,
failure accounting, and a smoke run of every workload.

    python3 -m pytest perfbench -q

(The repository's default ``pytest`` run collects ``tests/`` only.)
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.loops import (Done, RawLoop, Results,  # noqa: E402
                             shuffled_fixes)
from perfbench.measure import (REFERENCE_KERNEL_S, HostPace,  # noqa: E402
                               Ledger, TooFewSamples, completion_rate,
                               summarize)
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import MatchedFleet  # noqa: E402
from repro.trajectory.models import GPSPoint, RawTrajectory  # noqa: E402


# ------------------------------------------------------- percentile rule
def test_p90_needs_ten_samples_beyond_it():
    summary = summarize("x", list(range(100)), "ms")
    assert summary.count == 100
    assert summary.median == pytest.approx(49.5)
    assert summary.tail == pytest.approx(89.1)
    assert summary.highest_q == 0.9  # p95 would have only 5 beyond it
    with pytest.raises(TooFewSamples, match="cannot support p90"):
        summarize("x", list(range(99)), "ms")


def test_highest_supported_percentile_grows_with_the_sample():
    assert summarize("x", list(range(200)), "ms").highest_q == 0.95
    assert summarize("x", list(range(1000)), "ms").highest_q == 0.99
    assert summarize("x", list(range(10_000)), "ms").highest_q == 0.999


def test_completion_rate_counts_whole_wave_periods():
    completions = [(0.01 * step, 5) for step in range(1, 401)]  # 500/s
    assert completion_rate(completions, 0.0, 10.0) == pytest.approx(500.0)
    assert completion_rate(completions, 1.0, 3.0) == pytest.approx(500.0)
    # Waves of 64 every 0.8 s: 80/s wherever the window cuts them.
    waves = [(0.8 * wave + 0.3, 1) for wave in range(10) for _ in range(64)]
    for start, end in [(0.0, 8.0), (0.5, 6.0), (1.0, 7.5)]:
        assert completion_rate(waves, start, end) == pytest.approx(80.0)
    with pytest.raises(TooFewSamples):
        completion_rate(completions[:2], 0.0, 10.0)
    with pytest.raises(TooFewSamples, match="1 instants"):
        completion_rate(waves[:64], 0.0, 10.0)


def test_host_slowdown_is_the_median_sample_inside_the_windows():
    pace = HostPace()
    ref = REFERENCE_KERNEL_S
    pace.samples = [(0.5, ref), (1.0, 2 * ref), (1.5, 30 * ref),
                    (5.0, 10 * ref), (8.0, ref), (8.5, 3 * ref),
                    (9.0, 4 * ref)]
    # The interrupted 30x sample moves nothing.
    assert pace.slowdown([(0.0, 2.0)]) == pytest.approx(2.0)
    assert pace.slowdown([(0.0, 2.0), (7.0, 9.0)]) == pytest.approx(2.5)
    assert pace.slowdown([(4.0, 6.0)]) == pytest.approx(10.0)
    with pytest.raises(TooFewSamples):
        pace.slowdown([(2.0, 4.5)])


def test_host_slowdown_around_each_time():
    pace = HostPace()
    ref = REFERENCE_KERNEL_S
    pace.samples = [(0.0, ref), (0.1, 3 * ref), (0.2, 2 * ref),
                    (5.0, 4 * ref)]
    assert list(pace.around([0.1, 5.2], 0.5)) == pytest.approx([2.0, 4.0])
    with pytest.raises(TooFewSamples):
        pace.around([2.5], 0.5)


def test_host_pace_samples_on_its_own_clock():
    pace = HostPace()
    pace.poll()
    pace.poll()  # too soon for another sample
    assert len(pace.samples) == 1
    assert pace.samples[0][1] > 0


# ------------------------------------------------------------- self time
def test_self_time_subtracts_direct_children_only():
    recorder = SpanRecorder(enabled=True)
    # driver [0, 10] > serve [1, 7] > core [2, 5]; idle [8, 9]
    recorder.spans = [
        ["driver.serve", 0.0, 10.0, -1, None],
        ["serve.call", 1.0, 7.0, 0, None],
        ["core.tick", 2.0, 5.0, 1, None],
        ["idle.wait", 8.0, 9.0, 0, None],
        ["driver.replay_engine", 20.0, 22.0, -1, None],
        ["core.tick", 20.5, 21.5, 4, None],
    ]
    served = recorder.self_times(roots=("driver.serve",))
    assert served["driver"] == (3.0, 1)
    assert served["serve"] == (3.0, 1)
    assert served["core"] == (3.0, 1)
    assert served["idle"] == (1.0, 1)
    assert sum(s for s, _ in served.values()) == recorder.wall(
        roots=("driver.serve",))
    replays = recorder.self_times(roots=("driver.replay",))
    assert replays == {"driver": (1.0, 1), "core": (1.0, 1)}


def test_span_contexts_nest_and_a_disabled_recorder_records_nothing():
    recorder = SpanRecorder(enabled=True)
    with recorder.span("driver.serve"):
        with recorder.span("serve.ingest_many", key=7):
            recorder.add("core.fine_tune", 1.0, 1.0)
    names = [(name, parent) for name, _, _, parent, _ in recorder.spans]
    assert names == [("driver.serve", -1), ("serve.ingest_many", 0),
                     ("core.fine_tune", 1)]
    off = SpanRecorder(enabled=False)
    with off.span("driver.serve"):
        off.add("core.x", 0.0, 1.0)
    assert off.spans == []


# ------------------------------------------------------------- open loop
class _FakeGateway:
    """Accepts fixes, stalls once, and reports a session right at end()."""

    def __init__(self, stall_s: float):
        self.stall_s = stall_s
        self.pushes = 0
        self.ended = []
        self.service = SimpleNamespace(shard_for=lambda key: 0)

    def push_point(self, vehicle, fix, start_time_s=None):
        self.pushes += 1
        if self.pushes == 1:
            time.sleep(self.stall_s)
        return []

    def end(self, vehicle):
        self.ended.append(vehicle)
        return []

    def pump(self):
        return 0

    def poll_sessions(self):
        done, self.ended = self.ended, []
        return [SimpleNamespace(
            vehicle_id=vehicle, session_key=(vehicle, 0),
            result=SimpleNamespace(labels=[0], trajectory=SimpleNamespace(
                segments=[1]))) for vehicle in done]


def test_open_loop_latency_counts_from_when_the_last_fix_was_due():
    trace = RawTrajectory(0, [GPSPoint(0.0, 0.0, float(t)) for t in range(3)],
                          start_time_s=0.0)
    gateway = _FakeGateway(stall_s=0.06)
    loop = RawLoop(gateway, SpanRecorder(enabled=False), [trace],
                   np.random.default_rng(0), swap_share=0.0)
    # One lane at 100 fixes/s: fixes due at +0, +10 and +20 ms. The first
    # push stalls 60 ms, so the session reports ~40 ms after its last fix
    # was due even though it was sent the moment the stall ended.
    started = loop.open_loop(lambda: 0, rate=100.0, lanes=1,
                             duration_s=0.001, timeout_s=5.0)
    assert started == 1
    (session,) = loop.take()
    assert session.latency_s >= 0.035
    assert max(loop.late_s) >= 0.035
    assert loop.unexpected == []


def test_swapped_fixes_stay_within_one_place():
    trace = RawTrajectory(0, [GPSPoint(0.0, 0.0, float(t))
                              for t in range(500)], start_time_s=0.0)
    fixes, swaps = shuffled_fixes(trace, np.random.default_rng(1), 0.2)
    assert 0 < swaps < 250
    assert sorted(fix.t for fix in fixes) == [p.t for p in trace.points]
    for position, fix in enumerate(fixes):
        assert abs(fix.t - position) <= 1
    assert sum(1 for p, fix in enumerate(fixes) if fix.t != p) == 2 * swaps


# ------------------------------------------------------ failure accounting
def test_failed_share_is_counted_against_every_attempt():
    ledger = Ledger()
    ledger.attempt("closed loop", 300)
    ledger.fail("closed loop", "pool trip 4: labels differ", 2)
    ledger.attempt("gateway", 700)
    assert (ledger.attempted, ledger.failed) == (1000, 2)
    assert ledger.failed_share == pytest.approx(0.002)
    lines = ledger.format()
    assert "closed loop: attempted 300, succeeded 298, failed 2" in lines[0]
    assert "of 1000" in lines[2]


def test_label_check_counts_every_result_and_its_failures():
    workload = MatchedFleet(seed=0, seconds=1.0, trace=False, import_s=0.0)
    results = Results()
    route = [1, 2, 3]
    for index, labels in [(0, [0, 1, 0]), (1, [0, 1, 0]), (0, [0, 1, 0]),
                          (1, [0, 0, 0]), (2, [0, 0, 0])]:
        results.add(Done(index=index, arrived=0.0, latency_s=0.0, items=3),
                    labels, route)
    # Straddled a swap: labeled by two versions, so never kept.
    results.add(Done(index=3, arrived=0.0, latency_s=0.0, items=3,
                     close_version=1), [1, 1, 1], route)
    references = {(0, 0, i): [0, 1, 0] for i in range(3)}
    workload._check(results, references, lambda index: (route, None, 0.0))
    loop = SimpleNamespace(unexpected=["1 trip(s) never reported within 60s"])
    workload._delivered("serve", loop, 6)
    assert loop.unexpected == []
    ledger = workload.out.ledger
    # 3 first occurrences + 2 repeats checked; trip 1 changed on repeat,
    # trip 2 differs from its reference.
    assert ledger.phases["labels"] == [5, 2]
    assert ledger.phases["serve"] == [7, 1]


# ------------------------------------------------------------------ runs
def test_smoke_preset_runs_every_workload_correctly():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    results = [json.loads(line) for line in out.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 3
    assert all(result["correct"] and result["failed"] == 0
               for result in results)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matched_fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
