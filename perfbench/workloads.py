"""The three workloads, their correctness checks and their metrics.

* ``matched_fleet`` — pre-matched test trips, closed loop, one in-process
  shard: the paper's Fig. 3 / Table 3 setting, where the ``StreamEngine``
  tick and the ``nn`` math do nearly all the work.
* ``raw_fleet`` — raw GPS fixes with a few adjacent pairs swapped, through
  the gateway with shard-placed matching into one in-process shard; a
  closed loop for throughput and an open loop at a fixed rate for latency
  under independent arrivals. Matching dominates.
* ``drift_refresh`` — trips of alternating day-parts into one process
  shard; at every part boundary, with trips still in flight, the
  ``OnlineLearner`` fine-tunes and swaps weights plus a history delta into
  the live service. Transport and the control plane dominate.

The host's speed swings by tens of percent within seconds, so every
end-to-end timing is quoted at a reference host speed: the driver samples
a fixed kernel while it works (:class:`~perfbench.measure.HostPace`), and
each rate is multiplied, each duration divided, by the slowdown sampled
over the window it was measured in. No metric comes from one stretch of
the run either: matched_fleet serves in ``SEGMENTS`` closed-loop
segments, raw_fleet in two longer ones, each followed by an open-loop
segment; every segment is followed by quiesced refreshes (so
``refresh_s`` is measured on every transport), and ``drift_refresh``
refreshes at every one of its many phase boundaries. Rates and latency
percentiles are medians over segments or phases. Only drift_refresh runs
a shard process, beside the driver, so no workload keeps more processes
busy than a 2-core host has cores, and wherever the driver itself does
the program's work its host samples see the speed that work ran at. In a
traced run every other segment (or phase) is traced, and the
untraced/traced rate ratio is the tracing overhead.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.datagen import sample_gps_trace
from repro.eval.metrics import evaluate_labelings
from repro.mapmatching import HMMMapMatcher
from repro.serve.checkpoint import weights_snapshot
from repro.trajectory.models import MatchedTrajectory

from .loops import (CloseOrder, FleetLoop, RawLoop, Refresh, Results, Route,
                    TripCycle, TripLoop, refresh, replay_engine,
                    replay_in_order, replay_matcher)
from .measure import (HostPace, Ledger, completion_rate, median_of,
                      peak_rss_mb, summarize)
from .spans import SpanRecorder
from .stack import Stack, build_stack

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Host-speed samples taken before and after each refresh, which cannot
#: be interrupted for samples.
PACE_SAMPLES = 5
#: Serving segments of matched_fleet (raw_fleet's are fewer and longer),
#: and the quiesced refreshes after each.
SEGMENTS = 4
REFRESHES_PER_SEGMENT = 4
#: Trips in flight in the matched closed loops.
MATCHED_CLIENTS = 128
#: Vehicles in flight in the raw closed loop. The shard returns finished
#: sessions in batches, so a closed loop completes them in waves as wide
#: as itself: 64 vehicles (the ``repro soak`` default) finished in waves
#: of 64 every ~0.9 s, at rates 20% apart from one segment to the next;
#: 16 finish in waves of 16, at a higher rate that holds within 5%.
RAW_CLIENTS = 16
#: Open-loop rate in fixes per second at reference host speed, spread
#: over ``OPEN_LOOP_LANES`` vehicles: about a quarter of the raw
#: closed-loop capacity (~9k fixes/s at reference speed).
#: Nearer capacity, the host's own speed swings turn into queueing and
#: the latency tail stops repeating from run to run.
OPEN_LOOP_RATE = 2500.0
OPEN_LOOP_LANES = 32
#: Share of adjacent raw fixes that arrive swapped.
SWAP_SHARE = 0.02
#: The raw traces are one fixed recording of the test routes (2 m noise);
#: the seed shapes the replay.
GPS_NOISE_M = 2.0
RAW_RECORDING_SEED = 2023
#: Trips per fine-tuning round.
FINE_TUNE_TRIPS = 32
#: Passes over a day-part's trips between two drift boundaries, and the
#: fine-tuned versions drift_refresh's F1 is computed over.
DRIFT_PASSES = 8
DRIFT_F1_VERSIONS = 2
#: Seconds either side of a session's end whose host samples quote its
#: latency.
LATENCY_PACE_S = 0.5
#: Sessions each open-loop segment of raw_fleet is sized to start (with a
#: 1.2 margin): enough for its p90 to rest on 25 samples beyond it; a
#: smoke run starts only the 100 the percentile rule needs.
MIN_OPEN_SESSIONS = 250
SMOKE_OPEN_SESSIONS = 100
DRAIN_TIMEOUT_S = 60.0
#: ``ShardStats`` counters summed over the serving windows.
SHARD_COUNTERS = ("points_processed", "ticks", "cache_hits", "cache_misses",
                  "busy_seconds")

#: Root spans of the served path; ``driver.replay*`` roots are the
#: standalone replays of the traced run.
SERVED_ROOTS = ("driver.serve", "driver.refresh")
#: Layers of the served-path table; ``idle`` is the driver asleep while
#: shards work or the open-loop schedule waits, ``driver`` its own
#: bookkeeping (the uncovered share).
LAYERS = ("driver", "idle", "ingest", "serve", "core", "history")
#: Per-layer metrics of layers a workload does not load.
PER_LAYER_DEFAULTS = (
    "ingest.dropped_share", "mapmatching.standalone_share",
    "mapmatching.forced_commit_share", "mapmatching.distance_cache_hit_rate",
    "mapmatching.commit_lag_points.p50", "mapmatching.commit_lag_points.max",
)

References = Dict[Tuple[int, int, int], List[int]]


@dataclass
class Outcome:
    """What one workload run measured, checked and wants printed."""

    metrics: Dict[str, float] = field(default_factory=dict)
    ledger: Ledger = field(default_factory=Ledger)
    lines: List[str] = field(default_factory=list)


class Workload:
    """Shared plumbing: set-up, refreshes, service counters, checks."""

    name = ""
    backend = "inprocess"
    shards = 1
    raw = False
    segments = SEGMENTS
    #: Share of a closed-loop segment treated as warm-up: completions
    #: before it are left out of the rate and the latencies.
    warmup = 0.1

    def __init__(self, seed: int, seconds: float, trace: bool,
                 import_s: float, smoke: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.import_s = import_s
        #: A smoke run sets up once and sizes raw_fleet's open loop for
        #: the percentile rule alone.
        self.setups = 1 if smoke else SETUPS
        self.open_sessions = (SMOKE_OPEN_SESSIONS if smoke
                              else MIN_OPEN_SESSIONS)
        self.rng = np.random.default_rng(seed)
        self.recorder = SpanRecorder(enabled=False)
        self.pace = HostPace()
        #: The host slowdown of every measured window, for the report.
        self.slowdowns: List[float] = []
        self.out = Outcome()
        self.refreshes: List[Refresh] = []
        self.serve_walls: List[Tuple[float, float]] = []
        #: Per shard, the ``SHARD_COUNTERS`` deltas over ``serve_walls``.
        self.shard_work = np.zeros((self.shards, len(SHARD_COUNTERS)))
        #: Rates of untraced and traced segments (or phases).
        self.rates: Dict[bool, List[float]] = {False: [], True: []}
        #: Weights and history of every model version that served.
        self.versions: Dict[int, tuple] = {}
        #: Items completed in the measured windows, and their wall (see
        #: :meth:`_closed_segments`).
        self.served_items = 0
        self.warm_wall = 0.0

    # ----------------------------------------------------------- lifecycle
    def run(self) -> Outcome:
        stack = self._set_up()
        try:
            stack.learner.attach_service(stack.service)
            self.serve(stack)
            self.recorder.enabled = self.trace
            self.out.metrics["host.slowdown"] = self.slowdown
            self._setup_metrics()
            self._after = stack.service.metrics()
            self._service_metrics(stack)
            if self.trace:
                self._replays(stack)
        finally:
            stack.close()
        self.out.metrics["peak_rss_mb"] = peak_rss_mb(stack.workers)
        if self.trace:
            self._layer_table()
        return self.out

    def _set_up(self) -> Stack:
        """Build the stack ``setups`` times and keep the last; only one is
        alive at a time, so set-up repeats do not inflate peak memory."""
        steps = ("city_s", "train_s", "service_start_s", "setup_s")
        self.setup_timings = {step: [] for step in steps}
        for repeat in range(self.setups):
            stack = build_stack(self.backend, self.shards, self.raw)
            for step in steps:
                self.setup_timings[step].append(getattr(stack, step))
            if repeat < self.setups - 1:
                stack.close()
                stack = None
        return stack

    def _setup_metrics(self) -> None:
        """Set-up steps as measured: set-up cannot be interrupted for host
        samples, and neither bursts of samples around it nor the whole
        run's slowdown made ``setup_s`` steadier."""
        timings = self.setup_timings
        metrics = self.out.metrics
        for step in ("city_s", "train_s", "service_start_s"):
            metrics[f"setup.{step}"] = median_of(step, timings[step], 1)
        metrics["setup_s"] = self.import_s + median_of(
            "setup_s", timings["setup_s"], 1)
        self.out.lines.append(
            f"set-up x{self.setups}: " + ", ".join(
                f"{seconds:.3f}s" for seconds in timings["setup_s"])
            + f" (+{self.import_s:.3f}s imports)")

    def serve(self, stack: Stack) -> None:
        raise NotImplementedError

    def _traced(self, segment: int) -> bool:
        """Trace every other segment of a traced run."""
        self.recorder.enabled = self.trace and segment % 2 == 1
        return self.recorder.enabled

    def _report_rate(self) -> None:
        """``points_per_s``: the median over segments (untraced ones when
        the run is traced), plus the tracing overhead."""
        metrics = self.out.metrics
        untraced, traced = self.rates[False], self.rates[True]
        metrics["points_per_s"] = median_of("segment rates", untraced, 1)
        self.out.lines.append(
            "segment rates at reference speed: "
            + " ".join(f"{rate:.0f}" for rate in untraced)
            + (" | traced: " + " ".join(f"{rate:.0f}" for rate in traced)
               if traced else ""))
        self.out.lines.append(
            "host slowdown per window: "
            + " ".join(f"{slow:.2f}" for slow in self.slowdowns))
        if self.trace:
            metrics["trace.overhead_ratio"] = (
                metrics["points_per_s"]
                / median_of("traced segment rates", traced, 1))

    @property
    def slowdown(self) -> float:
        """The host slowdown over every sample of the run."""
        return self.pace.slowdown([(0.0, float("inf"))])

    def _slowdown(self, start: float, end: float) -> float:
        """The host slowdown over a measured window, kept for the report."""
        self.slowdowns.append(self.pace.slowdown([(start, end)]))
        return self.slowdowns[-1]

    def _shard_stats(self, stack: Stack) -> list:
        with self.recorder.span("serve.metrics"):
            return stack.service.metrics().shards

    def _served_window(self, stack: Stack, before: list, start: float,
                       end: float) -> None:
        """Record one serving window: its wall, and the shard work done in
        it (``before`` is :meth:`_shard_stats` taken at ``start``)."""
        after = self._shard_stats(stack)
        self.serve_walls.append((start, end))
        self.shard_work += [[getattr(a, name) - getattr(b, name)
                             for name in SHARD_COUNTERS]
                            for b, a in zip(before, after)]

    # ----------------------------------------------------------- refreshes
    def _remember(self, stack: Stack, version: int) -> None:
        """Keep the serving version's weights and history for the check.

        Taken before a refresh fine-tunes the learner's model in place; the
        weights are a copy, the history snapshot is immutable.
        """
        model = stack.learner.model
        self.versions[version] = (weights_snapshot(model),
                                  model.pipeline.history)

    def _refresh(self, stack: Stack) -> None:
        """One part boundary: fine-tune on the next part and swap."""
        part = (len(self.refreshes) + 1) % len(stack.train_parts)
        started = time.perf_counter()
        self.pace.sample(PACE_SAMPLES)
        record = refresh(stack.learner, self.recorder, part,
                         stack.train_parts[part][:FINE_TUNE_TRIPS])
        self.pace.sample(PACE_SAMPLES)
        slow = self.pace.slowdown([(started, time.perf_counter())])
        self.refreshes.append(Refresh(wall_s=record.wall_s / slow,
                                      fine_tune_s=record.fine_tune_s / slow))
        self.out.ledger.attempt("refresh")

    def _closed_segments(self, stack: Stack, loop: FleetLoop,
                         step: Callable[[], None], segment_s: float,
                         root: str, phase: str,
                         after: Callable[[int], None] = lambda segment: None
                         ) -> List[List[float]]:
        """:attr:`segments` closed-loop segments, each drained, then ``after``
        (given the segment's index) and ``REFRESHES_PER_SEGMENT`` quiesced
        refreshes.

        ``step`` runs one round of ``loop``. Records each segment's wall
        and rate, and counts its deliveries under ``phase``; returns, per
        segment, the latencies of the results that arrived after its
        warm-up and before its admission ended, with their items in
        :attr:`served_items` and their wall in :attr:`warm_wall`.
        """
        latencies: List[List[float]] = []
        for segment in range(self.segments):
            traced = self._traced(segment)
            self._remember(stack, loop.version)
            with self.recorder.span(root):
                before = self._shard_stats(stack)
                start = time.perf_counter()
                while time.perf_counter() < start + segment_s:
                    step()
                    self.pace.poll()
                end = time.perf_counter()
                self._served_window(stack, before, start, end)
                loop.drain(DRAIN_TIMEOUT_S)
            done = loop.take()
            self._delivered(phase, loop, len(done))
            settled = start + self.warmup * (end - start)
            window = [d for d in done if settled <= d.arrived < end]
            slow = self._slowdown(settled, end)
            self.rates[traced].append(slow * completion_rate(
                [(d.arrived, d.items) for d in window], settled, end))
            latencies.append([d.latency_s / slow for d in window])
            self.served_items += sum(d.items for d in window)
            self.warm_wall += end - settled
            after(segment)
            with self.recorder.span("driver.refresh"):
                for _ in range(REFRESHES_PER_SEGMENT):
                    self._refresh(stack)
                    loop.version += 1
        return latencies

    def _refresh_metrics(self) -> None:
        metrics = self.out.metrics
        walls = [r.wall_s for r in self.refreshes]
        metrics["refresh_s.p50"] = median_of("refresh_s", walls, 3)
        metrics["core.fine_tune_s"] = median_of(
            "fine_tune_s", [r.fine_tune_s for r in self.refreshes], 3)
        metrics["history.swap_ms"] = 1e3 * median_of(
            "swap", [r.wall_s - r.fine_tune_s for r in self.refreshes], 3)
        self.out.lines.append(
            f"refresh_s: p50 {metrics['refresh_s.p50']:.4g} s over "
            f"{len(walls)} boundaries (fine-tune p50 "
            f"{metrics['core.fine_tune_s']:.4g} s, swap p50 "
            f"{metrics['history.swap_ms']:.4g} ms), each at the host "
            "slowdown sampled around it")

    # ------------------------------------------------------------- checks
    def _references(self, stack: Stack, closes: CloseOrder,
                    route_of: Callable[[int], Route]) -> References:
        """``{(version, shard, index): labels}`` of fresh engines of each
        served version, fed in each shard's close order the trips opened
        and closed under it."""
        references: References = {}
        for version, (weights, history) in self.versions.items():
            expected = replay_in_order(
                stack.learner.model, closes.first(version),
                route_of, weights=weights, history=history)
            for (shard, index), labels in expected.items():
                references[(version, shard, index)] = labels
        return references

    def _delivered(self, phase: str, loop: FleetLoop, count: int) -> None:
        """Count ``count`` results delivered in a phase, and the delivery
        failures ``loop`` noted since the last count (results lost,
        unexpected or late past the drain timeout)."""
        ledger = self.out.ledger
        ledger.attempt(phase, count + len(loop.unexpected))
        for problem in loop.unexpected:
            ledger.fail(phase, problem)
        loop.unexpected.clear()

    def _check(self, results: Results, references: References,
               route_of: Callable[[int], Route]) -> None:
        """Every kept first occurrence equals its reference, and every
        repeat equalled its first occurrence; count the base.

        A drift stream that straddled a boundary has no reference: its
        points were labeled by two model versions.
        """
        ledger = self.out.ledger
        ledger.attempt("labels", len(results.first) + results.repeats)
        for version, shard, index in results.mismatched:
            ledger.fail("labels", f"pool trip {index} labeled differently "
                                  f"on repeat (version {version}, shard "
                                  f"{shard})")
        for key, (labels, segments) in results.first.items():
            if (labels != references[key]
                    or segments != route_of(key[2])[0]):
                ledger.fail("labels", f"pool trip {key[2]}: labels differ "
                                      "from the reference")
        self.out.lines.append(
            f"labels: {len(results.first)} (version, shard, trip) results "
            f"checked against the reference, {results.repeats} repeats "
            "against their first occurrence")

    def _canonical(self, stack: Stack, route_of: Callable[[int], Route],
                   indices: Sequence[int], version: int,
                   references: References) -> List[List[int]]:
        """Labels of a fresh engine of ``version`` fed ``indices`` in pool
        order.

        The check compares served labels with replays in each shard's own
        close order, because labels of SD pairs without history depend on
        which trip of the pair a shard saw first. This replay fixes that
        order; the line it prints counts the served ``(shard, trip)``
        labels it disagrees with.
        """
        weights, history = self.versions[version]
        labels = replay_in_order(stack.learner.model, {0: list(indices)},
                                 route_of, weights=weights, history=history)
        compared = [(index, served) for (v, _, index), served
                    in references.items()
                    if v == version and (0, index) in labels]
        differing = sum(1 for index, served in compared
                        if served != labels[(0, index)])
        self.out.lines.append(
            f"order-dependent labels (version {version}): {differing} of "
            f"{len(compared)} served (shard, trip) labels differ from the "
            "pool-order replay")
        return [labels[(0, index)] for index in indices]

    def _quality(self, what: str, truth_of: Callable[[int], List[int]],
                 indices: Sequence[int], canonical: Sequence[Sequence[int]],
                 results: Results, versions: Sequence[int]) -> None:
        """Table-3 F1 / TF1 of the canonical labels, served F1 beside it.

        ``f1`` and ``tf1`` come from :meth:`_canonical` labels of
        ``indices``, so they repeat across seeds; the F1 of the labels
        ``versions`` served (each (shard, trip) once), which also moves
        with the arrival order, is printed next to them.
        """
        report = evaluate_labelings([truth_of(i) for i in indices],
                                    canonical)
        self.out.metrics["f1"] = report.f1
        self.out.metrics["tf1"] = report.t_f1
        served = [(key[2], labels) for key, (labels, _)
                  in results.first.items() if key[0] in versions]
        served_report = evaluate_labelings(
            [truth_of(index) for index, _ in served],
            [labels for _, labels in served])
        self.out.lines.append(
            f"quality over {what}: F1 {report.f1:.4f}, TF1 "
            f"{report.t_f1:.4f} ({report.num_ground_truth} true / "
            f"{report.num_detected} detected anomalous subtrajectories); "
            f"as served: F1 {served_report.f1:.4f}, TF1 "
            f"{served_report.t_f1:.4f} over {len(served)} results")

    # ------------------------------------------------------------- metrics
    def _latency(self, groups: Sequence[Sequence[float]], what: str,
                 parts: str = "segments") -> None:
        """``latency_ms.p50`` / ``.p90``: the medians, over segments (or
        phases), of each one's p50 and p90, so a brief slow spell of the
        host moves one segment's tail rather than the metric. Every
        segment must support its own p90 (ten samples beyond it)."""
        summaries = [summarize(f"{what}, segment {i}",
                               [1e3 * s for s in group], "ms")
                     for i, group in enumerate(groups)]
        metrics = self.out.metrics
        metrics["latency_ms.p50"] = median_of(
            what, [s.median for s in summaries], 1)
        metrics["latency_ms.p90"] = median_of(
            what, [s.tail for s in summaries], 1)
        pooled = summarize(what, [1e3 * s for group in groups
                                  for s in group], "ms")
        self.out.lines.append(
            f"{what}: p50 {metrics['latency_ms.p50']:.4g} ms, p90 "
            f"{metrics['latency_ms.p90']:.4g} ms (medians over "
            f"{len(summaries)} {parts}: p50 "
            + "/".join(f"{s.median:.3g}" for s in summaries) + ", p90 "
            + "/".join(f"{s.tail:.3g}" for s in summaries) + ", n="
            + "/".join(str(s.count) for s in summaries) + ")")
        self.out.lines.append("  pooled " + pooled.format())

    def _service_metrics(self, stack: Stack) -> None:
        """Shard shares over the serving windows; whole-run counters."""
        after = self._after
        metrics = self.out.metrics
        points, ticks, hits, misses, _ = self.shard_work.sum(axis=0)
        busy = self.shard_work[:, SHARD_COUNTERS.index("busy_seconds")]
        wall = sum(end - start for start, end in self.serve_walls)
        metrics["core.points_per_tick"] = points / ticks if ticks else 0.0
        metrics["core.feature_cache_hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        metrics["serve.shard_busy_share"] = float(busy.mean()) / wall
        attempted = after.accepted_ingests + after.rejected_ingests
        metrics["serve.rejected_ingest_share"] = (
            after.rejected_ingests / attempted if attempted else 0.0)
        metrics["serve.bus_redelivered"] = float(
            sum(bus.redelivered for bus in after.bus))
        metrics["serve.bus_gaps"] = float(after.results_gaps)
        swaps = after.delta_swaps + after.full_swaps
        metrics["history.delta_swap_share"] = (
            after.delta_swaps / swaps if swaps else 0.0)
        metrics["history.swap_payload_bytes"] = float(
            after.swap_payload_bytes / swaps if swaps else 0.0)
        if after.results_gaps:
            self.out.ledger.fail("bus", f"{after.results_gaps} gap(s)",
                                 after.results_gaps)
        waits = stack.service.queue_wait_latency()
        if waits.count:
            self.out.lines.append(
                f"shard queue wait: p50 {waits.p50 * 1e3:.4g} ms, p99 "
                f"{waits.p99 * 1e3:.4g} ms (n={waits.count})")
        self.out.lines.append(
            f"shards: {points:.0f} points in {ticks:.0f} ticks, busy "
            + ", ".join(f"{b:.2f}s" for b in busy)
            + f" of {wall:.2f}s serving")
        self._refresh_metrics()

    # -------------------------------------------------------------- traced
    def _replays(self, stack: Stack) -> None:
        raise NotImplementedError

    def _engine_replay(self, model, routes: Sequence[Route], served: float,
                       wall: float, concurrency: int) -> None:
        """Standalone ``StreamEngine`` replay: core self time directly.

        ``served`` points were labeled by the service in ``wall`` seconds;
        ``core.standalone_share`` is the share of that wall the engine
        alone would take at the replay's cost.
        """
        recorder = self.recorder
        with recorder.span("driver.replay_engine"):
            replay = replay_engine(model.stream_engine(), routes, recorder,
                                   concurrency)
        core_s = recorder.self_times(
            roots=("driver.replay_engine",)).get("core", (0.0, 0))[0]
        finalize_s = sum(end - start for name, start, end, _, _
                         in recorder.spans if name == "core.finalize")
        metrics = self.out.metrics
        metrics["core.us_per_point"] = 1e6 * core_s / replay.points
        metrics["core.finalize_us_per_stream"] = (
            1e6 * finalize_s / replay.streams)
        metrics["core.ready_share"] = (
            replay.ticked_points / replay.ready_candidates)
        metrics["core.standalone_share"] = (
            core_s / replay.points * served / wall)
        self.out.lines.append(
            f"standalone engine: {replay.points} points, "
            f"{metrics['core.us_per_point']:.3f} us/point, tick returned "
            f"{replay.ticked_points} of {replay.ready_candidates} stream "
            f"slots, finalize {metrics['core.finalize_us_per_stream']:.1f} "
            "us/stream")

    def _layer_table(self) -> None:
        """Per-layer self time of the traced serving, plus overhead."""
        recorder = self.recorder
        served = recorder.self_times(roots=SERVED_ROOTS)
        served_wall = recorder.wall(roots=SERVED_ROOTS)
        metrics = self.out.metrics
        lines = self.out.lines
        lines.append(f"per-layer self time, traced serving wall "
                     f"{served_wall:.3f}s:")
        for layer in LAYERS:
            seconds, calls = served.get(layer, (0.0, 0))
            metrics[f"self_share.{layer}"] = seconds / served_wall
            lines.append(f"  {layer:<12} {seconds:9.4f}s "
                         f"{seconds / served_wall:7.2%}  {calls} spans")
        covered = 1.0 - metrics["self_share.driver"]
        metrics["trace.covered_share"] = covered
        lines.append(f"  covered by layers: {covered:.2%} "
                     "(driver self time is the uncovered share)")
        lines.append(f"  tracing overhead: untraced/traced rate "
                     f"{metrics['trace.overhead_ratio']:.3f}")
        lines.append("standalone replays, self time:")
        replays = recorder.self_times(roots=("driver.replay",))
        for layer, (seconds, calls) in sorted(replays.items()):
            lines.append(f"  {layer:<12} {seconds:9.4f}s  {calls} spans")
        for name in PER_LAYER_DEFAULTS:
            metrics.setdefault(name, 0.0)


def trip_route(trip: MatchedTrajectory) -> Route:
    return trip.segments, trip.destination, trip.start_time_s


# ------------------------------------------------------------------ matched
class MatchedFleet(Workload):
    name = "matched_fleet"
    backend = "inprocess"
    shards = 1

    def serve(self, stack: Stack) -> None:
        pool = stack.test_parts[0]
        loop = TripLoop(stack.service, self.recorder, pool, MATCHED_CLIENTS)
        cycle = TripCycle(len(pool), self.rng)
        latencies = self._closed_segments(
            stack, loop, lambda: loop.round(cycle),
            0.85 * self.seconds / SEGMENTS, "driver.serve", "serve")
        self._report_rate()
        self._latency(latencies, "trip latency")
        route_of = lambda index: trip_route(pool[index])  # noqa: E731
        references = self._references(stack, loop.closes, route_of)
        self._check(loop.results, references, route_of)
        indices = range(len(pool))
        self._quality(f"{len(pool)} test trips",
                      lambda index: pool[index].labels, indices,
                      self._canonical(stack, route_of, indices, 0,
                                      references),
                      loop.results, (0,))

    def _replays(self, stack: Stack) -> None:
        self._engine_replay(
            stack.learner.model,
            [trip_route(trip) for trip in stack.test_parts[0]],
            self.served_items, self.warm_wall, MATCHED_CLIENTS)


# ---------------------------------------------------------------------- raw
def projected_truth(truth: MatchedTrajectory, segments: Sequence[int]
                    ) -> List[int]:
    """Ground truth on a matched route: a segment is anomalous when the
    true trip drove it as part of an anomalous subtrajectory."""
    if truth.labels is None:
        raise RuntimeError(f"test trip {truth.trajectory_id} has no labels")
    anomalous = {segment for segment, label
                 in zip(truth.segments, truth.labels) if label}
    return [1 if segment in anomalous else 0 for segment in segments]


class RawFleet(Workload):
    name = "raw_fleet"
    backend = "inprocess"
    shards = 1
    raw = True
    #: Two long closed segments, each followed by an open-loop one; a
    #: quarter of each is warm-up, as the loop refills after every drain.
    segments = 2
    warmup = 0.25

    def _recording(self, stack: Stack) -> RawLoop:
        """The fixed raw recording of the part-0 test routes, its offline
        matches, and the loop that replays it."""
        rng = np.random.default_rng(RAW_RECORDING_SEED)
        traces = [sample_gps_trace(stack.network, trip.segments,
                                   trip.start_time_s, rng,
                                   gps_noise_m=GPS_NOISE_M, trajectory_id=i)
                  for i, trip in enumerate(stack.test_parts[0])]
        matcher = HMMMapMatcher(stack.network)
        self._routes: List[Route] = []
        for trace in traces:
            match = matcher.match(trace)
            if not match.succeeded:
                raise RuntimeError(f"trace {trace.trajectory_id} does not "
                                   "match offline")
            self._routes.append((match.matched.segments, None,
                                 match.matched.start_time_s))
        return RawLoop(stack.gateway, self.recorder, traces, self.rng,
                       SWAP_SHARE)

    def serve(self, stack: Stack) -> None:
        loop = self._raw_loop = self._recording(stack)
        traces = loop.pool
        cycle = TripCycle(len(traces), self.rng)
        mean_fixes = sum(len(t.points) for t in traces) / len(traces)
        opened: List[List[float]] = []
        measured: List[List[float]] = []
        rates: List[float] = []

        def open_segment(segment: int) -> None:
            """An open-loop segment after every closed one.

            Its rate is ``OPEN_LOOP_RATE`` at reference speed: the schedule
            slows with the host, as sampled over the closed segment just
            before, so the load, and the queueing in the latency, does not
            rise and fall with the host's speed. It admits for long enough
            to start ``open_sessions`` sessions, with a margin.
            """
            rates.append(OPEN_LOOP_RATE / self.slowdowns[-1])
            open_s = max(0.5 * self.seconds / self.segments,
                         1.2 * self.open_sessions * mean_fixes / rates[-1])
            with self.recorder.span("driver.serve_open"):
                before = self._shard_stats(stack)
                start = time.perf_counter()
                loop.open_loop(cycle, rates[-1], OPEN_LOOP_LANES, open_s,
                               DRAIN_TIMEOUT_S, self.pace.poll)
                end = time.perf_counter()
                self._served_window(stack, before, start, end)
            done = loop.take()
            self._delivered("open loop", loop, len(done))
            self._slowdown(start, end)
            # The host can change speed within a segment, so each latency
            # is quoted at the slowdown sampled around its session's end.
            slows = self.pace.around([d.arrived for d in done],
                                     LATENCY_PACE_S)
            opened.append([d.latency_s / slow
                           for d, slow in zip(done, slows)])
            measured.append([d.latency_s for d in done])

        # Raw sessions are ~85 fixes long: a closed segment shorter than a
        # few session lengths would measure its own ramp.
        self._closed_segments(
            stack, loop, lambda: loop.closed_round(cycle, RAW_CLIENTS),
            max(0.4 * self.seconds / self.segments, 2.0),
            "driver.serve_closed",
            "closed loop", after=open_segment)
        self._report_rate()
        self._latency(opened,
                      f"session latency at {OPEN_LOOP_RATE:.0f} fixes/s "
                      "(" + "/".join(f"{rate:.0f}" for rate in rates)
                      + " as run)")
        late = summarize("driver lateness", [1e3 * s for s in loop.late_s],
                         "ms")
        self.out.lines.append(late.format())
        self.out.lines.append(
            "  as measured: " + summarize(
                "session latency", [1e3 * s for group in measured
                                    for s in group], "ms").format())
        self.out.lines.append(
            f"open loop: {sum(map(len, opened))} sessions delivered; "
            f"{loop.fixes_swapped} of {loop.fixes_sent} fixes sent swapped")
        route_of = self._routes.__getitem__
        references = self._references(stack, loop.closes, route_of)
        self._check(loop.results, references, route_of)
        pool = stack.test_parts[0]
        indices = range(len(traces))
        self._quality(f"{len(pool)} raw sessions (truth projected onto the "
                      "matched route)",
                      lambda i: projected_truth(pool[i], self._routes[i][0]),
                      indices,
                      self._canonical(stack, route_of, indices, 0,
                                      references),
                      loop.results, (0,))
        self._gateway_metrics(stack)

    def _gateway_metrics(self, stack: Stack) -> None:
        stats = stack.gateway.stats()
        lag = stack.gateway.commit_latency()
        metrics = self.out.metrics
        drops = (stats.late_dropped + stats.duplicates_dropped
                 + stats.unmatched_dropped)
        metrics["ingest.dropped_share"] = (
            drops / stats.raw_points if stats.raw_points else 0.0)
        metrics["mapmatching.forced_commit_share"] = (
            stats.forced_commits / stats.commits if stats.commits else 0.0)
        metrics["mapmatching.commit_lag_points.p50"] = float(lag.p50)
        metrics["mapmatching.commit_lag_points.max"] = float(lag.maximum)
        problems = {"fixes dropped": drops,
                    "sessions broken": stats.sessions_broken,
                    "sessions dropped": stats.sessions_dropped,
                    "gap splits": stats.gap_splits}
        self.out.ledger.attempt("gateway", stats.raw_points)
        for what, count in problems.items():
            if count:
                self.out.ledger.fail("gateway", f"{count} {what}", count)
        self.out.lines.append(
            f"gateway: {stats.raw_points} fixes, {drops} dropped, "
            f"{stats.commits} commits ({stats.forced_commits} forced), "
            f"commit lag p50 {lag.p50:.0f} max {lag.maximum} points")

    def _replays(self, stack: Stack) -> None:
        recorder = self.recorder
        traces = self._raw_loop.pool
        with recorder.span("driver.replay_matcher"):
            replay = replay_matcher(stack.network, traces, recorder,
                                    RAW_CLIENTS)
        self.out.ledger.attempt("standalone matcher", replay.sessions)
        for failure in replay.failures:
            self.out.ledger.fail("standalone matcher", failure)
        matcher_s = recorder.self_times(
            roots=("driver.replay_matcher",)).get("mapmatching", (0.0, 0))[0]
        metrics = self.out.metrics
        metrics["mapmatching.standalone_share"] = (
            matcher_s / replay.fixes * self.served_items / self.warm_wall)
        metrics["mapmatching.distance_cache_hit_rate"] = (
            replay.distance_cache_hit_rate)
        self.out.lines.append(
            f"standalone matcher: {replay.fixes} fixes, "
            f"{1e6 * matcher_s / replay.fixes:.1f} us/fix, distance cache "
            f"hit rate {replay.distance_cache_hit_rate:.3f}")
        # The service served fixes; the engine sees their matched points.
        points_per_fix = (sum(len(route[0]) for route in self._routes)
                          / sum(len(trace.points) for trace in traces))
        self._engine_replay(stack.learner.model, self._routes,
                            self.served_items * points_per_fix,
                            self.warm_wall, RAW_CLIENTS)


# -------------------------------------------------------------------- drift
class DriftRefresh(Workload):
    name = "drift_refresh"
    backend = "process"
    shards = 1

    def serve(self, stack: Stack) -> None:
        """Serve day-parts in turn until the run's time is up.

        Each phase admits ``DRIFT_PASSES`` shuffled passes over its part's
        test trips; once the last is admitted the boundary fires with the
        phase's tail still in flight: the learner fine-tunes on the next
        part and swaps weights and history into the live service. Phase
        rates exclude boundary work.
        """
        self._pool = pool = [trip for part in stack.test_parts
                             for trip in part]
        offsets = np.cumsum([0] + [len(p) for p in stack.test_parts[:-1]])
        parts = len(stack.test_parts)
        loop = TripLoop(stack.service, self.recorder, pool, MATCHED_CLIENTS)
        deadline = time.perf_counter() + 0.9 * self.seconds
        latencies: List[List[float]] = []
        trips = 0
        phase = 0
        while True:
            traced = self._traced(phase)
            self._remember(stack, loop.version)
            part = loop.version % parts
            backlog = deque()
            for _ in range(DRIFT_PASSES):
                backlog.extend(int(offsets[part]) + int(i) for i in
                               self.rng.permutation(
                                   len(stack.test_parts[part])))
            with self.recorder.span("driver.serve"):
                before = self._shard_stats(stack)
                start = time.perf_counter()
                while backlog:
                    loop.round(lambda: backlog.popleft() if backlog
                               else None)
                    self.pace.poll()
                end = time.perf_counter()
                self._served_window(stack, before, start, end)
                # The driver polls only inside the phase, so everything
                # delivered since the last take arrived in it.
                in_phase = loop.take()
                self._delivered("serve", loop, len(in_phase))
                trips += len(in_phase)
                items = sum(d.items for d in in_phase)
                self.served_items += items
                slow = self._slowdown(start, end)
                latencies.append([d.latency_s / slow for d in in_phase])
                self.rates[traced].append(slow * items / (end - start))
                if end >= deadline and phase > DRIFT_F1_VERSIONS:
                    loop.drain(DRAIN_TIMEOUT_S)
                    tail = len(loop.take())
                    self._delivered("serve", loop, tail)
                    trips += tail
                    break
                self._refresh(stack)
                loop.version += 1
            phase += 1
        self._report_rate()
        self.out.lines.append(
            f"{len(self.serve_walls)} phases, {len(self.refreshes)} live "
            f"boundaries, {trips} trips")
        self._latency(latencies, "trip latency", "phases")
        route_of = lambda index: trip_route(pool[index])  # noqa: E731
        references = self._references(stack, loop.closes, route_of)
        self._check(loop.results, references, route_of)
        self._drift_quality(stack, loop, offsets, references)

    def _drift_quality(self, stack: Stack, loop: TripLoop,
                       offsets: np.ndarray, references: References) -> None:
        """F1 of the first ``DRIFT_F1_VERSIONS`` fine-tuned versions, each
        on the day-part it served."""
        pool = self._pool
        versions = range(1, 1 + DRIFT_F1_VERSIONS)
        indices: List[int] = []
        canonical: List[List[int]] = []
        for version in versions:
            part = version % len(stack.test_parts)
            start = int(offsets[part])
            part_indices = range(start, start + len(stack.test_parts[part]))
            indices.extend(part_indices)
            canonical.extend(self._canonical(
                stack, lambda index: trip_route(pool[index]), part_indices,
                version, references))
        self._quality(f"{len(indices)} test trips of the first "
                      f"{DRIFT_F1_VERSIONS} fine-tuned versions",
                      lambda index: pool[index].labels, indices, canonical,
                      loop.results, versions)

    def _replays(self, stack: Stack) -> None:
        wall = sum(end - start for start, end in self.serve_walls)
        self._engine_replay(stack.learner.model,
                            [trip_route(trip) for trip in self._pool],
                            self.served_items, wall, MATCHED_CLIENTS)


WORKLOADS = {cls.name: cls for cls in (MatchedFleet, RawFleet, DriftRefresh)}
