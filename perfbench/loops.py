"""The single-threaded drivers: closed loops, the open loop, refreshes and
the standalone replays of the traced run.

Every call into the program goes through a span named after the layer it
enters (``serve``, ``ingest``, ``history``, ``core``, ``mapmatching``),
and every sleep while shards work or a schedule waits goes through an
``idle`` span, so one recorder yields the per-layer self-time split.
Drivers record what they observe — completion times, latencies, labels —
and leave judging it to the workload.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import GatewayConfig
from repro.exceptions import MatchBreakError, UnmatchablePointError
from repro.history.store import snapshot_from_bytes, snapshot_to_bytes
from repro.mapmatching import HMMMapMatcher, OnlineMapMatcher
from repro.serve.backends import IngestEvent
from repro.serve.checkpoint import clone_model
from repro.trajectory.models import GPSPoint, MatchedTrajectory, RawTrajectory

from .spans import SpanRecorder

#: Driver sleep when a round neither sent nor received anything (the
#: process shards work on their own clock).
IDLE_WAIT_S = 0.0002
#: Longest open-loop wait, so arriving results are stamped promptly.
OPEN_LOOP_POLL_S = 0.0005


@dataclass(slots=True)
class Done:
    """One trip (or raw session) whose labels reached the driver."""

    index: int            # position of the trip in the workload's pool
    arrived: float        # perf_counter when the driver received it
    latency_s: float      # from last input sent (or due) to arrival
    items: int            # input points (matched) or fixes (raw)
    shard: int = 0
    open_version: int = 0
    close_version: int = 0


Key = Tuple[int, int, int]


class Results:
    """Delivered labels, kept once per ``(version, shard, trip)``.

    Under one model version a shard labels every occurrence of a trip
    alike (the first occurrence fixes whatever order-dependent state the
    later ones read), so a repeat is compared with the first occurrence
    on arrival and only first occurrences are kept for the reference
    check. This keeps the driver's memory independent of throughput.
    Streams that straddled a swap, labeled by two versions, are not kept.
    """

    def __init__(self):
        self.first: Dict[Key, Tuple[List[int], List[int]]] = {}
        self.repeats = 0
        self.mismatched: List[Key] = []

    def add(self, done: Done, labels: Sequence[int],
            segments: Sequence[int]) -> None:
        if done.open_version != done.close_version:
            return
        key = (done.open_version, done.shard, done.index)
        result = (list(labels), list(segments))
        known = self.first.setdefault(key, result)
        if known is not result:
            self.repeats += 1
            if known != result:
                self.mismatched.append(key)


class TripCycle:
    """An endless seeded order over a pool: one shuffled pass after another."""

    def __init__(self, pool_size: int, rng: np.random.Generator):
        self._size = pool_size
        self._rng = rng
        self._queue: List[int] = []

    def __call__(self) -> int:
        if not self._queue:
            self._queue = list(self._rng.permutation(self._size))[::-1]
        return int(self._queue.pop())


class CloseOrder:
    """Per model version and shard, the trips opened and closed under that
    version, each once, in the order of its first close (each shard
    finalizes FIFO).

    A repeat adds nothing, so memory is bounded by the versions and the
    pool rather than by throughput.
    """

    def __init__(self):
        self._orders: Dict[int, Dict[int, Dict[int, None]]] = {}

    def add(self, shard: int, index: int, opened: int, closed: int) -> None:
        if opened == closed:
            self._orders.setdefault(opened, {}).setdefault(
                shard, {}).setdefault(index, None)

    def first(self, version: int) -> Dict[int, List[int]]:
        return {shard: list(order) for shard, order
                in self._orders.get(version, {}).items()}


class FleetLoop:
    """What both drivers keep: delivered results, the close order, and
    delivery problems, for the workload to take and judge."""

    def __init__(self, recorder: SpanRecorder, pool: Sequence):
        self.recorder = recorder
        self.pool = pool
        #: The service's model version new trips open (and close) under.
        self.version = 0
        #: Results delivered since the last :meth:`take`.
        self.done: List[Done] = []
        self.results = Results()
        self.unexpected: List[str] = []
        self.closes = CloseOrder()
        self._active: Dict[int, list] = {}
        self._waiting: Dict[int, tuple] = {}
        self._next_vehicle = 0

    @property
    def in_flight(self) -> int:
        return len(self._active) + len(self._waiting)

    def take(self) -> List[Done]:
        """The results delivered since the last call."""
        done, self.done = self.done, []
        return done


class TripLoop(FleetLoop):
    """Closed loop of map-matched trips through a ``DetectionService``.

    ``clients`` trips are in flight at once. Each round sends the next
    point of every active trip as one ``ingest_many``, closes trips whose
    last point went out with ``finalize_async``, pumps, and polls the
    results bus; a client's slot is refilled only when its trip's labels
    arrived, so a slow service receives less load.
    """

    def __init__(self, service, recorder: SpanRecorder, pool:
                 Sequence[MatchedTrajectory], clients: int):
        super().__init__(recorder, pool)
        self.service = service
        self.clients = clients

    def round(self, next_trip: Optional[Callable[[], Optional[int]]]) -> None:
        span = self.recorder.span
        service = self.service
        while next_trip is not None and self.in_flight < self.clients:
            index = next_trip()
            if index is None:
                break
            self._active[self._next_vehicle] = [index, 0, self.version]
            self._next_vehicle += 1
        events: List[IngestEvent] = []
        finishing: List[int] = []
        for vehicle, state in self._active.items():
            index, cursor, _ = state
            trip = self.pool[index]
            if cursor == 0:
                events.append(IngestEvent(
                    vehicle, trip.segments[0], trip.destination,
                    trip.start_time_s, trip.trajectory_id))
            else:
                events.append(IngestEvent(vehicle, trip.segments[cursor],
                                          None, 0.0, None))
            state[1] = cursor + 1
            if cursor + 1 == len(trip.segments):
                finishing.append(vehicle)
        sent = time.perf_counter()
        if events:
            with span("serve.ingest_many"):
                service.ingest_many(events)
        if finishing:
            with span("serve.finalize_async"):
                service.finalize_async(finishing)
            for vehicle in finishing:
                index, _, opened = self._active.pop(vehicle)
                shard = service.shard_for(vehicle)
                self._waiting[vehicle] = (index, sent, shard, opened,
                                          self.version)
                self.closes.add(shard, index, opened, self.version)
        with span("serve.pump"):
            service.pump()
        with span("serve.poll_results"):
            arrived = service.poll_results()
        now = time.perf_counter()
        for envelope in arrived:
            entry = (self._waiting.pop(envelope.key, None)
                     if envelope.kind == "result" else None)
            if entry is None:
                self.unexpected.append(
                    f"unexpected {envelope.kind} envelope for "
                    f"{envelope.key!r}")
                continue
            index, last_sent, shard, opened, closed = entry
            done = Done(index=index, arrived=now, latency_s=now - last_sent,
                        items=len(self.pool[index].segments), shard=shard,
                        open_version=opened, close_version=closed)
            self.done.append(done)
            self.results.add(done, envelope.payload.labels,
                             envelope.payload.trajectory.segments)
        if not events and not arrived:
            with span("idle.wait"):
                time.sleep(IDLE_WAIT_S)

    def drain(self, timeout_s: float) -> None:
        """Run rounds without admitting until every trip has reported."""
        deadline = time.perf_counter() + timeout_s
        while self.in_flight and time.perf_counter() < deadline:
            self.round(None)
        if self.in_flight:
            self.unexpected.append(
                f"{self.in_flight} trip(s) never reported within "
                f"{timeout_s:.0f}s")


def shuffled_fixes(raw: RawTrajectory, rng: np.random.Generator,
                   swap_share: float) -> Tuple[List[GPSPoint], int]:
    """The trace's fixes with a seeded share of adjacent pairs swapped.

    Swapped pairs never overlap, so every fix arrives at most one place
    late — well inside the gateway's reorder window. Returns the fixes in
    arrival order and the number of swaps.
    """
    points = list(raw.points)
    swaps = rng.random(max(len(points) - 1, 0)) < swap_share
    position = swapped = 0
    while position < len(points) - 1:
        if swaps[position]:
            points[position], points[position + 1] = (points[position + 1],
                                                      points[position])
            swapped += 1
            position += 2
        else:
            position += 1
    return points, swapped


class RawLoop(FleetLoop):
    """Raw GPS fixes through a ``GpsGateway`` with bus-delivered sessions.

    :meth:`closed_round` is the closed loop: ``clients`` vehicles, one fix
    per active vehicle per round, ``end`` right after a vehicle's last
    fix, and a slot refilled only when its session arrived — at most one
    per round, so vehicles admitted together do not finish in lockstep.
    :meth:`open_loop` releases fixes on a fixed schedule instead.
    """

    def __init__(self, gateway, recorder: SpanRecorder,
                 pool: Sequence[RawTrajectory], rng: np.random.Generator,
                 swap_share: float):
        # The gateway runs only quiesced refreshes, so every session opens
        # and closes under one model version.
        super().__init__(recorder, pool)
        self.gateway = gateway
        self.rng = rng
        self.swap_share = swap_share
        self.fixes_sent = 0
        self.fixes_swapped = 0
        self.late_s: List[float] = []

    def _start(self, index: int) -> Tuple[int, List[GPSPoint]]:
        vehicle = self._next_vehicle
        self._next_vehicle += 1
        fixes, swapped = shuffled_fixes(self.pool[index], self.rng,
                                        self.swap_share)
        self.fixes_swapped += swapped
        return vehicle, fixes

    def _push(self, vehicle: int, index: int, fix: GPSPoint) -> None:
        with self.recorder.span("ingest.push_point", vehicle):
            completed = self.gateway.push_point(
                vehicle, fix, start_time_s=self.pool[index].start_time_s)
        self.fixes_sent += 1
        if completed:
            self.unexpected.append(
                f"vehicle {vehicle} completed a session mid-trip")

    def _end(self, vehicle: int, index: int, last_due: float) -> None:
        with self.recorder.span("ingest.end", vehicle):
            completed = self.gateway.end(vehicle)
        if completed:
            self.unexpected.append(
                f"vehicle {vehicle} returned sessions synchronously")
        shard = self.gateway.service.shard_for((vehicle, 0))
        self._waiting[vehicle] = (index, last_due, shard)
        self.closes.add(shard, index, self.version, self.version)

    def _collect(self) -> int:
        span = self.recorder.span
        with span("ingest.pump"):
            self.gateway.pump()
        with span("ingest.poll_sessions"):
            sessions = self.gateway.poll_sessions()
        now = time.perf_counter()
        for session in sessions:
            entry = self._waiting.pop(session.vehicle_id, None)
            if entry is None or session.session_key[1] != 0:
                self.unexpected.append(
                    f"unexpected session {session.session_key!r}")
                continue
            index, last_due, shard = entry
            done = Done(index=index, arrived=now, latency_s=now - last_due,
                        items=len(self.pool[index].points), shard=shard,
                        open_version=self.version,
                        close_version=self.version)
            self.done.append(done)
            self.results.add(done, session.result.labels,
                             session.result.trajectory.segments)
        return len(sessions)

    def closed_round(self, next_trip: Optional[Callable[[], int]],
                     clients: int) -> None:
        if next_trip is not None and self.in_flight < clients:
            index = next_trip()
            vehicle, fixes = self._start(index)
            self._active[vehicle] = [index, fixes, 0]
        ended = []
        for vehicle, state in self._active.items():
            index, fixes, cursor = state
            self._push(vehicle, index, fixes[cursor])
            state[2] = cursor + 1
            if cursor + 1 == len(fixes):
                ended.append(vehicle)
        sent = time.perf_counter()
        for vehicle in ended:
            index = self._active.pop(vehicle)[0]
            self._end(vehicle, index, sent)
        if not self._collect() and not self._active:
            with self.recorder.span("idle.wait"):
                time.sleep(IDLE_WAIT_S)

    def drain(self, timeout_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        while self.in_flight and time.perf_counter() < deadline:
            self.closed_round(None, 0)
        if self.in_flight:
            self.unexpected.append(
                f"{self.in_flight} session(s) never reported within "
                f"{timeout_s:.0f}s")

    def open_loop(self, next_trip: Callable[[], int], rate: float,
                  lanes: int, duration_s: float, timeout_s: float,
                  between: Callable[[], None] = lambda: None) -> int:
        """Release fixes on a fixed schedule of ``rate`` fixes per second.

        ``lanes`` vehicles drive back to back, each due one fix every
        ``lanes / rate`` seconds. Lane starts are spread evenly over one
        mean trip, so trips do not end in lockstep, and once all lanes run
        the fleet's fixes are evenly spaced. A lane starts no new trip
        after ``duration_s``; trips already started run to their end on
        schedule. A session's latency is counted from when its last fix
        was *due*, so a stall delays the fixes behind it too; how late each
        fix was released is kept in :attr:`late_s`. ``between`` runs once
        per pass of the loop. Returns the number of sessions started.
        """
        if self.in_flight:
            raise RuntimeError("the open loop needs an idle gateway")
        interval = lanes / rate
        mean_fixes = sum(len(raw.points) for raw in self.pool) / len(self.pool)
        stagger = max(mean_fixes * interval / lanes, 1.0 / rate)
        start = time.perf_counter() + 0.01
        stop_admitting = start + duration_s
        schedule = [(start + lane * stagger, lane) for lane in range(lanes)]
        trips: List[Optional[list]] = [None] * lanes
        started = 0
        deadline = stop_admitting + timeout_s
        while schedule or self._waiting:
            now = time.perf_counter()
            if now > deadline:
                self.unexpected.append(
                    f"open loop: {len(self._waiting)} session(s) never "
                    f"reported within {timeout_s:.0f}s")
                return started
            while schedule and schedule[0][0] <= now:
                due, lane = heapq.heappop(schedule)
                trip = trips[lane]
                if trip is None:
                    if due >= stop_admitting:
                        continue  # the lane retires
                    index = next_trip()
                    vehicle, fixes = self._start(index)
                    trip = trips[lane] = [vehicle, index, fixes, 0]
                    started += 1
                vehicle, index, fixes, cursor = trip
                self.late_s.append(time.perf_counter() - due)
                self._push(vehicle, index, fixes[cursor])
                trip[3] = cursor + 1
                if cursor + 1 == len(fixes):
                    self._end(vehicle, index, due)
                    trips[lane] = None
                heapq.heappush(schedule, (due + interval, lane))
                now = time.perf_counter()
            self._collect()
            between()
            wait = (schedule[0][0] - time.perf_counter() if schedule
                    else IDLE_WAIT_S)
            if wait > 0:
                # Spin rather than sleep: a core left idle between fixes is
                # lent to the host's other tenants, and getting it back
                # costs each wake-up a varying delay.
                until = time.perf_counter() + min(wait, OPEN_LOOP_POLL_S)
                with self.recorder.span("idle.wait"):
                    while time.perf_counter() < until:
                        pass
        return started


@dataclass
class Refresh:
    """One ``observe_part`` boundary as the driver saw it."""

    wall_s: float
    fine_tune_s: float


def refresh(learner, recorder: SpanRecorder, part: int,
            trips: Sequence[MatchedTrajectory]) -> Refresh:
    """Fine-tune on ``trips`` and push weights plus history to every
    attached service; the fine-tuning seconds ``FineTuneRecord`` reports
    are recorded as a ``core`` child of the ``history`` span."""
    with recorder.span("history.observe_part", part):
        started = time.perf_counter()
        record = learner.observe_part(part, trips)
        ended = time.perf_counter()
        recorder.add("core.fine_tune", started, started + record.seconds,
                     part)
    return Refresh(wall_s=ended - started, fine_tune_s=record.seconds)


Route = Tuple[List[int], Optional[int], float]


def replay_in_order(model, sequences: Dict[int, Sequence[int]],
                    route_of: Callable[[int], Route], weights,
                    history) -> Dict[Tuple[int, int], List[int]]:
    """Reference labels: per shard, a fresh engine fed whole trips in the
    order that shard finalized them.

    Each engine serves ``weights`` (a ``weights_snapshot``) against its own
    deserialized copy of ``history``, so it starts from the empty
    derived-state caches a shard has after a start or a swap, and labels
    that depend on which trip of an SD pair a shard saw first are
    reproduced too. ``model`` is only cloned for its architecture and
    vocabulary. Returns ``{(shard, index): labels}``.
    """
    labels: Dict[Tuple[int, int], List[int]] = {}
    template = clone_model(model)
    blob = snapshot_to_bytes(history)
    for shard, indices in sequences.items():
        engine = template.stream_engine()
        engine.load_weights(weights["rsrnet"], weights["asdnet"])
        engine.load_history(snapshot_from_bytes(blob))
        for index in indices:
            segments, destination, start_time_s = route_of(index)
            engine.ingest(index, segments[0], destination=destination,
                          start_time_s=start_time_s)
            for segment in segments[1:]:
                engine.ingest(index, segment)
        # One finalize_many resolves the deferred streams' normal routes in
        # close order, then drains every stream through shared ticks.
        for index, result in zip(indices, engine.finalize_many(indices)):
            labels[(shard, index)] = list(result.labels)
    return labels


# ------------------------------------------------------ standalone replays
@dataclass
class EngineReplay:
    """Counts of a fleet replay straight through ``model.stream_engine()``."""

    points: int = 0
    streams: int = 0
    ticked_points: int = 0
    ready_candidates: int = 0


def replay_engine(engine, routes: Sequence[Route], recorder: SpanRecorder,
                  concurrency: int) -> EngineReplay:
    """Replay ``(segments, destination, start_time_s)`` routes in lockstep.

    One point per active stream per round, one ``tick`` per round, each
    finished stream finalized; ``destination=None`` replays a deferred
    stream the way gateway sessions run.
    """
    span = recorder.span
    replay = EngineReplay()
    backlog = list(range(len(routes)))[::-1]
    cursors: Dict[int, int] = {}
    while backlog or cursors:
        while backlog and len(cursors) < concurrency:
            cursors[backlog.pop()] = 0
        finished = []
        with span("core.ingest"):
            for index, cursor in cursors.items():
                segments, destination, start_time_s = routes[index]
                if cursor == 0:
                    engine.ingest(index, segments[0],
                                  destination=destination,
                                  start_time_s=start_time_s)
                else:
                    engine.ingest(index, segments[cursor])
                cursors[index] = cursor + 1
                if cursor + 1 == len(segments):
                    finished.append(index)
        replay.ready_candidates += len(engine.active_vehicles)
        with span("core.tick"):
            replay.ticked_points += engine.tick()
        for index in finished:
            with span("core.finalize", index):
                engine.finalize(index)
            replay.points += len(routes[index][0])
            replay.streams += 1
            del cursors[index]
    return replay


@dataclass
class MatcherReplay:
    fixes: int
    sessions: int
    failures: List[str]
    distance_cache_hit_rate: float


def replay_matcher(network, traces: Sequence[RawTrajectory],
                   recorder: SpanRecorder, concurrency: int) -> MatcherReplay:
    """Replay in-order raw traces through a standalone ``OnlineMapMatcher``.

    The shards run the matcher out of the driver's sight; this replay
    measures its self time directly, with the gateway's window.
    """
    span = recorder.span
    matcher = OnlineMapMatcher(
        HMMMapMatcher(network),
        max_pending=GatewayConfig().max_pending_points)
    failures: List[str] = []
    backlog = list(range(len(traces)))[::-1]
    cursors: Dict[int, int] = {}
    fixes = 0
    while backlog or cursors:
        while backlog and len(cursors) < concurrency:
            cursors[backlog.pop()] = 0
        finished = []
        for index, cursor in cursors.items():
            points = traces[index].points
            try:
                with span("mapmatching.push", index):
                    matcher.push(index, points[cursor])
            except (UnmatchablePointError, MatchBreakError) as error:
                failures.append(f"trace {index} fix {cursor}: {error!r}")
            fixes += 1
            cursors[index] = cursor + 1
            if cursor + 1 == len(points):
                finished.append(index)
        for index in finished:
            del cursors[index]
            with span("mapmatching.finish", index):
                result = matcher.finish(index)
            if result.broken:
                failures.append(f"trace {index}: lattice broke")
    return MatcherReplay(
        fixes=fixes, sessions=len(traces), failures=failures,
        distance_cache_hit_rate=matcher.matcher.distance_cache.hit_rate)
