"""Shard execution backends of the detection service: one core, two transports.

Every shard is one :class:`ShardCore` — a :class:`~repro.core.stream.
StreamEngine` rebuilt from the service's pickled model blob
(:func:`~repro.serve.checkpoint.model_to_bytes`) plus its result bus,
optional work plane, observe-only tracer, queue-wait reservoir, busy clock
and swap counter. A core does all its work through :meth:`ShardCore.handle`
(one command tuple in, at most one reply out) and :meth:`ShardCore.tick`.
The two transports only *deliver* commands to it:

* :class:`InProcessBackend` — every core lives in the calling process
  behind one bounded FIFO deque of commands; nothing advances until the
  caller pumps (``pump`` feeds each deque to its core, then ticks).
  Deterministic and debuggable; the substrate of the differential tests.
* :class:`ProcessBackend` — one OS process per shard runs the same core in
  a loop over a bounded ``multiprocessing`` command queue, ticking
  continuously, so shard compute overlaps with the caller and with every
  other shard. A dead worker is reported as a
  :class:`~repro.exceptions.ShardDied` naming the shard at the next send,
  reply wait or result poll.

Label equivalence holds for both: a stream's labels never depend on how
ticks interleave with arrivals (each stream advances at most one point per
tick, and per-stream state is self-contained), so sharding a fleet across
engines — in whatever process — yields exactly the labels of one big engine.

**Command protocol.** A command is a tuple ``(kind, payload, ...)``.

* *Fire-and-forget* kinds ride the shard's bounded queue — one queue slot
  per command, however many points or plane commands it carries — and carry
  their enqueue timestamp as a third element (the queue-wait sample):
  ``ingest`` (a list of :class:`IngestEvent`), ``finalize_async`` (vehicle
  ids; results are *published* to the shard's
  :class:`~repro.serve.resultbus.ShardResultBus`, one ``"result"`` envelope
  per vehicle or one ``"error"`` envelope for the batch), ``plane`` (a list
  of plane commands) and ``bus_ack`` (a sequence watermark). A failing
  fire-and-forget command is stashed and raised at the shard's next
  replied command instead of desynchronizing it silently.
* *Replied* kinds produce exactly one reply ``(kind, payload)`` echoing the
  command's kind, or ``("error", exception)``: ``sync`` (quiesce),
  ``finalize``, ``swap`` (a pickled :class:`ControlUpdate`), ``stats``,
  ``bus_replay``, ``bus_stats``, ``obs`` (the tracer's cumulative registry
  and drained spans), ``install_plane``, ``plane_request``, ``plane_stats``.
  Requests that concern every shard are broadcast first and every reply is
  read before the first error is raised, so no unread reply can answer a
  shard's next request.

Because each shard's commands run in FIFO order, an async finalize sees
exactly the points queued before it, and every point *eligible for
labeling* when a ``swap`` arrives is labeled by the old weights/history —
the core quiesces its engine before loading the update — which is what
makes hot-swaps deterministic and testable. (Points that only become
labelable later — a stream's latest point awaiting its successor, or any
point of a deferred stream — get whatever weights serve then, exactly like
a single engine swapped at the same quiescent boundary; history goes one
step further, each stream pinning the snapshot it opened with.) Every core
unpickles its own copy of the update, which is the per-shard isolation of
history snapshots and deltas on both transports.

**Work planes.** A shard can also host one *plane*: an opaque work object
built next to the engine by a caller-supplied factory (``factory(shard_id,
engine) -> plane``, picklable for the process backend) and driven through
the same FIFO. The backend only routes commands to the plane's duck-typed
``handle(command)`` (fire-and-forget), ``request(command)`` (one reply) and
``stats()``; a plane with a ``bind_bus(publish)`` method is handed the shard
bus's ``publish`` at install time. This is how the raw-GPS gateway runs
online map matching inside the shards (:class:`~repro.ingest.shardmatch.
ShardMatcherPlane`) and completes sessions over the bus.
"""

from __future__ import annotations

import pickle
import queue as queue_module
import time
from collections import deque
from typing import Hashable, List, NamedTuple, Optional, Sequence

from ..core.detector import DetectionResult
from ..exceptions import ServiceError, ShardDied
from ..history import HistoryDelta, HistorySnapshot, apply_delta
from ..obs.registry import MetricsRegistry, Reservoir
from ..obs.trace import TraceContext, Tracer, timestamp as obs_timestamp
from .checkpoint import WeightsSnapshot, model_from_bytes
from .metrics import BusStats, ShardStats
from .resultbus import ResultEnvelope, ShardResultBus

#: Seconds a worker sleeps on its command queue when fully idle.
_IDLE_WAIT_S = 0.05
#: Seconds the service waits for a live worker's reply before giving up.
_REQUEST_TIMEOUT_S = 120.0
#: Longest the facade blocks on a worker before re-checking it is alive.
_LIVENESS_POLL_S = 0.1
#: Command kinds that ride the bounded queue and produce no reply.
_FIRE_AND_FORGET = frozenset({"ingest", "finalize_async", "plane", "bus_ack"})


class IngestEvent(NamedTuple):
    """One map-matched point of one vehicle stream, as queued to a shard."""

    vehicle_id: Hashable
    segment: int
    destination: Optional[int]
    start_time_s: float
    trajectory_id: Optional[int]
    #: Sampled trace context riding this event (``None`` almost always).
    #: Stamped where the event is created; the shard observes the
    #: ``shard_queue`` stage when it dequeues the event.
    trace: Optional[TraceContext] = None


class ControlUpdate(NamedTuple):
    """One atomic control-plane update broadcast to every shard.

    Carries new network weights, a new history — as a full snapshot *or*
    as a version-keyed :class:`~repro.history.HistoryDelta` of only the
    touched groups — or both weights and history; everything is applied at
    a single quiescent boundary per shard, so "new model + new history"
    can never be observed half-applied. At most one of ``history`` /
    ``history_delta`` is set: the facade (:meth:`DetectionService.swap`)
    chooses the delta form when every shard is known to hold the delta's
    base version, and falls back to the full snapshot otherwise.
    """

    weights: Optional[WeightsSnapshot] = None
    history: Optional[HistorySnapshot] = None
    history_delta: Optional[HistoryDelta] = None


class ShardCore:
    """One shard's serving state, driven only by command tuples.

    Both transports run exactly this object; see the module docstring for
    the command protocol. ``obs_options`` sizes the tracer's span buffer
    (``keep_spans``, ``max_spans``) and the queue-wait reservoir
    (``queue_wait_cap``).
    """

    def __init__(self, shard_id: int, blob: bytes, backend: str,
                 engine_overrides: Optional[dict] = None,
                 obs_options: Optional[dict] = None):
        options = obs_options or {}
        self.shard_id = shard_id
        self.backend = backend
        self.engine = model_from_bytes(blob).stream_engine(
            **(engine_overrides or {}))
        self.bus = ShardResultBus(shard_id)
        # Rate 0: shards never originate traces, they only observe the
        # contexts that arrive on events.
        self.tracer = Tracer(MetricsRegistry(), sample_rate=0.0,
                             site=f"shard-{shard_id}",
                             keep_spans=options.get("keep_spans", True),
                             max_spans=options.get("max_spans", 10_000))
        self.engine.tracer = self.bus.tracer = self.tracer
        self.queue_wait = Reservoir(options.get("queue_wait_cap", 4096))
        self.plane = None
        self.busy_seconds = 0.0
        self.swaps = 0
        self._stashed: Optional[Exception] = None

    def tick(self) -> int:
        """One batched engine tick on the busy clock; returns points labeled."""
        started = time.perf_counter()
        advanced = self.engine.tick()
        self.busy_seconds += time.perf_counter() - started
        return advanced

    def handle(self, command: tuple) -> Optional[tuple]:
        """Execute one command; returns its reply, ``None`` if fire-and-forget."""
        kind = command[0]
        started = time.perf_counter()
        try:
            if kind in _FIRE_AND_FORGET:
                self.queue_wait.add(started - command[2])
                try:
                    getattr(self, "_on_" + kind)(command[1])
                except Exception as error:
                    if self._stashed is None:
                        self._stashed = error
                return None
            if self._stashed is not None:
                error, self._stashed = self._stashed, None
                return "error", error
            handler = getattr(self, "_on_" + kind, None)
            if handler is None:
                return "error", ServiceError(f"unknown command {kind!r}")
            try:
                return kind, handler(command[1])
            except Exception as error:
                return "error", error
        finally:
            self.busy_seconds += time.perf_counter() - started

    # -------------------------------------------------- fire-and-forget
    def _on_ingest(self, events: Sequence[IngestEvent]) -> None:
        ingest = self.engine.ingest
        for event in events:
            trace = event.trace
            if trace is not None:
                trace = self.tracer.observe("shard_queue", trace,
                                            obs_timestamp())
            ingest(event.vehicle_id, event.segment,
                   destination=event.destination,
                   start_time_s=event.start_time_s,
                   trajectory_id=event.trajectory_id, trace=trace)

    def _on_finalize_async(self, vehicle_ids: Sequence[Hashable]) -> None:
        try:
            results = self.engine.finalize_many(vehicle_ids)
        except Exception as error:
            self.bus.publish("error", tuple(vehicle_ids), error)
            return
        traced = self.engine.pop_finalize_traced()
        now = obs_timestamp()
        for vehicle_id, result in zip(vehicle_ids, results):
            trace_id = traced.get(vehicle_id)
            self.bus.publish(
                "result", vehicle_id, result,
                None if trace_id is None else TraceContext(trace_id, now))

    def _on_plane(self, commands: Sequence) -> None:
        plane = self._require_plane()
        for command in commands:
            plane.handle(command)

    def _on_bus_ack(self, up_to_seq: int) -> None:
        self.bus.ack(up_to_seq)

    # ---------------------------------------------------------- replied
    def _on_sync(self, _) -> None:
        while self.engine.tick() > 0:
            pass

    def _on_finalize(self, vehicle_ids: Sequence[Hashable]
                     ) -> List[DetectionResult]:
        try:
            return self.engine.finalize_many(vehicle_ids)
        finally:
            # Synchronous results never ride the bus, so their traces end
            # here — lest a later async finalize of a reused vehicle id
            # stamps a stale one.
            self.engine.pop_finalize_traced()

    def _on_swap(self, blob: bytes) -> None:
        # Nothing is loaded until both halves are known good: ``apply_delta``
        # rejects a base-version mismatch and ``load_weights`` validates both
        # state dicts before mutating, so a bad update leaves the shard
        # wholly on its old weights and history.
        update: ControlUpdate = pickle.loads(blob)
        self._on_sync(None)
        engine = self.engine
        history = update.history
        if update.history_delta is not None:
            history = apply_delta(engine.history_snapshot,
                                  update.history_delta)
        if update.weights is not None:
            engine.load_weights(update.weights["rsrnet"],
                                update.weights["asdnet"])
            self.swaps += 1
        if history is not None:
            engine.load_history(history)

    def _on_stats(self, queue_depth: int) -> ShardStats:
        engine = self.engine
        return ShardStats(
            shard_id=self.shard_id,
            backend=self.backend,
            points_processed=engine.points_processed,
            ticks=engine.ticks,
            busy_seconds=self.busy_seconds,
            queue_depth=queue_depth,
            pending_points=engine.total_pending_points(),
            streams_open=len(engine.active_vehicles),
            streams_finalized=engine.streams_finalized,
            cache_hits=engine.cache.hits,
            cache_misses=engine.cache.misses,
            swaps=self.swaps,
            history_version=engine.history_version,
            history_refreshes=engine.history_refreshes,
            queue_wait_samples=list(self.queue_wait.samples),
        )

    def _on_bus_replay(self, _) -> int:
        return self.bus.replay()

    def _on_bus_stats(self, _) -> BusStats:
        return self.bus.stats()

    def _on_obs(self, _) -> tuple:
        return self.tracer.registry, self.tracer.take_spans()

    def _on_install_plane(self, factory) -> None:
        self.plane = factory(self.shard_id, self.engine)
        if hasattr(self.plane, "bind_bus"):
            self.plane.bind_bus(self.bus.publish)

    def _on_plane_request(self, command):
        return self._require_plane().request(command)

    def _on_plane_stats(self, _):
        return self._require_plane().stats()

    def _require_plane(self):
        if self.plane is None:
            raise ServiceError(f"no plane installed on shard {self.shard_id}")
        return self.plane


class ServiceBackend:
    """The shard API, written once over a transport's delivery primitives.

    A transport implements :meth:`_put` (bounded, non-blocking enqueue of a
    fire-and-forget command), :meth:`_post` / :meth:`_receive` (deliver a
    replied command, read its reply), :meth:`_take_bus`, :meth:`_depth`,
    :meth:`pump` and :meth:`close`.
    """

    name = "abstract"

    def __init__(self, num_shards: int):
        self._num_shards = num_shards
        self._ack_wanted = [0] * num_shards  # highest watermark to ack
        self._ack_sent = [0] * num_shards    # highest watermark enqueued

    @property
    def num_shards(self) -> int:
        return self._num_shards

    # ------------------------------------------------- transport primitives
    def _put(self, shard: int, command: tuple) -> bool:
        raise NotImplementedError

    def _post(self, shard: int, command: tuple) -> None:
        raise NotImplementedError

    def _receive(self, shard: int) -> tuple:
        raise NotImplementedError

    def _take_bus(self, shard: int,
                  max_items: Optional[int]) -> List[ResultEnvelope]:
        raise NotImplementedError

    def _depth(self, shard: int) -> int:
        raise NotImplementedError

    def pump(self) -> int:
        """Advance queued work opportunistically; returns points labeled.

        The process backend's workers advance themselves, so its ``pump`` is
        a no-op returning 0.
        """
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------ delivery
    def _send(self, shard: int, kind: str, payload) -> bool:
        """Queue one fire-and-forget command; ``False`` if the queue is full."""
        return self._put(shard, (kind, payload, obs_timestamp()))

    def _answer(self, shard: int, kind: str):
        reply_kind, payload = self._receive(shard)
        if reply_kind == "error":
            raise payload
        if reply_kind != kind:  # pragma: no cover - protocol bug guard
            raise ServiceError(
                f"shard {shard} answered {reply_kind!r} to {kind!r}")
        return payload

    def _request(self, shard: int, kind: str, payload=None):
        """Send one replied command and return its (only) reply's payload."""
        self._post(shard, (kind, payload))
        return self._answer(shard, kind)

    def _broadcast(self, kind: str, payloads: Optional[Sequence] = None
                   ) -> list:
        """One replied command per shard, all sent before any reply is read.

        Every reply is consumed before the first error is raised — an
        unread reply would answer that shard's *next* request.
        """
        if payloads is None:
            payloads = [None] * self._num_shards
        errors: List[Optional[Exception]] = []
        for shard, payload in enumerate(payloads):
            try:
                self._post(shard, (kind, payload))
                errors.append(None)
            except Exception as error:
                errors.append(error)
        answers = []
        for shard in range(self._num_shards):
            if errors[shard] is None:
                try:
                    answers.append(self._answer(shard, kind))
                    continue
                except Exception as error:
                    errors[shard] = error
            answers.append(None)
        for error in errors:
            if error is not None:
                raise error
        return answers

    # -------------------------------------------------------------- ingest
    def ingest_batch(self, shard: int, events: Sequence[IngestEvent]) -> bool:
        """Queue several events to a shard as one command, all-or-nothing.

        A batch occupies a *single* slot of the shard's bounded queue — on
        the process backend that is one IPC put instead of ``len(events)``,
        which is where the multi-shard ingest amortization comes from. The
        queue-depth bound therefore counts commands, not points; callers
        bound their batch size (:class:`~repro.config.GatewayConfig.
        ingest_batch`) to keep worst-case buffering proportional.
        ``False`` means the shard queue is full and *nothing* was queued.
        """
        return self._send(shard, "ingest", list(events))

    def drain(self) -> None:
        """Block until every queued event is applied and no point is eligible.

        Deferred streams (undeclared destinations) keep their buffered points
        — those are only labelable at finalize — so "drained" means *no shard
        can make progress*, not "no state is pending".
        """
        self._broadcast("sync")

    def finalize(self, shard: int,
                 vehicle_ids: Sequence[Hashable]) -> List[DetectionResult]:
        return self._request(shard, "finalize", list(vehicle_ids))

    # ------------------------------------------------------------ results bus
    def finalize_async(self, shard: int,
                       vehicle_ids: Sequence[Hashable]) -> bool:
        """Queue a fire-and-forget finalize; results arrive over the bus.

        One command (one queue slot) per per-shard batch, like
        :meth:`ingest_batch` — ``False`` means the shard queue is full and
        nothing was queued.
        """
        return self._send(shard, "finalize_async", list(vehicle_ids))

    def take_results(self,
                     max_items: Optional[int] = None) -> List[ResultEnvelope]:
        """Drain published envelopes from every shard's bus, batched.

        At-least-once: a replay can hand the caller envelopes it has seen
        before, so consumers dedup through a :class:`~repro.serve.resultbus.
        BusCollector`. ``max_items`` is a soft bound (whole batches are
        taken).
        """
        envelopes: List[ResultEnvelope] = []
        for shard in range(self._num_shards):
            self._send_ack(shard)  # retry an ack an earlier full queue refused
            budget = None if max_items is None else max_items - len(envelopes)
            if budget is None or budget > 0:
                envelopes.extend(self._take_bus(shard, budget))
        return envelopes

    def ack_results(self, shard: int, up_to_seq: int) -> None:
        """Acknowledge one shard's envelopes up to a sequence watermark.

        Best-effort and fire-and-forget: an ack that cannot be queued right
        now (full command queue) is retried on the next
        :meth:`take_results`; until then the shard just retains a slightly
        longer unacked window.
        """
        if up_to_seq > self._ack_wanted[shard]:
            self._ack_wanted[shard] = up_to_seq
        self._send_ack(shard)

    def _send_ack(self, shard: int) -> None:
        wanted = self._ack_wanted[shard]
        if wanted > self._ack_sent[shard] and self._send(shard, "bus_ack",
                                                         wanted):
            self._ack_sent[shard] = wanted

    def replay_results(self) -> int:
        """Re-queue every shard's unacked window; returns envelopes re-queued.

        The fault-injection/recovery lever of the at-least-once contract —
        after this, :meth:`take_results` redelivers everything not yet
        acknowledged (subscribers drop what they already accepted).
        """
        return sum(self._broadcast("bus_replay"))

    def bus_stats(self) -> List[BusStats]:
        """Every shard bus's counters, in shard order."""
        return self._broadcast("bus_stats")

    # ---------------------------------------------------------- control
    def swap(self, update: ControlUpdate) -> None:
        # Pickled once for the whole broadcast: a multiprocessing queue
        # would otherwise re-pickle the payload per shard.
        self._broadcast("swap", [pickle.dumps(
            update, protocol=pickle.HIGHEST_PROTOCOL)] * self._num_shards)

    def stats(self) -> List[ShardStats]:
        """Every shard's snapshot; queue depth is read when it is asked for."""
        return self._broadcast(
            "stats", [self._depth(shard) for shard in range(self._num_shards)])

    def obs_snapshot(self) -> List[tuple]:
        """Every shard's ``(registry, spans)``, in shard order.

        The registry is the shard tracer's cumulative metrics (a
        point-in-time pickle copy on the process backend); the spans are
        *drained* — each recorded span is returned exactly once across
        repeated calls.
        """
        return self._broadcast("obs")

    # ----------------------------------------------------------- work planes
    def install_plane(self, factory) -> None:
        """Build one plane per shard: ``factory(shard_id, engine) -> plane``.

        Replied per shard, so a factory that cannot be rebuilt in a worker
        fails loudly here, not at the first routed command.
        """
        self._broadcast("install_plane", [factory] * self._num_shards)

    def plane_send_batch(self, shard: int, commands: Sequence) -> bool:
        """Queue plane commands as one fire-and-forget command, all-or-nothing.

        ``False`` means the shard's queue is full and nothing was queued.
        """
        return self._send(shard, "plane", list(commands))

    def plane_request(self, shard: int, command):
        """Send one replied command to a shard's plane, return its answer."""
        return self._request(shard, "plane_request", command)

    def plane_stats(self) -> List:
        """Every shard plane's ``stats()`` snapshot, in shard order."""
        return self._broadcast("plane_stats")


# --------------------------------------------------------------- in-process
class InProcessBackend(ServiceBackend):
    """All shard cores in the calling process; deterministic, pump-driven."""

    name = "inprocess"

    def __init__(self, blob: bytes, num_shards: int, queue_depth: int,
                 engine_overrides: Optional[dict] = None,
                 obs_options: Optional[dict] = None):
        super().__init__(num_shards)
        self._queue_depth = queue_depth
        self._queues = [deque() for _ in range(num_shards)]
        self._cores = [ShardCore(shard, blob, self.name, engine_overrides,
                                 obs_options) for shard in range(num_shards)]
        self._replies: List[Optional[tuple]] = [None] * num_shards

    def _put(self, shard: int, command: tuple) -> bool:
        queue = self._queues[shard]
        if len(queue) >= self._queue_depth:
            return False
        queue.append(command)
        return True

    def _dispatch(self, shard: int) -> None:
        queue, handle = self._queues[shard], self._cores[shard].handle
        while queue:
            handle(queue.popleft())

    def _post(self, shard: int, command: tuple) -> None:
        # FIFO: everything queued before a replied command runs first.
        self._dispatch(shard)
        self._replies[shard] = self._cores[shard].handle(command)

    def _receive(self, shard: int) -> tuple:
        reply, self._replies[shard] = self._replies[shard], None
        return reply

    def _take_bus(self, shard: int,
                  max_items: Optional[int]) -> List[ResultEnvelope]:
        bus = self._cores[shard].bus
        return bus.take(max_items) if bus.depth else []

    def _depth(self, shard: int) -> int:
        return len(self._queues[shard])

    def pump(self) -> int:
        advanced = 0
        for shard, core in enumerate(self._cores):
            self._dispatch(shard)
            advanced += core.tick()
        return advanced

    def close(self) -> None:
        self._queues, self._cores = [], []


# ------------------------------------------------------------ multi-process
def _shard_worker(shard_id: int, blob: bytes, engine_overrides: dict,
                  commands, results, bus_queue,
                  obs_options: Optional[dict] = None) -> None:
    """Worker main loop: serve one :class:`ShardCore` until ``stop``."""
    core = ShardCore(shard_id, blob, "process", engine_overrides, obs_options)
    # Unflushed bus batches must never block this process's exit (the
    # facade stops reading at close; whatever is still buffered then is as
    # lost as any other in-flight work).
    bus_queue.cancel_join_thread()

    def flush_bus() -> None:
        """Ship the outbox toward the facade: one message per batch."""
        if core.bus.depth:
            bus_queue.put(core.bus.take())

    def serve(command) -> bool:
        if command[0] == "stop":
            flush_bus()
            return False
        reply = core.handle(command)
        if reply is not None:
            results.put(reply)
        return True

    while True:
        handled = 0
        while True:
            try:
                command = commands.get_nowait()
            except queue_module.Empty:
                break
            handled += 1
            if not serve(command):
                return
        advanced = core.tick()
        flush_bus()
        if handled == 0 and advanced == 0:
            # Fully idle: block (briefly) instead of spinning.
            try:
                command = commands.get(timeout=_IDLE_WAIT_S)
            except queue_module.Empty:
                continue
            if not serve(command):
                return


class _ProcessShard:
    def __init__(self, shard_id: int, context, blob: bytes,
                 engine_overrides: Optional[dict], queue_depth: int,
                 obs_options: Optional[dict] = None):
        self.shard_id = shard_id
        self.commands = context.Queue(maxsize=queue_depth)
        self.results = context.Queue()
        # The results *bus* channel: worker-published envelope batches, one
        # message each. Deliberately separate from `results`, whose strict
        # one-reply-per-request pairing pushed publications would desync.
        self.bus = context.Queue()
        self.process = context.Process(
            target=_shard_worker,
            args=(shard_id, blob, engine_overrides, self.commands,
                  self.results, self.bus, obs_options),
            daemon=True,
            name=f"repro-serve-shard-{shard_id}",
        )
        self.process.start()


class ProcessBackend(ServiceBackend):
    """One OS process per shard core, spawned from a pickled model blob."""

    name = "process"

    def __init__(self, blob: bytes, num_shards: int, queue_depth: int,
                 engine_overrides: Optional[dict] = None,
                 start_method: Optional[str] = None,
                 request_timeout_s: float = _REQUEST_TIMEOUT_S,
                 obs_options: Optional[dict] = None):
        import multiprocessing

        super().__init__(num_shards)
        context = multiprocessing.get_context(start_method)
        self._request_timeout_s = request_timeout_s
        self._shards = [
            _ProcessShard(shard_id, context, blob, engine_overrides,
                          queue_depth, obs_options)
            for shard_id in range(num_shards)
        ]
        self._closed = False

    def _live(self, shard: int) -> _ProcessShard:
        """The shard's handles; raises if the service or the worker is gone."""
        if self._closed:
            raise ServiceError("the detection service is closed")
        state = self._shards[shard]
        if not state.process.is_alive():
            raise ShardDied(shard, state.process.exitcode)
        return state

    def _put(self, shard: int, command: tuple) -> bool:
        # The command's trailing timestamp is its queue-wait mark:
        # perf_counter is CLOCK_MONOTONIC on Linux, comparable across this
        # process and the worker, which subtracts it at receipt.
        try:
            self._live(shard).commands.put_nowait(command)
        except queue_module.Full:
            return False
        return True

    def _post(self, shard: int, command: tuple) -> None:
        while True:
            try:
                self._live(shard).commands.put(command,
                                               timeout=_LIVENESS_POLL_S)
                return
            except queue_module.Full:
                continue

    def _receive(self, shard: int) -> tuple:
        deadline = time.monotonic() + self._request_timeout_s
        results = self._shards[shard].results
        while True:
            try:
                return results.get(timeout=_LIVENESS_POLL_S)
            except queue_module.Empty:
                pass
            try:
                self._live(shard)
            except ShardDied as died:
                try:  # a reply written just before the worker died
                    return results.get_nowait()
                except queue_module.Empty:
                    raise died from None
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"shard {shard} did not answer within "
                    f"{self._request_timeout_s:.0f}s")

    def _take_bus(self, shard: int,
                  max_items: Optional[int]) -> List[ResultEnvelope]:
        bus = self._live(shard).bus
        envelopes: List[ResultEnvelope] = []
        while max_items is None or len(envelopes) < max_items:
            try:
                envelopes.extend(bus.get_nowait())
            except queue_module.Empty:
                break
        return envelopes

    def _depth(self, shard: int) -> int:
        try:
            return self._shards[shard].commands.qsize()
        except NotImplementedError:  # pragma: no cover - macOS
            return 0

    def pump(self) -> int:
        return 0  # workers drain and tick themselves

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            if shard.process.is_alive():
                try:
                    shard.commands.put(("stop",), timeout=1.0)
                except queue_module.Full:  # pragma: no cover - wedged worker
                    pass
        for shard in self._shards:
            # Drain straggler bus batches so the worker's queue feeder
            # thread cannot wedge its exit on an unread pipe.
            while True:
                try:
                    shard.bus.get_nowait()
                except (queue_module.Empty, OSError, ValueError):
                    break
            shard.process.join(timeout=5.0)
            if shard.process.is_alive():  # pragma: no cover - wedged worker
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            shard.commands.close()
            shard.results.close()
            shard.bus.close()
