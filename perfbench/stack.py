"""Timed set-up of the stack each workload serves.

Every workload starts from the fleet ``repro soak`` runs: a Chengdu-like
city drifted over two day-parts, the part-0 model trained by an
:class:`~repro.core.OnlineLearner`, and a detection service (plus, for raw
fixes, a gateway) built from it. City and model come from fixed settings,
so every run serves the same system; the run's ``--seed`` only shapes the
workload driven into it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.cli.common import part_trainer, smoke_settings, split_by_part
from repro.config import GatewayConfig
from repro.core import OnlineLearner
from repro.datagen import DriftSchedule
from repro.experiments.common import CitySplit, prepare_city
from repro.ingest import GpsGateway
from repro.mapmatching import HMMMapMatcher
from repro.serve import DetectionService
from repro.trajectory.models import MatchedTrajectory

#: Dataset scale and training preset: ~0.3 s of city generation and
#: ~1 s of training, 128-135 test trips per day-part.
SETTINGS = dict(scale=0.35)
DRIFT_PARTS = 2
QUEUE_DEPTH = 1024


@dataclass
class Stack:
    """One built stack and the seconds each set-up step took."""

    split: CitySplit
    train_parts: List[List[MatchedTrajectory]]
    test_parts: List[List[MatchedTrajectory]]
    learner: OnlineLearner
    service: DetectionService
    gateway: Optional[GpsGateway]
    workers: int
    city_s: float
    train_s: float
    service_start_s: float

    @property
    def network(self):
        return self.split.dataset.network

    @property
    def setup_s(self) -> float:
        return self.city_s + self.train_s + self.service_start_s

    def close(self) -> None:
        self.service.close()


def build_stack(backend: str, shards: int, raw: bool) -> Stack:
    """City, part-0 training, then the service (and gateway) on top.

    Mirrors :func:`repro.cli.common.build_fleet` step by step so each step
    can be timed on its own.
    """
    settings = smoke_settings(**SETTINGS)
    started = time.perf_counter()
    split = prepare_city("chengdu", settings, drift=DriftSchedule(
        n_parts=DRIFT_PARTS, rotation_per_part=1,
        drifting_pair_fraction=0.6))
    train_parts, test_parts = split_by_part(split, DRIFT_PARTS)
    if not all(train_parts) or not all(test_parts):
        raise RuntimeError("a day-part of the benchmark city is empty")
    city_done = time.perf_counter()
    learner = OnlineLearner(part_trainer(split, train_parts[0], settings))
    learner.initial_fit()
    trained = time.perf_counter()
    service = learner.model.detection_service(
        num_shards=shards, backend=backend, queue_depth=QUEUE_DEPTH)
    gateway = None
    if raw:
        gateway = GpsGateway(
            service, HMMMapMatcher(split.dataset.network),
            GatewayConfig(matcher_placement="shard", async_sessions=True))
    ready = time.perf_counter()
    return Stack(split=split, train_parts=train_parts, test_parts=test_parts,
                 learner=learner, service=service, gateway=gateway,
                 workers=shards if backend == "process" else 0,
                 city_s=city_done - started, train_s=trained - city_done,
                 service_start_s=ready - trained)
