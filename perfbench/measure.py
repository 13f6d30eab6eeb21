"""Statistics shared by every workload: the percentile rule, completion
rates, the host's speed, the failure ledger and peak memory.

Every timing the benchmark reports goes through :func:`summarize`, so the
rule "the median plus the highest percentile with at least ten samples
beyond it, with the sample count" lives in one place, and a run that
collected too few samples for the tail it names fails instead of printing
a hollow number.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10
#: The tail every timing names.
TAIL_Q = 0.9
#: Percentiles the summaries choose their "highest supported" tail from.
TAIL_CANDIDATES = (TAIL_Q, 0.95, 0.99, 0.999)


class TooFewSamples(RuntimeError):
    """A run collected too few samples for a percentile it must report."""


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie beyond the ``q`` quantile."""
    return math.floor(count * (1.0 - q) + 1e-9)


@dataclass
class Summary:
    """A timing distribution reduced by the percentile rule."""

    name: str
    unit: str
    count: int
    median: float
    tail: float
    highest_q: float
    highest: float

    def format(self) -> str:
        return (f"{self.name}: p50 {self.median:.4g} {self.unit}, "
                f"p{_pct(TAIL_Q)} {self.tail:.4g} {self.unit}, "
                f"highest supported p{_pct(self.highest_q)} "
                f"{self.highest:.4g} {self.unit} (n={self.count})")


def _pct(q: float) -> str:
    return f"{q * 100:g}"


def summarize(name: str, samples: Sequence[float], unit: str) -> Summary:
    """Median, the p90 tail and the highest supported percentile.

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond the p90 — the tail would otherwise be a single
    sample's value.
    """
    count = len(samples)
    if samples_beyond(count, TAIL_Q) < MIN_BEYOND:
        raise TooFewSamples(
            f"{name}: {count} samples cannot support p{_pct(TAIL_Q)} "
            f"(needs {MIN_BEYOND} beyond it)")
    highest_q = max(q for q in TAIL_CANDIDATES
                    if samples_beyond(count, q) >= MIN_BEYOND)
    median, tail, highest = np.quantile(samples, [0.5, TAIL_Q, highest_q])
    return Summary(name=name, unit=unit, count=count, median=float(median),
                   tail=float(tail), highest_q=highest_q,
                   highest=float(highest))


def median_of(name: str, samples: Sequence[float], min_count: int) -> float:
    """The median of a small sample (refreshes, windows, set-ups)."""
    if len(samples) < min_count:
        raise TooFewSamples(f"{name}: {len(samples)} samples, "
                            f"need at least {min_count}")
    return statistics.median(samples)


def completion_rate(completions: Sequence[Tuple[float, int]], start: float,
                    end: float) -> float:
    """Items per second over whole waves of completions.

    ``completions`` are ``(time, items)`` pairs in time order; of those in
    ``[start, end)``, the items completed after the first completion
    instant are divided by the time from it to the last. Closed loops
    complete trips in waves (a raw closed loop's sessions arrive as many
    at a time as it has vehicles), and a window cut between waves would
    count a fraction of one; measured from wave to wave, a rate counts
    only whole wave periods.
    """
    window = [(when, items) for when, items in completions
              if start <= when < end]
    if len(window) < 3 or window[-1][0] <= window[0][0]:
        raise TooFewSamples(f"{len(window)} completions at "
                            f"{len({when for when, _ in window})} instants "
                            "cannot give a rate")
    first, last = window[0][0], window[-1][0]
    return sum(items for when, items in window if when > first) / (
        last - first)


#: Seconds one :func:`reference_kernel` call takes at the host speed every
#: normalized metric is quoted at (about its time on a quiet 2-vCPU Xeon
#: VM).
REFERENCE_KERNEL_S = 4.0e-4
#: Seconds between two samples of the kernel while the driver serves.
PACE_EVERY_S = 0.1


def reference_kernel() -> int:
    """A fixed slice of interpreter work, the kind the program's hot path
    is bound by. It calls nothing in ``repro``, so no change to the
    program changes its cost. (A kernel with small-array NumPy work
    tracked the program's speed worse: its samples moved with host states
    the program hardly felt.)"""
    total = 0
    for i in range(6000):
        total += (i * 7) % 13
    return total


class HostPace:
    """How slow the host runs, sampled while the benchmark measures.

    The host's own speed swings by tens of percent within seconds (a fixed
    loop's 1 s rate moves as much as the program's), which no run length
    averages away. So the driver times :func:`reference_kernel` every
    :data:`PACE_EVERY_S` while it serves (and in bursts around each
    refresh, which it cannot interrupt), and :meth:`slowdown` of a window
    is the median sample in it over :data:`REFERENCE_KERNEL_S` (the median,
    because a sample the scheduler interrupted reads many times too slow).
    Dividing a duration measured in that window by its slowdown (or
    multiplying a rate) quotes it at the reference speed. The samples run
    in the driver's own thread between its calls into the program, so
    whatever slows the host for the program slows them too — including, in
    part, a program that itself makes the host slower (more memory
    traffic, more busy processes than cores); the report prints every
    slowdown beside the rates.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._next = 0.0

    def sample(self, count: int = 1) -> None:
        """Time ``count`` kernel calls after an untimed one, so the samples
        do not depend on what the program left in the caches."""
        reference_kernel()
        for _ in range(count):
            started = time.perf_counter()
            reference_kernel()
            self.samples.append((started, time.perf_counter() - started))

    def poll(self) -> None:
        """Sample once when :data:`PACE_EVERY_S` has passed."""
        now = time.perf_counter()
        if now >= self._next:
            self.sample()
            self._next = now + PACE_EVERY_S

    def slowdown(self, windows: Sequence[Tuple[float, float]]) -> float:
        """The median sample taken inside any of ``(start, end)`` windows,
        over :data:`REFERENCE_KERNEL_S`."""
        inside = [seconds for when, seconds in self.samples
                  if any(start <= when <= end for start, end in windows)]
        if not inside:
            raise TooFewSamples(f"no host-speed sample in {len(windows)} "
                                "window(s)")
        return statistics.median(inside) / REFERENCE_KERNEL_S

    def around(self, times: Sequence[float], half_width: float
               ) -> np.ndarray:
        """The slowdown at each of ``times``: the median sample taken
        within ``half_width`` seconds of it (samples are in time order)."""
        when = np.array([when for when, _ in self.samples])
        seconds = np.array([seconds for _, seconds in self.samples])
        times = np.asarray(times, dtype=float)
        lows = np.searchsorted(when, times - half_width)
        highs = np.searchsorted(when, times + half_width, side="right")
        if np.any(highs <= lows):
            raise TooFewSamples("no host-speed sample within "
                                f"{half_width:g}s of a time")
        return np.array([np.median(seconds[low:high]) for low, high
                         in zip(lows, highs)]) / REFERENCE_KERNEL_S


@dataclass
class Ledger:
    """Attempted / failed operations per phase: the base of ``failed``."""

    phases: Dict[str, List[int]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def attempt(self, phase: str, count: int = 1) -> None:
        self.phases.setdefault(phase, [0, 0])[0] += count

    def fail(self, phase: str, why: str, count: int = 1) -> None:
        self.phases.setdefault(phase, [0, 0])[1] += count
        if len(self.problems) < 20:
            self.problems.append(f"{phase}: {why}")

    @property
    def attempted(self) -> int:
        return sum(attempted for attempted, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(failed for _, failed in self.phases.values())

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def format(self) -> List[str]:
        lines = []
        for phase, (attempted, failed) in self.phases.items():
            share = failed / attempted if attempted else 0.0
            lines.append(f"  {phase}: attempted {attempted}, succeeded "
                         f"{attempted - failed}, failed {failed} "
                         f"(failed_share {share:.4g} of {attempted})")
        lines.append(f"  total: attempted {self.attempted}, failed "
                     f"{self.failed} (failed_share {self.failed_share:.4g} "
                     f"of {self.attempted})")
        lines.extend(f"  problem: {problem}" for problem in self.problems)
        return lines


def peak_rss_mb(workers: int) -> float:
    """Driver peak RSS plus ``workers`` times the largest worker peak, MB.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the peak of the largest child
    already reaped, so call this after the shard workers were joined.
    Linux reports kilobytes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0
