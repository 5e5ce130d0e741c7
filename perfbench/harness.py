"""Pieces shared by the workloads: clocks, the machine-speed calibration,
set-ups, closed-loop bursts, open-loop pacing, rounds, the run log the
reference checks, and percentile helpers."""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterator

from ctxbroker.model import ContextSample

from .reference import Mutation, Publication, Receipt

now = time.perf_counter
BASE_MS = 1_700_000_000_000  # produced_at of publication 0
SETUPS = 7  # set-ups per run; setup_s is their median
CALIBRATION_ROUNDS = 8  # repetitions of the work in one calibration chunk
CALIBRATION_REF_S = 0.002  # one chunk's time at the reference speed
CALIBRATION_CPUS = 4  # processors calibrated at most


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def _calibration_inputs() -> tuple[list, list, list]:
    """Plain-Python offers, profiles and a JSON document for the
    calibration chunk, fixed for every run and independent of the
    program's types."""
    rng = random.Random(0)
    offers = [({t: tuple(rng.random() for _ in range(3)) for t in rng.sample(range(4), 3)},
               (rng.random(), rng.random()), f"svc-{i:03d}") for i in range(20)]
    profiles = [([(t, tuple(rng.random() / 2 for _ in range(3)),
                   tuple(rng.random() for _ in range(3))) for t in rng.sample(range(4), 2)],
                 (rng.random() / 2, rng.random() / 2)) for _ in range(3)]
    doc = [{"service_id": sid, "qos": list(qos), "qoc": {str(t): list(v) for t, v in qoc.items()}}
           for qoc, qos, sid in offers[:6]]
    return offers, profiles, doc


_CALIBRATION = _calibration_inputs()


def _chunk() -> None:
    """Work like the broker's: rank offers for profiles by the selection
    rule, and round-trip a JSON document."""
    offers, profiles, doc = _CALIBRATION
    for _ in range(CALIBRATION_ROUNDS):
        for topics, qos_min in profiles:
            for topic, floors, weights in topics:
                scored = []
                for qoc, qos, sid in offers:
                    levels = qoc.get(topic)
                    if (levels is None or any(v < f for v, f in zip(qos, qos_min))
                            or any(v < f for v, f in zip(levels, floors))):
                        continue
                    scored.append((sum(w * v for w, v in zip(weights, levels)), sid))
                scored.sort(key=lambda pair: (-pair[0], pair[1]))
        json.loads(json.dumps(doc))


def slowness(repeats: int = 7) -> float:
    """How many times slower than the reference speed this machine runs
    a fixed chunk of pure-Python work right now: the median of
    ``repeats`` chunks on each processor the benchmark may use (their
    speeds differ from moment to moment, and the broker's threads and
    process may run on any of them), averaged over the processors."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    per_cpu = []
    try:
        for cpu in cpus[:CALIBRATION_CPUS]:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})  # this thread only
            times = []
            for _ in range(repeats):
                start = now()
                _chunk()
                times.append(now() - start)
            per_cpu.append(median(times))
    finally:
        if cpus[0] is not None:
            os.sched_setaffinity(0, cpus)
    return sum(per_cpu) / len(per_cpu) / CALIBRATION_REF_S


class Speedometer:
    """Machine slowness over a run, calibrated while the broker is idle.

    On a shared machine the speed of a fixed CPU loop drifts by a third
    over tens of seconds, so raw times of the same code spread that much
    from run to run. Each timed sample is divided by the slowness
    interpolated at its time, which makes the metrics read as if the
    machine had run at the reference speed throughout.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (time, slowness)

    def mark(self) -> None:
        self.marks.append((now(), slowness()))

    def at(self, t: float) -> float:
        if not self.marks:
            return 1.0
        i = bisect.bisect_right(self.marks, (t, math.inf))
        if i == 0:
            return self.marks[0][1]
        if i == len(self.marks):
            return self.marks[-1][1]
        (t0, s0), (t1, s1) = self.marks[i - 1], self.marks[i]
        return s0 + (s1 - s0) * (t - t0) / (t1 - t0)

    def median(self) -> float:
        return median([s for _, s in self.marks]) if self.marks else 1.0


@dataclass
class Op:
    """One request the benchmark issued: when it was due, sent and answered."""

    kind: str
    due: float
    start: float
    end: float
    ok: bool
    request_id: str | None = None


@dataclass
class RunLog:
    """Everything a run did, for the reference check and the metrics."""

    publications: list[Publication] = field(default_factory=list)
    mutations: list[Mutation] = field(default_factory=list)
    receipts: list[Receipt] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    late: list[float] = field(default_factory=list)  # open-loop send start - due, s
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # pub_id -> (service_id, topic, call end) for every sample ever published
    samples: dict[int, tuple[str, str, float]] = field(default_factory=dict)
    # (sub_id, topic, returned sample dict, start, end, kind)
    pulls: list[tuple] = field(default_factory=list)
    # (sub_id, selected tuple, start, end)
    decisions: list[tuple] = field(default_factory=list)
    next_pub: int = 0
    # publication id ranges [first, stop) of each closed-loop burst (with
    # its start time) and of each open-loop phase
    bursts: list[tuple[int, int, float]] = field(default_factory=list)
    open_ranges: list[tuple[int, int]] = field(default_factory=list)
    speed: Speedometer = field(default_factory=Speedometer)
    requests: int = 0  # every request issued to the broker
    lock: threading.Lock = field(default_factory=threading.Lock)

    def request(self) -> None:
        with self.lock:
            self.requests += 1

    def new_sample(self, service_id: str, topic: str) -> tuple[int, ContextSample]:
        with self.lock:
            pub_id = self.next_pub
            self.next_pub += 1
        return pub_id, ContextSample(topic, {"n": pub_id}, BASE_MS + pub_id, service_id)

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)


def receipt_from_message(message: dict, at: float) -> Receipt:
    body = message["body"]
    if message["kind"] == "notify":
        return Receipt(at, body["subscription_id"], int(body["sample"]["payload"]["n"]))
    return Receipt(at, body["subscription_id"], None, tuple(body["topics"]))


def open_loop(rate: float, until: float, step: Callable[[int, float], None], log: RunLog,
              rng: random.Random) -> None:
    """Call ``step(i, due)`` at ``rate`` per second until ``until``.

    Step ``i`` is due at a seeded random point of the ``i``-th slot of
    length ``1 / rate``, so that streams at related rates do not keep
    arriving at the same instants. Due times do not move when a step runs
    late, so a stall shows up as latency of the steps behind it.
    """
    start = now()
    i = 0
    while True:
        due = start + (i + rng.random()) / rate
        if due >= until:
            return
        wait = due - now()
        if wait > 0:
            time.sleep(wait)
        log.late.append(now() - due)
        step(i, due)
        i += 1


def wait_receipts(log: RunLog, expected: int | None, deadline: float, quiet: float = 0.05) -> None:
    """Block until ``expected`` receipts arrived, or (when unknown) none
    arrived for ``quiet`` seconds; give up at ``deadline``."""
    last_count, last_change = -1, now()
    while now() < deadline:
        count = len(log.receipts)
        if expected is not None and count >= expected:
            return
        if count != last_count:
            last_count, last_change = count, now()
        elif expected is None and now() - last_change >= quiet:
            return
        time.sleep(0.002)


def set_ups(make: Callable[[], tuple[object, float]], close: Callable[[object], None],
            speed: Speedometer) -> tuple[object, list[tuple[float, float]]]:
    """SETUPS fresh set-ups, each after a full collection and between two
    calibrations. Keeps the last; returns it with (seconds, slowness) of
    every set-up."""
    times = []
    kept = None
    for _ in range(SETUPS):
        if kept is not None:
            close(kept)
            kept = None
        gc.collect()
        speed.mark()
        kept, seconds = make()
        speed.mark()
        times.append((seconds, (speed.marks[-2][1] + speed.marks[-1][1]) / 2))
    return kept, times


def bursts(log: RunLog, count: int, repeats: int, pubs: Iterator[tuple[str, str]],
           route_sizes: Callable[[], dict[tuple[str, str], int]],
           publish: Callable[[str, str], None]) -> None:
    """``repeats`` closed-loop bursts: each publishes ``count`` publications
    of ``pubs`` back to back, then waits for all their deliveries. The
    counts are fixed, so a faster broker does not do more work (or hold
    more memory) than a slower one."""
    sizes = route_sizes()
    for _ in range(repeats):
        first, start = log.next_pub, now()
        expected = len(log.receipts)
        for _ in range(count):
            sid, topic = next(pubs)
            publish(sid, topic)
            expected += sizes.get((topic, sid), 0)
        log.bursts.append((first, log.next_pub, start))
        wait_receipts(log, expected, now() + 10.0)


def rounds(seconds: float, round_seconds: float, open_seconds: float, log: RunLog,
           burst: Callable[[], None], open_phase: Callable[[float], None],
           idle: ContextManager = contextlib.nullcontext()) -> None:
    """About ``seconds / round_seconds`` rounds of a closed-loop burst
    phase (``burst()``) and an open-loop phase of ``open_seconds``
    (``open_phase(until)``). The machine's speed is calibrated around
    every phase, once deliveries have settled, after a full collection
    and inside ``idle``, which keeps the benchmark's other threads still."""

    def calibrate() -> None:
        with idle:
            # The phases leave a heap of young objects behind; collecting
            # them here keeps the collector's thresholds from landing at a
            # different point of each phase.
            gc.collect()
            log.speed.mark()

    for _ in range(max(1, round(seconds / round_seconds))):
        calibrate()
        burst()
        calibrate()
        first = log.next_pub
        open_phase(now() + open_seconds)
        log.open_ranges.append((first, log.next_pub))
        wait_receipts(log, None, now() + 5.0, quiet=0.05)
    calibrate()


def run_threads(*targets: Callable[[], None]) -> None:
    """Run callables on their own threads and re-raise the first failure."""
    failures: list[BaseException] = []

    def guard(fn: Callable[[], None]) -> None:
        try:
            fn()
        except BaseException as exc:  # re-raised on the main thread below
            failures.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,), daemon=True) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
