"""Seeded workload generator for the benchmark.

Builds the catalog, offers and requirement profiles from the public
``ctxbroker.model`` types only, with its own draws, so the workloads do
not move when the scenario simulator changes its random choices. The
same seed always yields the same inputs; streams of operations are
drawn lazily from their own seeded ``random.Random`` so a faster broker
consumes a longer prefix of the same sequence.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

from ctxbroker.model import IndicatorCatalog, RequirementProfile, ServiceOffer

from .reference import RefBroker

CATALOG = IndicatorCatalog(
    qoc_indicators=("accuracy", "freshness", "completeness"),
    qos_indicators=("availability", "responsiveness"),
)
TOPICS = ("location", "temperature", "noise", "occupancy")
FANOUT_CAP = 5.0  # largest publisher reach, in units of the mean fan-out
FANOUT_RATIO = 1.5  # reach of a delivery's publication, in units of the mean fan-out


@dataclass(frozen=True)
class Spec:
    """Sizes, rates and loop shapes of one workload."""

    name: str
    why: str
    subscriptions: int
    services: int  # size of the offer pool
    stable_services: int  # always registered; the only publishers
    live_churning: int  # churning services registered at start
    open_rate: float  # publications per second in the open-loop phase
    control_rate: float  # control/read operations per second
    control_mix: tuple[tuple[str, float], ...] = ()
    mutation_mix: tuple[tuple[str, float], ...] = ()  # of the closed-loop mutator, if any
    unprovisionable_share: float = 0.0  # profiles with one topic no offer can serve
    stable_subscriptions: int = 0  # never unsubscribed; targets of reads
    mean_fanout: float = 10.0  # receivers per publication the publisher weights are fitted to
    round_seconds: float = 5.0  # a run is seconds / round_seconds rounds
    bursts_per_round: int = 2  # closed-loop publish bursts at the start of a round
    burst_pubs: int = 500  # publications per burst
    open_seconds: float = 3.5  # open-loop phase of each round
    think_seconds: float = 0.0  # pause of the closed-loop mutator between mutations
    threads: int = 2
    connections: int = 0
    loops: str = ""

    def describe(self) -> dict:
        return {
            "why": self.why,
            "subscriptions": self.subscriptions,
            "service_pool": self.services,
            "services_registered_at_start": self.stable_services + self.live_churning,
            "topics": len(TOPICS),
            "qoc_indicators": CATALOG.qoc_count,
            "qos_indicators": CATALOG.qos_count,
            "open_loop_publish_rate_hz": self.open_rate,
            "control_rate_hz": self.control_rate,
            "control_mix": dict(self.control_mix),
            "mutator": "closed loop" if self.mutation_mix else "none",
            "mutation_mix": dict(self.mutation_mix),
            "mean_fanout": self.mean_fanout,
            "round_seconds": self.round_seconds,
            "bursts_per_round": self.bursts_per_round,
            "publications_per_burst": self.burst_pubs,
            "open_loop_seconds_per_round": self.open_seconds,
            "mutator_think_seconds": self.think_seconds,
            "generator_threads": self.threads,
            "client_connections": self.connections,
            "loops": self.loops,
        }


SPECS: dict[str, Spec] = {
    "fanout": Spec(
        name="fanout",
        why="in-process, static 1000 subs x 50 services x 4 topics, skewed publishers: only the "
        "notify scan and the dispatch queue work; selection, persistence and HTTP stay idle",
        subscriptions=1000,
        services=50,
        stable_services=50,
        live_churning=0,
        open_rate=50.0,
        control_rate=20.0,
        control_mix=(("pull-last", 0.5), ("subscribe", 0.5)),
        unprovisionable_share=0.02,
        stable_subscriptions=1000,
        mean_fanout=40.0,
        # short rounds: the delivery percentiles are a median over many
        # phases, which a few phases disturbed by other work cannot move
        round_seconds=2.5,
        bursts_per_round=1,
        open_seconds=1.75,
        threads=2,
        loops="rounds of closed-loop publish bursts on 1 thread, then an open loop of "
        "publishes on 1 thread beside a control stream on 1 thread; the control stream's "
        "subscriptions are cancelled after each round",
    ),
    "churn": Spec(
        name="churn",
        why="in-process, 500 subs over 60 services (~50 live), closed-loop mutator 80% "
        "register/deregister: reselection holds the broker lock beside 50/s publishes and reads",
        subscriptions=500,
        services=60,
        stable_services=40,
        live_churning=10,
        open_rate=50.0,
        control_rate=25.0,
        control_mix=(("pull-last", 1.0),),
        mutation_mix=(("register-deregister", 0.8), ("subscribe-unsubscribe", 0.2)),
        stable_subscriptions=100,
        mean_fanout=20.0,
        think_seconds=1.0,
        threads=2,
        loops="closed-loop mutator on 1 thread throughout, beside rounds of closed-loop "
        "publish bursts, then open-loop publishes and pull-last, on 1 thread",
    ),
    "wire": Spec(
        name="wire",
        why="broker process restarted from a 200 subs x 20 services snapshot, 2 HTTP clients: "
        "envelope routing, one connection per push and per-mutation snapshots dominate",
        subscriptions=200,
        services=30,
        stable_services=20,
        live_churning=0,
        open_rate=30.0,
        control_rate=8.0,
        control_mix=(
            ("pull-last", 0.60),
            ("pull-current", 0.15),
            ("subscribe-unsubscribe", 0.20),
            ("register-deregister", 0.05),
        ),
        stable_subscriptions=200,
        mean_fanout=10.0,
        round_seconds=6.0,
        bursts_per_round=3,
        burst_pubs=30,
        # two whole cycles of the control mix, so every phase holds the
        # same mutations: one register and one deregister among them
        open_seconds=5.0,
        threads=2,
        connections=2,
        loops="broker in its own process restarted from a snapshot; rounds of closed-loop "
        "publish bursts, then open loop on 2 client connections: publishes, and control/reads",
    ),
}


def _tilt(x: list[float], a: float, b: float) -> list[float]:
    exponents = [a * v + b * v * v for v in x]
    top = max(exponents)
    return [math.exp(e - top) for e in exponents]


def _moments(x: list[float], w: list[float]) -> tuple[float, float]:
    """(mean, second moment / mean) of ``x`` under weights ``w``."""
    total = sum(w)
    first = sum(v * wt for v, wt in zip(x, w)) / total
    return first, sum(v * v * wt for v, wt in zip(x, w)) / total / first


def _fit(x: list[float], ratio: float) -> list[float]:
    """Weights ``exp(a x + b x^2)`` with mean 1 and second moment / mean
    ``ratio``, by nested bisection; the nearest reachable values when the
    seed's pairs cannot meet them exactly."""

    def centred(b: float) -> list[float]:
        lo, hi = -60.0, 60.0
        for _ in range(60):
            a = (lo + hi) / 2
            lo, hi = (a, hi) if _moments(x, _tilt(x, a, b))[0] < 1.0 else (lo, a)
        return _tilt(x, lo, b)

    lo, hi = -30.0, 30.0
    for _ in range(60):
        b = (lo + hi) / 2
        lo, hi = (b, hi) if _moments(x, centred(b))[1] < ratio else (lo, b)
    return centred(lo)


def _offer(rng: random.Random, service_id: str) -> ServiceOffer:
    count = rng.choice((2, 3, 3, 4))
    topics = tuple(sorted(rng.sample(TOPICS, count), key=TOPICS.index))
    # Levels on a 0.01 grid, never 1.0, so equal scores happen now and
    # then (ties) and a floor of 1.0 is unprovisionable.
    qoc = {
        t: tuple(rng.randint(30, 99) / 100 for _ in range(CATALOG.qoc_count)) for t in topics
    }
    qos = tuple(rng.randint(55, 99) / 100 for _ in range(CATALOG.qos_count))
    return ServiceOffer(
        service_id=service_id,
        cloud_id=f"cloud-{rng.randint(1, 3)}",
        offered_topics=topics,
        qoc_offer=qoc,
        qos_offer=qos,
    )


def _profile(rng: random.Random, unprovisionable: bool) -> RequirementProfile:
    count = rng.choice((1, 2, 2, 3, 3, 4))
    topics = tuple(rng.sample(TOPICS, count))
    qoc_min = [
        [rng.choice((0.0, rng.randint(0, 45) / 100)) for _ in range(CATALOG.qoc_count)]
        for _ in topics
    ]
    if unprovisionable:
        qoc_min[rng.randrange(len(topics))][rng.randrange(CATALOG.qoc_count)] = 1.0
    qos_min = tuple(rng.randint(0, 50) / 100 for _ in range(CATALOG.qos_count))
    weights = tuple(
        tuple(rng.randint(0, 10) / 10 for _ in range(CATALOG.qoc_count)) for _ in topics
    )
    return RequirementProfile(topics=topics, qoc_min=tuple(map(tuple, qoc_min)),
                              qos_min=qos_min, weights=weights)


class Workload:
    """Every input of one workload run, derived from ``(spec, seed)``."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.catalog = CATALOG
        rng = random.Random(f"{spec.name}:{seed}:registry")
        self.offers = [_offer(rng, f"svc-{i:03d}") for i in range(spec.services)]
        self.stable = self.offers[: spec.stable_services]
        self.churning = self.offers[spec.stable_services:]
        self.initial_offers = self.stable + self.churning[: spec.live_churning]
        self.profiles = [
            _profile(rng, rng.random() < spec.unprovisionable_share)
            for _ in range(spec.subscriptions)
        ]
        self.publish_pairs, self.publish_weights = self._publishers()

    def _publishers(self) -> tuple[list[tuple[str, str]], list[float]]:
        """Skewed publishers over (stable service, offered topic) pairs.

        Per-delivery latency grows with the number of receivers queued
        ahead, so it depends on the fan-out distribution, not only on its
        mean. Which pairs reach how many subscriptions (the reference's
        routes) differs a lot from seed to seed, so the weights are fitted
        per seed: only pairs reaching 1 to ``FANOUT_CAP`` x ``mean_fanout``
        subscriptions publish, with weights ``exp(a x + b x^2)`` of their
        reach ``x`` (in units of ``mean_fanout``), where ``a`` and ``b``
        make a publication reach ``mean_fanout`` subscriptions on average
        and a delivery belong to a publication reaching ``FANOUT_RATIO`` x
        ``mean_fanout`` on average. That keeps the work per publication and
        the queue ahead of a delivery the same from seed to seed.
        """
        ref, _ = self.reference()
        sizes = {key: len(subs) for key, subs in ref.routes().items()}
        target = self.spec.mean_fanout
        pairs = [(o.service_id, t) for o in self.stable for t in o.offered_topics
                 if 0 < sizes.get((t, o.service_id), 0) <= FANOUT_CAP * target]
        return pairs, _fit([sizes[(t, s)] / target for s, t in pairs], FANOUT_RATIO)

    def reference(self, sub_ids: list[str] | None = None) -> tuple[RefBroker, list]:
        """Reference state after set-up, and the advisories set-up caused:
        the initial offers registered, then ``profiles[i]`` subscribed as
        ``sub_ids[i]`` (default ``s0``, ``s1``, ...)."""
        if sub_ids is None:
            sub_ids = [f"s{i}" for i in range(len(self.profiles))]
        ref = RefBroker(self.offers)
        for offer in self.initial_offers:
            ref.register(offer.service_id)
        advisories = []
        for sub_id, profile in zip(sub_ids, self.profiles):
            advisories += ref.subscribe(sub_id, profile)
        return ref, advisories

    def pull_targets(self, sub_ids: list[str], ref: RefBroker) -> list[tuple[str, str]]:
        """(subscription, topic) pairs a pull never fails on: a stable
        subscription and a topic with an admissible always-registered
        service."""
        stable = {o.service_id for o in self.stable}
        return [(sub_id, topic)
                for sub_id, profile in zip(sub_ids[: self.spec.stable_subscriptions], self.profiles)
                for topic in profile.topics
                if any(ref.admissible(sub_id, topic, sid) for sid in stable)]

    def publishes(self, stream: str) -> Iterator[tuple[str, str]]:
        """Endless (service_id, topic) publication stream."""
        rng = random.Random(f"{self.spec.name}:{self.seed}:publish:{stream}")
        pairs, weights = self.publish_pairs, self.publish_weights
        while True:
            yield from rng.choices(pairs, weights, k=256)

    def fresh_profiles(self, stream: str) -> Iterator[RequirementProfile]:
        """Endless stream of profiles for subscriptions made during the run."""
        rng = random.Random(f"{self.spec.name}:{self.seed}:profiles:{stream}")
        while True:
            yield _profile(rng, rng.random() < self.spec.unprovisionable_share)

    def rng(self, stream: str) -> random.Random:
        """An independent seeded stream for choices made during the run."""
        return random.Random(f"{self.spec.name}:{self.seed}:{stream}")


class ServicePool:
    """The churning services: registers an idle one and deregisters a live
    one in turn, each picked by ``rng``."""

    def __init__(self, w: Workload, rng: random.Random) -> None:
        self.offers = {o.service_id: o for o in w.churning}
        self.live = [o.service_id for o in w.churning[: w.spec.live_churning]]
        self.idle = [o.service_id for o in w.churning[w.spec.live_churning:]]
        self.rng = rng
        self.register_next = itertools.cycle((True, False))

    def next(self) -> tuple[str, ServiceOffer]:
        """``("register", offer)`` or ``("deregister", offer)``."""
        if next(self.register_next):
            sid = self.idle.pop(self.rng.randrange(len(self.idle)))
            self.live.append(sid)
            return "register", self.offers[sid]
        sid = self.live.pop(self.rng.randrange(len(self.live)))
        self.idle.append(sid)
        return "deregister", self.offers[sid]


def schedule(mix: tuple[tuple[str, float], ...], length: int = 20) -> Iterator[str]:
    """Endless sequence of operation kinds with exactly the mix's shares in
    every ``length`` operations, spread evenly, so every run gets the same
    composition; the seed still picks each operation's target."""
    slots = []
    for kind, share in mix:
        count = round(share * length)
        slots += [((i + 0.5) / count, kind) for i in range(count)]
    return itertools.cycle([kind for _, kind in sorted(slots)])
