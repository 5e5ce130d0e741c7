"""Seeded random instance generators and an in-memory transport, shared
across suites. Quality values land on a 3-decimal grid so floating-point
products of distinct grid points never collide."""

from __future__ import annotations

import random
import threading
from typing import Any

from ctxbroker import errors
from ctxbroker.broker import DeliveryStatus
from ctxbroker.model import IndicatorCatalog, RequirementProfile, ServiceOffer


class RecordingTransport:
    """In-memory transport: records pushes, serves pulls from a value table."""

    def __init__(self):
        self.pushes: list[tuple[str, dict]] = []
        self.values: dict[str, dict[str, dict]] = {}
        self.dead_services: set[str] = set()
        self._lock = threading.Lock()

    def push(self, callback_address, message):
        with self._lock:
            self.pushes.append((callback_address, message))
        return DeliveryStatus(delivered=True, attempts=1)

    def pull(self, service_address, topic):
        if service_address in self.dead_services:
            raise errors.UpstreamUnavailable(f"{service_address} is down")
        sample = self.values.get(service_address, {}).get(topic)
        if sample is None:
            raise errors.UpstreamUnavailable(f"{service_address} has no value for {topic}")
        return sample

    def messages(self, callback_address, kind=None):
        with self._lock:
            return [
                m for addr, m in self.pushes
                if addr == callback_address and (kind is None or m["kind"] == kind)
            ]


def random_catalog(rng: random.Random, max_qoc: int = 5, max_qos: int = 4) -> IndicatorCatalog:
    m = rng.randint(1, max_qoc)
    n = rng.randint(1, max_qos)
    return IndicatorCatalog(
        qoc_indicators=tuple(f"q{i + 1}" for i in range(m)),
        qos_indicators=tuple(f"s{k + 1}" for k in range(n)),
    )


def random_profile(
    rng: random.Random, catalog: IndicatorCatalog, max_topics: int = 5
) -> RequirementProfile:
    c = rng.randint(1, max_topics)
    m, n = catalog.qoc_count, catalog.qos_count
    topics = tuple(f"t{j + 1}" for j in range(c))
    return RequirementProfile(
        topics=topics,
        qoc_min=tuple(
            tuple(
                0.0 if rng.random() < 0.3 else round(rng.uniform(0.0, 0.9), 3)
                for _ in range(m)
            )
            for _ in range(c)
        ),
        qos_min=tuple(
            0.0 if rng.random() < 0.4 else round(rng.uniform(0.0, 0.9), 3)
            for _ in range(n)
        ),
        weights=tuple(
            tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(m)) for _ in range(c)
        ),
    )


def random_offers(
    rng: random.Random,
    catalog: IndicatorCatalog,
    profile: RequirementProfile,
    max_services: int = 10,
    clouds: int = 1,
) -> list[ServiceOffer]:
    """Offers over the profile's topics; occasionally clones an earlier
    offer's vectors under a new id so exact score ties actually occur."""
    count = rng.randint(0, max_services)
    m, n = catalog.qoc_count, catalog.qos_count
    cloud_ids = [f"cloud{i + 1}" for i in range(clouds)]
    offers: list[ServiceOffer] = []
    for k in range(count):
        service_id = f"cs{k + 1:02d}"
        cloud_id = rng.choice(cloud_ids)
        if offers and rng.random() < 0.15:
            donor = rng.choice(offers)
            offers.append(
                ServiceOffer(
                    service_id=service_id,
                    cloud_id=cloud_id,
                    offered_topics=donor.offered_topics,
                    qoc_offer=dict(donor.qoc_offer),
                    qos_offer=donor.qos_offer,
                )
            )
            continue
        offered = tuple(
            sorted(rng.sample(profile.topics, rng.randint(1, len(profile.topics))))
        )
        offers.append(
            ServiceOffer(
                service_id=service_id,
                cloud_id=cloud_id,
                offered_topics=offered,
                qoc_offer={
                    t: tuple(round(rng.uniform(0.0, 1.0), 3) for _ in range(m))
                    for t in offered
                },
                qos_offer=tuple(round(rng.uniform(0.0, 1.0), 3) for _ in range(n)),
            )
        )
    return offers


def random_instance(
    rng: random.Random,
    max_services: int = 10,
    max_topics: int = 5,
    max_qoc: int = 5,
    max_qos: int = 4,
    clouds: int = 1,
) -> tuple[IndicatorCatalog, list[ServiceOffer], RequirementProfile]:
    catalog = random_catalog(rng, max_qoc, max_qos)
    profile = random_profile(rng, catalog, max_topics)
    offers = random_offers(rng, catalog, profile, max_services, clouds)
    return catalog, offers, profile


def random_payload(rng: random.Random) -> Any:
    kind = rng.randint(0, 3)
    if kind == 0:
        return f"value-{rng.randint(0, 10_000)}"
    if kind == 1:
        return rng.randint(-1000, 1000)
    if kind == 2:
        return {"reading": round(rng.uniform(-50, 50), 4), "unit": "C"}
    return [rng.randint(0, 9) for _ in range(rng.randint(0, 4))]


def random_sample(rng: random.Random):
    from ctxbroker.model import ContextSample

    return ContextSample(
        topic=f"t{rng.randint(1, 9)}",
        payload=random_payload(rng),
        produced_at=rng.randint(0, 10**12),
        service_id=f"cs{rng.randint(1, 99):02d}",
    )


def crash(service) -> None:
    """Stop a BrokerService as a crash would: no compaction, the journal
    left as its last append wrote it (only the process's handles close)."""
    service.broker.close()
    if service._journal is not None and service._journal.file is not None:
        service._journal.file.close()
