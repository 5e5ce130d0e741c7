"""Quality-domain types: indicator catalogs, requirement profiles, service
offers, published samples, and the normalization convention they share.

All quality values are unitless reals in [0, 1] where 1 is the highest
quality. Matrices are row-major tuples of tuples; row order follows the
profile's topic list and column order follows the catalog's indicator
lists, so index ``i`` always refers to the same indicator everywhere.

Types here are immutable after construction and deliberately do not
self-validate: :func:`validate_profile` and :func:`validate_offer` report
the first violated invariant, which lets tests construct broken values
on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

TopicId = str

Matrix = tuple[tuple[float, ...], ...]
Vector = tuple[float, ...]


class InvalidAnchorError(ValueError):
    """Raised when normalization anchors coincide or inputs are not finite."""


def normalize_raw(raw: float, best_raw: float, worst_raw: float) -> float:
    """Map a raw indicator reading onto the [0, 1] quality scale.

    The map is affine between the two declared anchors and clamped
    outside them. ``best_raw`` maps to 1, ``worst_raw`` maps to 0, and
    either polarity is allowed: for cost-like indicators (freshness in
    minutes, response time) pass ``best_raw < worst_raw``.
    """
    if not (math.isfinite(raw) and math.isfinite(best_raw) and math.isfinite(worst_raw)):
        raise InvalidAnchorError("raw value and anchors must be finite")
    if best_raw == worst_raw:
        raise InvalidAnchorError("anchors must differ (best_raw != worst_raw)")
    scaled = (raw - worst_raw) / (best_raw - worst_raw)
    return min(1.0, max(0.0, scaled))


def _as_vector(values: Sequence[float]) -> Vector:
    return tuple(float(v) for v in values)


def _as_matrix(rows: Sequence[Sequence[float]]) -> Matrix:
    return tuple(_as_vector(row) for row in rows)


@dataclass(frozen=True)
class IndicatorCatalog:
    """Ordered indicator names fixed per broker deployment.

    Column ``i`` of every QoC matrix means ``qoc_indicators[i]``; entry
    ``k`` of every QoS vector means ``qos_indicators[k]``.
    """

    qoc_indicators: tuple[str, ...]
    qos_indicators: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "qoc_indicators", tuple(self.qoc_indicators))
        object.__setattr__(self, "qos_indicators", tuple(self.qos_indicators))
        for group, names in (("qoc", self.qoc_indicators), ("qos", self.qos_indicators)):
            if not names:
                raise ValueError(f"catalog needs at least one {group} indicator")
            if any(not n or not isinstance(n, str) for n in names):
                raise ValueError(f"{group} indicator names must be non-empty strings")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {group} indicator name")

    @property
    def qoc_count(self) -> int:
        return len(self.qoc_indicators)

    @property
    def qos_count(self) -> int:
        return len(self.qos_indicators)

    def to_dict(self) -> dict[str, Any]:
        return {
            "qoc_indicators": list(self.qoc_indicators),
            "qos_indicators": list(self.qos_indicators),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IndicatorCatalog":
        return cls(
            qoc_indicators=tuple(data["qoc_indicators"]),
            qos_indicators=tuple(data["qos_indicators"]),
        )


@dataclass(frozen=True)
class RequirementProfile:
    """A consumer's per-topic QoC minimums, global QoS minimums and weights.

    ``qoc_min[j][i]`` is the floor for indicator ``i`` on topic ``j``;
    ``qos_min[k]`` applies to every topic. A zero minimum means the
    consumer placed no constraint on that indicator. ``weights[j][i]``
    expresses relative importance and defaults to all ones.
    """

    topics: tuple[TopicId, ...]
    qoc_min: Matrix
    qos_min: Vector
    weights: Matrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "topics", tuple(self.topics))
        object.__setattr__(self, "qoc_min", _as_matrix(self.qoc_min))
        object.__setattr__(self, "qos_min", _as_vector(self.qos_min))
        object.__setattr__(self, "weights", _as_matrix(self.weights))

    def topic_index(self, topic: TopicId) -> int:
        return self.topics.index(topic)

    def to_dict(self) -> dict[str, Any]:
        return {
            "topics": list(self.topics),
            "qoc_min": [list(row) for row in self.qoc_min],
            "qos_min": list(self.qos_min),
            "weights": [list(row) for row in self.weights],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RequirementProfile":
        weights = data.get("weights")
        if weights is None:
            # Missing weights keep the raw quality ordering.
            weights = [[1.0 for _ in row] for row in data["qoc_min"]]
        return cls(
            topics=data["topics"],
            qoc_min=data["qoc_min"],
            qos_min=data["qos_min"],
            weights=weights,
        )


@dataclass(frozen=True)
class ServiceOffer:
    """A context service's advertised per-topic QoC and global QoS levels.

    ``qoc_offer`` holds one length-m vector per offered topic; topics the
    service does not offer simply have no entry.
    """

    service_id: str
    cloud_id: str
    offered_topics: tuple[TopicId, ...]
    qoc_offer: dict[TopicId, Vector]
    qos_offer: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "offered_topics", tuple(self.offered_topics))
        object.__setattr__(
            self, "qoc_offer", {t: _as_vector(v) for t, v in self.qoc_offer.items()}
        )
        object.__setattr__(self, "qos_offer", _as_vector(self.qos_offer))

    def offers_topic(self, topic: TopicId) -> bool:
        return topic in self.qoc_offer

    def to_dict(self) -> dict[str, Any]:
        return {
            "service_id": self.service_id,
            "cloud_id": self.cloud_id,
            "offered_topics": list(self.offered_topics),
            "qoc_offer": {t: list(v) for t, v in self.qoc_offer.items()},
            "qos_offer": list(self.qos_offer),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceOffer":
        return cls(
            service_id=data["service_id"],
            cloud_id=data.get("cloud_id", "default"),
            offered_topics=data["offered_topics"],
            qoc_offer=data["qoc_offer"],
            qos_offer=data["qos_offer"],
        )


@dataclass(frozen=True)
class ContextSample:
    """One published value for one topic.

    ``produced_at`` is milliseconds since the Unix epoch, UTC. Streams
    are expected to be non-decreasing in ``produced_at`` per
    (service, topic); the broker rejects regressions on admission.
    """

    topic: TopicId
    payload: Any
    produced_at: int
    service_id: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "topic": self.topic,
            "payload": self.payload,
            "produced_at": self.produced_at,
            "service_id": self.service_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ContextSample":
        return cls(
            topic=data["topic"],
            payload=data["payload"],
            produced_at=int(data["produced_at"]),
            service_id=data["service_id"],
        )


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a profile/offer check; ``reason`` names the first violation."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_VALID = ValidationResult(True)


def _reject(reason: str) -> ValidationResult:
    return ValidationResult(False, reason)


def _check_unit_interval(values: Sequence[float], what: str) -> str | None:
    for i, v in enumerate(values):
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return f"{what}[{i}] is not a finite number"
        if not 0.0 <= v <= 1.0:
            return f"{what}[{i}] = {v} is outside [0, 1]"
    return None


def _check_topics(topics: Sequence[TopicId], what: str) -> str | None:
    if any(not t or not isinstance(t, str) for t in topics):
        return f"{what} contains an empty topic name"
    if len(set(topics)) != len(topics):
        return f"{what} contains a duplicate topic"
    return None


def validate_profile(
    profile: RequirementProfile, catalog: IndicatorCatalog
) -> ValidationResult:
    """Check every profile invariant against the catalog.

    Accepts iff topics are non-empty and unique, ``qoc_min`` is c x m,
    ``qos_min`` has length n, ``weights`` is c x m, minimums lie in
    [0, 1] and weights are non-negative. All-zero minimums are a valid,
    fully unconstrained profile.
    """
    c, m, n = len(profile.topics), catalog.qoc_count, catalog.qos_count
    if c == 0:
        return _reject("profile has no topics")
    bad = _check_topics(profile.topics, "topics")
    if bad:
        return _reject(bad)
    if len(profile.qoc_min) != c:
        return _reject(f"qoc_min has {len(profile.qoc_min)} rows, expected {c}")
    for j, row in enumerate(profile.qoc_min):
        if len(row) != m:
            return _reject(f"qoc_min[{j}] has {len(row)} entries, expected {m}")
        bad = _check_unit_interval(row, f"qoc_min[{j}]")
        if bad:
            return _reject(bad)
    if len(profile.qos_min) != n:
        return _reject(f"qos_min has {len(profile.qos_min)} entries, expected {n}")
    bad = _check_unit_interval(profile.qos_min, "qos_min")
    if bad:
        return _reject(bad)
    if len(profile.weights) != c:
        return _reject(f"weights has {len(profile.weights)} rows, expected {c}")
    for j, row in enumerate(profile.weights):
        if len(row) != m:
            return _reject(f"weights[{j}] has {len(row)} entries, expected {m}")
        for i, w in enumerate(row):
            if not isinstance(w, (int, float)) or not math.isfinite(w):
                return _reject(f"weights[{j}][{i}] is not a finite number")
            if w < 0:
                return _reject(f"weights[{j}][{i}] = {w} is negative")
    return _VALID


def validate_offer(offer: ServiceOffer, catalog: IndicatorCatalog) -> ValidationResult:
    """Check every offer invariant against the catalog.

    ``qoc_offer`` must cover exactly the offered topics with length-m
    vectors; ``qos_offer`` must have one entry per catalog QoS indicator.
    """
    m, n = catalog.qoc_count, catalog.qos_count
    if not offer.service_id or not isinstance(offer.service_id, str):
        return _reject("service_id must be a non-empty string")
    if not offer.cloud_id or not isinstance(offer.cloud_id, str):
        return _reject("cloud_id must be a non-empty string")
    bad = _check_topics(offer.offered_topics, "offered_topics")
    if bad:
        return _reject(bad)
    if set(offer.qoc_offer) != set(offer.offered_topics):
        return _reject("qoc_offer keys must match offered_topics exactly")
    for topic in offer.offered_topics:
        vector = offer.qoc_offer[topic]
        if len(vector) != m:
            return _reject(f"qoc_offer[{topic!r}] has {len(vector)} entries, expected {m}")
        bad = _check_unit_interval(vector, f"qoc_offer[{topic!r}]")
        if bad:
            return _reject(bad)
    if len(offer.qos_offer) != n:
        return _reject(f"qos_offer has {len(offer.qos_offer)} entries, expected {n}")
    bad = _check_unit_interval(offer.qos_offer, "qos_offer")
    if bad:
        return _reject(bad)
    return _VALID
