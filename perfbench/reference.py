"""Independent reference for the paper's selection rule and the delivery
contract, used to check every benchmark run.

Shares no code with ``ctxbroker.selection``: a service is admissible for
a topic iff it offers the topic, meets every QoC floor of that topic and
every global QoS floor; its score is the weighted QoC sum; the best score
wins and scores within ``TIE`` of the best go to the smallest service id.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from ctxbroker.model import RequirementProfile, ServiceOffer

TIE = 1e-12


class CheckFailed(AssertionError):
    """The program's output disagrees with the reference."""


def score(offer: ServiceOffer, profile: RequirementProfile, j: int) -> float | None:
    """Weighted QoC sum of ``offer`` on topic ``j``; None if inadmissible."""
    levels = offer.qoc_offer.get(profile.topics[j])
    if levels is None:
        return None
    for level, floor in zip(offer.qos_offer, profile.qos_min):
        if level < floor:
            return None
    for level, floor in zip(levels, profile.qoc_min[j]):
        if level < floor:
            return None
    total = 0.0
    for weight, level in zip(profile.weights[j], levels):
        total += weight * level
    return total


def ranking(offers: Iterable[ServiceOffer], profile: RequirementProfile) -> list[list[tuple[float, str]]]:
    """Per topic of ``profile``: admissible (score, service id), best first."""
    out = []
    for j in range(len(profile.topics)):
        scored = []
        for offer in offers:
            s = score(offer, profile, j)
            if s is not None:
                scored.append((s, offer.service_id))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        out.append(scored)
    return out


def winner(ranked: list[tuple[float, str]], live: set[str] | frozenset[str]) -> str | None:
    """Best live service of one ranked list, ties within TIE to the smallest id."""
    best = None
    tied = []
    for s, sid in ranked:
        if sid not in live:
            continue
        if best is None:
            best = s
        elif s < best - TIE:
            break
        tied.append(sid)
    return min(tied) if tied else None


@dataclass
class _Sub:
    profile: RequirementProfile
    ranked: list[list[tuple[float, str]]]


class RefBroker:
    """Registry state replayed from the benchmark's own mutation log."""

    def __init__(self, pool: Iterable[ServiceOffer]) -> None:
        self.pool = {o.service_id: o for o in pool}
        self.live: set[str] = set()
        self.subs: dict[str, _Sub] = {}
        self.ever: dict[str, _Sub] = {}  # every subscription ever admitted
        self._routes: dict[tuple[str, str], list[str]] | None = None

    def winners(self, sub_id: str) -> tuple[str | None, ...]:
        sub = self.subs[sub_id]
        return tuple(winner(r, self.live) for r in sub.ranked)

    def admissible(self, sub_id: str, topic: str, service_id: str) -> bool:
        sub = self.ever[sub_id]
        return score(self.pool[service_id], sub.profile, sub.profile.topics.index(topic)) is not None

    # Mutations return the advisories they should cause: (sub_id, topics).

    def register(self, service_id: str) -> list[tuple[str, tuple[str, ...]]]:
        self.live.add(service_id)
        self._routes = None
        return []

    def deregister(self, service_id: str) -> list[tuple[str, tuple[str, ...]]]:
        before = {sid: self.winners(sid) for sid in self.subs}
        self.live.discard(service_id)
        self._routes = None
        advisories = []
        for sid, sub in self.subs.items():
            after = self.winners(sid)
            lost = tuple(t for t, b, a in zip(sub.profile.topics, before[sid], after)
                         if b is not None and a is None)
            if lost:
                advisories.append((sid, lost))
        return advisories

    def subscribe(self, sub_id: str, profile: RequirementProfile) -> list[tuple[str, tuple[str, ...]]]:
        if sub_id in self.subs:
            raise CheckFailed(f"subscription id {sub_id} handed out twice")
        self.subs[sub_id] = self.ever[sub_id] = _Sub(profile, ranking(self.pool.values(), profile))
        self._routes = None
        missing = tuple(t for t, w in zip(profile.topics, self.winners(sub_id)) if w is None)
        return [(sub_id, missing)] if missing else []

    def unsubscribe(self, sub_id: str) -> list[tuple[str, tuple[str, ...]]]:
        del self.subs[sub_id]
        self._routes = None
        return []

    def apply(self, op: str, arg) -> list[tuple[str, tuple[str, ...]]]:
        if op == "subscribe":
            return self.subscribe(*arg)
        return getattr(self, op)(arg)

    def routes(self) -> dict[tuple[str, str], list[str]]:
        """(topic, publisher) -> receiving subscriptions, in admission order."""
        if self._routes is None:
            routes: dict[tuple[str, str], list[str]] = defaultdict(list)
            for sid, sub in self.subs.items():
                for topic, ranked in zip(sub.profile.topics, sub.ranked):
                    w = winner(ranked, self.live)
                    if w is not None:
                        routes[(topic, w)].append(sid)
            self._routes = dict(routes)
        return self._routes


class RouteSizes:
    """Receivers per (topic, publisher) in the current state of a run, from
    its mutation log; tells a burst how many deliveries to wait for."""

    def __init__(self, ref: RefBroker, mutations: list["Mutation"]) -> None:
        self.ref = ref
        self.mutations = mutations
        self.applied = 0

    def __call__(self) -> dict[tuple[str, str], int]:
        while self.applied < len(self.mutations):
            m = self.mutations[self.applied]
            self.ref.apply(m.op, m.arg)
            self.applied += 1
        return {key: len(subs) for key, subs in self.ref.routes().items()}


@dataclass
class Mutation:
    op: str  # register, deregister, subscribe, unsubscribe
    arg: object  # service id, sub id, or (sub id, profile)
    start: float
    end: float


@dataclass
class Publication:
    pub_id: int
    service_id: str
    topic: str
    start: float  # call start
    end: float  # call return
    due: float  # scheduled time (call start for closed loops)


class Receipt(NamedTuple):
    at: float
    sub_id: str
    pub_id: int | None  # None for advisories
    topics: tuple[str, ...] = ()


@dataclass
class Verdict:
    expected: int = 0  # deliveries the reference expects (lower bound)
    missing: int = 0
    errors: list[str] = field(default_factory=list)


class StateLog:
    """Reference states S_0..S_M after each logged mutation of one
    sequential mutator, rebuilt lazily in order."""

    def __init__(self, base: RefBroker, mutations: list[Mutation]) -> None:
        self.ref = base
        self.mutations = mutations
        self.applied = 0
        self.advisories: list[tuple[str, tuple[str, ...]]] = []
        self._routes: dict[int, dict[tuple[str, str], list[str]]] = {}
        self._ends = [m.end for m in mutations]
        self._starts = [m.start for m in mutations]
        # per state: (live services, live subscriptions)
        self.members = [(frozenset(base.live), frozenset(base.subs))]

    def window(self, start: float, end: float) -> tuple[int, int]:
        """States an operation spanning [start, end] may have observed."""
        lo = bisect.bisect_right(self._ends, start)
        hi = bisect.bisect_left(self._starts, end)
        return lo, max(lo, hi)

    def advance(self, k: int) -> None:
        while self.applied < k:
            m = self.mutations[self.applied]
            self.advisories.extend(self.ref.apply(m.op, m.arg))
            self.applied += 1
            self._routes[self.applied] = self.ref.routes()
            self.members.append((frozenset(self.ref.live), frozenset(self.ref.subs)))

    def winner(self, k: int, sub_id: str, topic: str) -> str | None:
        """Winner of ``sub_id`` on ``topic`` in state ``k`` (already reached)."""
        sub = self.ref.ever[sub_id]
        return winner(sub.ranked[sub.profile.topics.index(topic)], self.members[k][0])

    def routes(self, k: int) -> dict[tuple[str, str], list[str]]:
        if k not in self._routes:
            if k < self.applied:
                raise CheckFailed("reference state requested out of order")
            self.advance(k)
            self._routes[k] = self.ref.routes()
        return self._routes[k]

    def forget_before(self, k: int) -> None:
        for key in [key for key in self._routes if key < k]:
            del self._routes[key]


def check_deliveries(
    base: RefBroker,
    mutations: list[Mutation],
    publications: list[Publication],
    receipts: list[Receipt],
    initial_advisories: list[tuple[str, tuple[str, ...]]] = (),
) -> Verdict:
    """Exactly-once, FIFO-per-subscription delivery against the reference.

    ``base`` is the reference state before the first logged mutation.
    Each publication's receivers must equal those of one reference state
    it may have observed (a publication overlapping a mutation may see
    the state before or after it); a receiver outside every such state,
    a duplicate or an out-of-order delivery is an error. Receivers the
    chosen state expects but that never arrived count as missing.
    Advisories must match the reference's as a multiset.
    """
    verdict = Verdict()
    states = StateLog(base, mutations)
    by_pub: dict[int, list[str]] = defaultdict(list)
    advisories_seen: dict[tuple[str, tuple[str, ...]], int] = defaultdict(int)
    last_pub: dict[str, int] = {}
    for r in receipts:
        if r.pub_id is None:
            advisories_seen[(r.sub_id, tuple(r.topics))] += 1
            continue
        by_pub[r.pub_id].append(r.sub_id)
        prev = last_pub.get(r.sub_id, -1)
        if r.pub_id <= prev:
            verdict.errors.append(
                f"{r.sub_id}: publication {r.pub_id} arrived after {prev} (FIFO or duplicate)")
        last_pub[r.sub_id] = r.pub_id
    known = {p.pub_id for p in publications}
    for pub_id in by_pub:
        if pub_id not in known:
            verdict.errors.append(f"delivery of unknown publication {pub_id}")

    for p in sorted(publications, key=lambda p: p.start):
        got = by_pub.get(p.pub_id, [])
        got_set = set(got)
        if len(got_set) != len(got):
            verdict.errors.append(f"publication {p.pub_id} delivered twice to one subscription")
        lo, hi = states.window(p.start, p.end)
        states.forget_before(lo)
        best_missing = None
        for k in range(lo, hi + 1):
            expected = states.routes(k).get((p.topic, p.service_id), [])
            if got_set <= set(expected):
                missing = len(expected) - len(got_set)
                if best_missing is None or missing < best_missing[0]:
                    best_missing = (missing, len(expected))
        if best_missing is None:
            verdict.errors.append(
                f"publication {p.pub_id} ({p.service_id}/{p.topic}) reached {sorted(got_set)[:5]}, "
                f"which no reference state in {lo}..{hi} routes it to")
            continue
        verdict.missing += best_missing[0]
        verdict.expected += best_missing[1]
    states.advance(len(mutations))

    expected_adv: dict[tuple[str, tuple[str, ...]], int] = defaultdict(int)
    for a in list(initial_advisories) + states.advisories:
        expected_adv[a] += 1
    for key, count in advisories_seen.items():
        if count > expected_adv.get(key, 0):
            verdict.errors.append(f"unexpected advisory {key}")
    for key, count in expected_adv.items():
        verdict.expected += count
        verdict.missing += max(0, count - advisories_seen.get(key, 0))
    return verdict


def check_reads(
    base: RefBroker,
    mutations: list[Mutation],
    pulls: list[tuple],
    decisions: list[tuple],
    samples: dict[int, tuple[str, str, float]],
    base_ms: int,
) -> list[str]:
    """Check sampled pull and decision answers against the reference.

    ``pulls`` holds (sub_id, topic, sample dict, start, end, kind) and
    ``decisions`` holds (sub_id, selected winners, start, end). An answer
    passes if it is right in some reference state the request may have
    observed. ``pull-current`` must come from the winner. ``pull-last``
    must come from the winner, no older than the winner's last sample
    published before the request, when the winner has published; otherwise
    from any live admissible service. Samples must be ones that were
    published (payload ``n`` is the publication id) or the service
    endpoint's placeholder (``n`` = -1), which a pull-current may cache.
    """
    errors: list[str] = []
    published: dict[tuple[str, str], list[tuple[float, int]]] = defaultdict(list)
    for pub_id, (sid, topic, end) in samples.items():
        published[(sid, topic)].append((end, pub_id))
    for series in published.values():
        series.sort()

    def latest_before(sid: str, topic: str, t: float) -> int | None:
        series = published.get((sid, topic), [])
        i = bisect.bisect_right(series, (t, float("inf")))
        return max(p for _, p in series[:i]) if i else None

    items = [(p[3], 0, p) for p in pulls] + [(d[2], 1, d) for d in decisions]
    items.sort(key=lambda item: (item[0], item[1]))
    states = StateLog(base, mutations)
    for _, is_decision, item in items:
        start, end = (item[2], item[3]) if is_decision else (item[3], item[4])
        lo, hi = states.window(start, end)
        states.advance(hi)
        if is_decision:
            sub = states.ref.ever[item[0]]
            candidates = [
                tuple(states.winner(k, item[0], t) for t in sub.profile.topics)
                for k in range(lo, hi + 1) if item[0] in states.members[k][1]
            ]
        else:
            candidates = [(states.winner(k, item[0], item[1]), states.members[k][0])
                          for k in range(lo, hi + 1)]
        if is_decision:
            if tuple(item[1]) not in candidates:
                errors.append(f"decision of {item[0]}: {item[1]} not in reference {candidates}")
            continue
        sub_id, topic, sample, _, _, kind = item
        n = sample["payload"]["n"]
        sid = sample["service_id"]
        if sample["topic"] != topic:
            errors.append(f"{kind} {sub_id}/{topic}: answered topic {sample['topic']}")
            continue
        if n == -1 and sample["produced_at"] == base_ms - 1:
            pass  # the service endpoint's placeholder, cached by a pull-current
        elif samples.get(n, (None, None))[:2] != (sid, topic) or sample["produced_at"] != base_ms + n:
            errors.append(f"{kind} {sub_id}/{topic}: sample {sample} was never published")
            continue
        if kind == "pull-current":
            if sid not in {w for w, _ in candidates}:
                errors.append(f"pull-current {sub_id}/{topic}: from {sid}, reference {candidates}")
            continue
        ok = False
        for w, live in candidates:
            last = latest_before(w, topic, start) if w is not None else None
            if last is not None:
                ok = ok or (sid == w and n >= last)
            else:
                ok = ok or (sid in live and base.admissible(sub_id, topic, sid))
        if not ok:
            errors.append(f"pull-last {sub_id}/{topic}: got {sid} n={n}, reference {candidates}")
    return errors
