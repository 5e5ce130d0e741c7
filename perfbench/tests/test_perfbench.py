"""Tests of the benchmark's own generator and reference checker."""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import pytest  # noqa: E402

from ctxbroker.model import RequirementProfile, ServiceOffer  # noqa: E402
from ctxbroker.selection import oracle_select  # noqa: E402

from perfbench.gen import FANOUT_CAP, FANOUT_RATIO, SPECS, ServicePool, Workload, _moments  # noqa: E402
from perfbench.harness import Speedometer  # noqa: E402
from perfbench.reference import (  # noqa: E402
    Mutation,
    Publication,
    Receipt,
    RefBroker,
    check_deliveries,
    check_reads,
    ranking,
    winner,
)


def _inputs(w: Workload) -> tuple:
    return (
        [o.to_dict() for o in w.offers],
        [p.to_dict() for p in w.profiles],
        w.publish_pairs,
        w.publish_weights,
        list(itertools.islice(w.publishes("open"), 300)),
        [p.to_dict() for p in itertools.islice(w.fresh_profiles("control"), 5)],
        [w.rng("control").random() for _ in range(5)],
    )


@pytest.mark.parametrize("name", ["churn", "wire"])
def test_generator_is_deterministic_per_seed(name):
    first = _inputs(Workload(SPECS[name], 7))
    assert first == _inputs(Workload(SPECS[name], 7))
    assert first[:2] != _inputs(Workload(SPECS[name], 8))[:2]


@pytest.mark.parametrize("seed", [1, 3])
def test_publishers_meet_the_fanout_targets(seed):
    w = Workload(SPECS["fanout"], seed)
    ref, _ = w.reference()
    sizes = {key: len(subs) for key, subs in ref.routes().items()}
    reach = [sizes[(t, s)] for s, t in w.publish_pairs]
    mean, ratio = _moments(reach, w.publish_weights)
    assert mean == pytest.approx(SPECS["fanout"].mean_fanout, rel=1e-3)
    assert ratio == pytest.approx(FANOUT_RATIO * SPECS["fanout"].mean_fanout, rel=1e-3)
    assert max(reach) <= FANOUT_CAP * SPECS["fanout"].mean_fanout


def test_service_pool_alternates_register_and_deregister():
    w = Workload(SPECS["churn"], 4)
    pool = ServicePool(w, random.Random(1))
    live = set(pool.live)
    for i in range(40):
        op, offer = pool.next()
        assert op == ("register" if i % 2 == 0 else "deregister")
        assert (offer.service_id in live) == (op == "deregister")
        live ^= {offer.service_id}
    assert live == set(pool.live)


def test_speedometer_interpolates_between_calibrations():
    speed = Speedometer()
    assert speed.at(5.0) == 1.0
    speed.marks = [(0.0, 1.0), (10.0, 2.0)]
    assert [speed.at(t) for t in (-1.0, 0.0, 5.0, 10.0, 20.0)] == [1.0, 1.0, 1.5, 2.0, 2.0]


def _random_instance(rng: random.Random):
    topics = ("a", "b", "c")
    offers = []
    for i in range(rng.randint(0, 8)):
        offered = tuple(t for t in topics if rng.random() < 0.7)
        offers.append(ServiceOffer(
            service_id=f"s{rng.randint(0, 99):02d}-{i}",
            cloud_id="c",
            offered_topics=offered,
            # a coarse grid makes equal scores, and so the tie rule, common
            qoc_offer={t: tuple(rng.randint(0, 4) / 4 for _ in range(2)) for t in offered},
            qos_offer=(rng.randint(0, 4) / 4,),
        ))
    chosen = tuple(rng.sample(topics, rng.randint(1, 3)))
    profile = RequirementProfile(
        topics=chosen,
        qoc_min=tuple(tuple(rng.choice((0.0, 0.25, 0.5)) for _ in range(2)) for _ in chosen),
        qos_min=(rng.choice((0.0, 0.25, 0.5)),),
        weights=tuple(tuple(rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in range(2)) for _ in chosen),
    )
    return offers, profile


def test_reference_agrees_with_oracle_on_small_instances():
    rng = random.Random(2024)
    for _ in range(500):
        offers, profile = _random_instance(rng)
        live = {o.service_id for o in offers}
        ours = tuple(winner(r, live) for r in ranking(offers, profile))
        assert ours == oracle_select(offers, profile).selected


def test_reference_winner_follows_the_live_set():
    rng = random.Random(5)
    for _ in range(200):
        offers, profile = _random_instance(rng)
        live_offers = [o for o in offers if rng.random() < 0.6]
        live = {o.service_id for o in live_offers}
        ours = tuple(winner(r, live) for r in ranking(offers, profile))
        assert ours == oracle_select(live_offers, profile).selected


def _offer(service_id: str, level: float) -> ServiceOffer:
    return ServiceOffer(service_id, "c", ("t",), {"t": (level,)}, (1.0,))


def _profile() -> RequirementProfile:
    return RequirementProfile(("t",), ((0.0,),), (0.0,), ((1.0,),))


def _scenario():
    """svc-a beats svc-b for both subscriptions until svc-a leaves."""
    ref = RefBroker([_offer("svc-a", 0.9), _offer("svc-b", 0.5)])
    ref.register("svc-a")
    ref.register("svc-b")
    ref.subscribe("sub-1", _profile())
    ref.subscribe("sub-2", _profile())
    mutations = [Mutation("deregister", "svc-a", 10.0, 11.0)]
    pubs = [
        Publication(0, "svc-a", "t", 1.0, 1.1, 1.0),
        Publication(1, "svc-a", "t", 2.0, 2.1, 2.0),
        Publication(2, "svc-b", "t", 20.0, 20.1, 20.0),
    ]
    receipts = [
        Receipt(1.2, "sub-1", 0), Receipt(1.3, "sub-2", 0),
        Receipt(2.2, "sub-1", 1), Receipt(2.3, "sub-2", 1),
        Receipt(20.2, "sub-1", 2), Receipt(20.3, "sub-2", 2),
    ]
    return ref, mutations, pubs, receipts


def test_checker_accepts_a_correct_delivery_log():
    ref, mutations, pubs, receipts = _scenario()
    verdict = check_deliveries(ref, mutations, pubs, receipts)
    assert verdict.errors == []
    assert (verdict.expected, verdict.missing) == (6, 0)


@pytest.mark.parametrize("corrupt", ["wrong receiver", "duplicate", "reordered", "unknown"])
def test_checker_rejects_a_wrong_delivery_log(corrupt):
    ref, mutations, pubs, receipts = _scenario()
    if corrupt == "wrong receiver":
        receipts[4] = Receipt(20.2, "sub-3", 2)
    elif corrupt == "duplicate":
        receipts.insert(2, Receipt(1.4, "sub-1", 0))
    elif corrupt == "reordered":
        receipts[0], receipts[2] = Receipt(1.2, "sub-1", 1), Receipt(2.2, "sub-1", 0)
    else:
        receipts.append(Receipt(30.0, "sub-1", 9))
    assert check_deliveries(ref, mutations, pubs, receipts).errors


def test_checker_counts_a_missing_delivery_as_failed_not_wrong():
    ref, mutations, pubs, receipts = _scenario()
    del receipts[3]
    verdict = check_deliveries(ref, mutations, pubs, receipts)
    assert verdict.errors == []
    assert verdict.missing == 1


def test_checker_accepts_either_state_around_an_overlapping_mutation():
    ref, mutations, pubs, receipts = _scenario()
    # publication 1 overlaps the deregistration: routing by the old or the
    # new state (svc-a no longer wins anything) are both right
    pubs[1] = Publication(1, "svc-a", "t", 10.5, 10.6, 10.5)
    del receipts[2:4]
    verdict = check_deliveries(ref, mutations, pubs, receipts)
    assert verdict.errors == []
    assert verdict.missing == 0


def test_read_checker_rejects_a_wrong_winner():
    base_ms = 1000
    samples = {0: ("svc-a", "t", 1.1), 1: ("svc-b", "t", 1.2)}

    def sample(n: int, sid: str) -> dict:
        return {"topic": "t", "payload": {"n": n}, "produced_at": base_ms + n, "service_id": sid}

    right = [("sub-1", "t", sample(0, "svc-a"), 2.0, 2.1, "pull-last")]
    wrong = [("sub-1", "t", sample(1, "svc-b"), 2.0, 2.1, "pull-last")]
    decisions_wrong = [("sub-1", ("svc-b",), 2.0, 2.1)]
    assert check_reads(_scenario()[0], [], right, [], samples, base_ms) == []
    assert check_reads(_scenario()[0], [], wrong, [], samples, base_ms)
    assert check_reads(_scenario()[0], [], [], decisions_wrong, samples, base_ms)
