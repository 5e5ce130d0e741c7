"""The in-process workloads, ``fanout`` and ``churn``: a ``ContextBroker``
driven directly, with a recording transport standing in for consumers."""

from __future__ import annotations

import itertools
import threading
from typing import Any

from ctxbroker import errors
from ctxbroker.broker import ContextBroker, DeliveryStatus

from . import harness, metrics
from .gen import ServicePool, Workload, schedule
from .harness import Op, RunLog, now
from .reference import Mutation, Publication, RefBroker, RouteSizes


class Recorder:
    """Consumer side of the in-process transport: every push is a receipt."""

    def __init__(self, log: RunLog) -> None:
        self.log = log

    def push(self, callback_address: str, message: dict[str, Any]) -> DeliveryStatus:
        self.log.receipts.append(harness.receipt_from_message(message, now()))
        return DeliveryStatus(delivered=True, attempts=1)

    def pull(self, service_address: str, topic: str) -> dict[str, Any]:
        raise errors.UpstreamUnavailable("the in-process workloads only read the cache")


class Driver:
    """Issues timed operations against one broker and logs them."""

    def __init__(self, workload: Workload, tracer=None) -> None:
        self.w = workload
        self.tracer = tracer
        self.log = RunLog()
        self.broker = ContextBroker(workload.catalog, transport=Recorder(self.log))
        self.reg_ids: dict[str, str] = {}
        self.sub_ids: list[str] = []

    def _tag(self, request_id: str) -> None:
        if self.tracer is not None:
            self.tracer.request(request_id)

    def setup(self) -> float:
        """Register the initial offers, prime the cache, admit the
        initial subscriptions; returns the elapsed seconds."""
        start = now()
        for offer in self.w.initial_offers:
            self.reg_ids[offer.service_id] = self.broker.register_context_service(
                offer, f"local:{offer.service_id}")
        for offer in self.w.stable:
            for topic in offer.offered_topics:
                pub_id, sample = self.log.new_sample(offer.service_id, topic)
                self.broker.notify_context_change(offer.service_id, sample)
                self.log.samples[pub_id] = (offer.service_id, topic, now())
        for i, profile in enumerate(self.w.profiles):
            sub_id = self.broker.subscribe(f"consumer-{i}", profile, f"local:consumer-{i}")
            self.sub_ids.append(sub_id)
        return now() - start

    def reference(self) -> tuple[RefBroker, list]:
        """Reference state right after set-up, and the advisories it sent."""
        return self.w.reference(self.sub_ids)

    # -- operations ---------------------------------------------------------

    def publish(self, service_id: str, topic: str, due: float | None = None) -> None:
        pub_id, sample = self.log.new_sample(service_id, topic)
        self._tag(f"pub-{pub_id}")
        self.log.request()
        start = now()
        try:
            self.broker.notify_context_change(service_id, sample)
        except errors.BrokerError as exc:
            self.log.fail(f"notify {service_id}/{topic}: {exc.code} {exc}")
            return
        end = now()
        self.log.samples[pub_id] = (service_id, topic, end)
        self.log.publications.append(
            Publication(pub_id, service_id, topic, start, end, start if due is None else due))

    def _mutate(self, kind: str, op: str, call, arg_of, due: float | None) -> Any:
        self._tag(f"{kind}-{len(self.log.ops)}")
        self.log.request()
        start = now()
        try:
            result = call()
        except errors.BrokerError as exc:
            end = now()
            self.log.fail(f"{kind}: {exc.code} {exc}")
            self.log.ops.append(Op(kind, start if due is None else due, start, end, False))
            return None
        end = now()
        self.log.ops.append(Op(kind, start if due is None else due, start, end, True))
        self.log.mutations.append(Mutation(op, arg_of(result), start, end))
        return result

    def subscribe(self, consumer: str, profile, due: float | None = None) -> str | None:
        return self._mutate(
            "subscribe", "subscribe",
            lambda: self.broker.subscribe(consumer, profile, f"local:{consumer}"),
            lambda sid: (sid, profile), due)

    def unsubscribe(self, sub_id: str, due: float | None = None, kind: str = "unsubscribe") -> None:
        self._mutate(kind, "unsubscribe", lambda: self.broker.unsubscribe(sub_id),
                     lambda _: sub_id, due)

    def register(self, offer, due: float | None = None) -> None:
        reg_id = self._mutate(
            "register", "register",
            lambda: self.broker.register_context_service(offer, f"local:{offer.service_id}"),
            lambda _: offer.service_id, due)
        if reg_id is not None:
            self.reg_ids[offer.service_id] = reg_id

    def deregister(self, service_id: str, due: float | None = None) -> None:
        reg_id = self.reg_ids.pop(service_id)
        self._mutate("deregister", "deregister",
                     lambda: self.broker.deregister_context_service(reg_id),
                     lambda _: service_id, due)

    def pull_last(self, sub_id: str, topic: str, due: float) -> None:
        self._tag(f"pull-{len(self.log.ops)}")
        self.log.request()
        start = now()
        try:
            sample = self.broker.get_last_topic_value(sub_id, topic)
        except errors.BrokerError as exc:
            self.log.fail(f"pull-last {sub_id}/{topic}: {exc.code} {exc}")
            self.log.ops.append(Op("pull-last", due, start, now(), False))
            return
        end = now()
        self.log.ops.append(Op("pull-last", due, start, end, True))
        self.log.pulls.append((sub_id, topic, sample.to_dict(), start, end, "pull-last"))

    def sample_decision(self, sub_id: str) -> None:
        self.log.request()
        start = now()
        decision = self.broker.get_decision(sub_id)
        self.log.decisions.append((sub_id, tuple(decision.selected), start, now()))

    def bursts(self, pubs, route_sizes: RouteSizes) -> None:
        spec = self.w.spec
        harness.bursts(self.log, spec.burst_pubs, spec.bursts_per_round, pubs, route_sizes,
                       self.publish)

    def close(self) -> None:
        self.broker.close()


def set_up(w: Workload, tracer) -> tuple[Driver, list[tuple[float, float]]]:
    speed = harness.Speedometer()
    driver, times = harness.set_ups(lambda: _fresh(w, tracer), Driver.close, speed)
    driver.log.speed = speed
    return driver, times


def _fresh(w: Workload, tracer) -> tuple[Driver, float]:
    driver = Driver(w, tracer)
    return driver, driver.setup()


def run_fanout(w: Workload, seconds: float, tracer=None) -> dict:
    spec = w.spec
    driver, setups = set_up(w, tracer)
    ref, advisories = driver.reference()
    route_sizes = RouteSizes(driver.reference()[0], driver.log.mutations)
    targets = w.pull_targets(driver.sub_ids, ref)
    rng = w.rng("control")
    kinds = schedule(spec.control_mix)
    profiles = w.fresh_profiles("control")
    burst_pubs, open_pubs = w.publishes("burst"), w.publishes("open")
    probes: list[str] = []  # subscriptions the control stream admitted this phase
    pub_times, ctl_times = w.rng("publish-times"), w.rng("control-times")

    def control(i: int, due: float) -> None:
        if next(kinds) == "pull-last":
            driver.pull_last(*rng.choice(targets), due=due)
        else:
            sub_id = driver.subscribe(f"probe-{len(driver.log.ops)}", next(profiles), due=due)
            if sub_id is not None:
                probes.append(sub_id)

    def open_phase(until: float) -> None:
        harness.run_threads(
            lambda: harness.open_loop(
                spec.open_rate, until,
                lambda i, due: driver.publish(*next(open_pubs), due=due), driver.log, pub_times),
            lambda: harness.open_loop(spec.control_rate, until, control, driver.log, ctl_times),
        )
        while probes:  # back to the static registry, outside the timed phases
            driver.unsubscribe(probes.pop(), kind="cleanup-unsubscribe")

    t0 = now()
    harness.rounds(seconds, spec.round_seconds, spec.open_seconds, driver.log,
                   lambda: driver.bursts(burst_pubs, route_sizes), open_phase)
    for sub_id in rng.sample(driver.sub_ids, 50):
        driver.sample_decision(sub_id)
    return _finish(driver, ref, advisories, setups, t0)


def run_churn(w: Workload, seconds: float, tracer=None) -> dict:
    spec = w.spec
    driver, setups = set_up(w, tracer)
    ref, advisories = driver.reference()
    route_sizes = RouteSizes(driver.reference()[0], driver.log.mutations)
    targets = w.pull_targets(driver.sub_ids, ref)
    stable_subs = driver.sub_ids[: spec.stable_subscriptions]
    churnable = driver.sub_ids[spec.stable_subscriptions:]
    stop = threading.Event()
    mrng = w.rng("mutator")
    services = ServicePool(w, mrng)
    kinds = schedule(spec.mutation_mix, 10)
    profiles = w.fresh_profiles("mutator")

    gate = threading.Lock()  # held by each mutation, and by each burst phase as a whole

    def mutator() -> None:
        unsubscribe_next = itertools.cycle((True, False))
        while not stop.is_set():
            kind = next(kinds)
            with gate:
                mutate(kind, next(unsubscribe_next) if kind == "subscribe-unsubscribe" else False)
            stop.wait(spec.think_seconds)

    def mutate(kind: str, unsubscribe: bool) -> None:
        if kind == "register-deregister":
            op, offer = services.next()
            if op == "register":
                driver.register(offer)
            else:
                driver.deregister(offer.service_id)
        elif unsubscribe:
            driver.unsubscribe(churnable.pop(mrng.randrange(len(churnable))))
        else:
            sub_id = driver.subscribe(f"churn-{len(driver.log.ops)}", next(profiles))
            if sub_id is not None:
                churnable.append(sub_id)
        driver.sample_decision(mrng.choice(stable_subs))

    rng, times = w.rng("reads"), w.rng("times")
    burst_pubs, open_pubs = w.publishes("burst"), w.publishes("open")
    total = spec.open_rate + spec.control_rate
    steps = schedule((("publish", spec.open_rate / total), ("pull-last", spec.control_rate / total)), 3)

    def step(i: int, due: float) -> None:
        if next(steps) == "pull-last":
            driver.pull_last(*rng.choice(targets), due=due)
        else:
            driver.publish(*next(open_pubs), due=due)

    def paused_bursts() -> None:
        with gate:  # the mutator waits while the publisher bursts
            driver.bursts(burst_pubs, route_sizes)

    def load() -> None:
        try:
            harness.rounds(
                seconds, spec.round_seconds, spec.open_seconds, driver.log, paused_bursts,
                lambda until: harness.open_loop(spec.open_rate + spec.control_rate, until,
                                                step, driver.log, times),
                idle=gate)
        finally:
            stop.set()

    t0 = now()
    harness.run_threads(mutator, load)
    return _finish(driver, ref, advisories, setups, t0)


def _finish(driver: Driver, ref: RefBroker, advisories, setups, measure_from: float) -> dict:
    """Wait for the deliveries, close the broker, hand back what the
    metrics and the reference check need."""
    harness.wait_receipts(driver.log, None, now() + 10.0, quiet=0.3)
    driver.close()
    return {
        "rss_mb": metrics.peak_rss_mb(children=False),
        "log": driver.log,
        "ref": ref,
        "ref_factory": lambda: driver.reference()[0],
        "advisories": advisories,
        "setups": setups,
        "measure_from": measure_from,
        "live_subs": len(driver.sub_ids),
    }
