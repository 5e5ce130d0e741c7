"""End-to-end metrics and the reference check of one workload run."""

from __future__ import annotations

import resource
from collections import defaultdict

from . import harness
from .harness import RunLog, median, percentile
from .reference import check_deliveries, check_reads

MUTATIONS = ("subscribe", "unsubscribe", "register", "deregister")
END_TO_END = {  # gated in BENCHMARK.json
    "setup_s": "s",
    "publish_hz": "1/s",
    "deliver_p50_ms": "ms",
    "ack_p50_ms": "ms",
    "ack_p90_ms": "ms",
    "pull_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed but not gated: between two sets of runs of the same code on a
# shared machine it moved by up to 0.7 with the other tenants' load.
PRINTED_ONLY = {"deliver_p99_ms": "ms"}
HIGHER_IS_BETTER = {"publish_hz"}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def check(result: dict) -> tuple[int, int, list[str]]:
    """Reference check: (attempted, failed, errors)."""
    log: RunLog = result["log"]
    verdict = check_deliveries(result["ref"], log.mutations, log.publications, log.receipts,
                               result["advisories"])
    errors = list(verdict.errors)
    errors += check_reads(result["ref_factory"](), log.mutations, log.pulls, log.decisions,
                          log.samples, harness.BASE_MS)
    attempted = log.requests + verdict.expected
    failed = log.failed + verdict.missing
    return attempted, failed, errors


def end_to_end(result: dict, normalise: bool = True) -> dict[str, float]:
    """Deliveries are timed from the publication's due time, requests
    from when they were sent (how late the generator sent them is
    ``gen.late_*``). Delivery percentiles are taken per open-loop phase
    and reported as the median over phases, so a few phases disturbed by
    other work on the machine do not move them; the rarer requests are
    pooled over the run. Burst rates are the median over bursts. With
    ``normalise`` every timed sample is first brought to the reference
    speed (see ``harness.Speedometer``)."""
    log: RunLog = result["log"]
    slow = log.speed.at if normalise else (lambda t: 1.0)
    pubs = {p.pub_id: p for p in log.publications}
    last_receipt: dict[int, float] = {}
    delivered: dict[int, list[float]] = defaultdict(list)
    for r in log.receipts:
        if r.pub_id is None or r.pub_id not in pubs:
            continue
        if r.at > last_receipt.get(r.pub_id, 0.0):
            last_receipt[r.pub_id] = r.at
        due = pubs[r.pub_id].due
        delivered[r.pub_id].append((r.at - due) * 1000.0 / slow(due))
    rates = []
    for first, stop, start in log.bursts:
        ends = [last_receipt.get(i, pubs[i].end) for i in range(first, stop) if i in pubs]
        if ends:
            rates.append((stop - first) / (max(ends) - start) * slow(start))
    p50s, p99s = [], []
    for first, stop in log.open_ranges:
        phase = [v for i in range(first, stop) for v in delivered.get(i, ())]
        if phase:
            p50s.append(percentile(phase, 50))
            p99s.append(percentile(phase, 99))
    by_kind = defaultdict(list)
    for op in log.ops:
        if op.ok:
            by_kind[op.kind].append((op.end - op.start) * 1000.0 / slow(op.start))
    acks = [v for k in MUTATIONS for v in by_kind[k]]
    return {
        "setup_s": median([t / s if normalise else t for t, s in result["setups"]]),
        "publish_hz": median(rates),
        "deliver_p50_ms": median(p50s),
        "deliver_p99_ms": median(p99s),
        "ack_p50_ms": percentile(acks, 50),
        "ack_p90_ms": percentile(acks, 90),
        "pull_p50_ms": percentile(by_kind["pull-last"], 50),
        "peak_rss_mb": result["rss_mb"],
    }


def sample_counts(result: dict) -> dict[str, int]:
    log: RunLog = result["log"]
    kinds = defaultdict(int)
    for op in log.ops:
        kinds[op.kind] += 1
    return {
        "bursts": len(log.bursts),
        "publications": len(log.publications),
        "open_loop_publications": sum(stop - first for first, stop in log.open_ranges),
        "receipts": len(log.receipts),
        "mutation_acks": sum(kinds[k] for k in MUTATIONS),
        "pulls": kinds["pull-last"] + kinds["pull-current"],
        "setups": len(result["setups"]),
    }
