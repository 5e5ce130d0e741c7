"""Per-layer metrics of a traced run, from the recorded spans.

A span is (name, start_ns, end_ns, span_id, parent_id, request_id, info).
Only spans that start in the measured phase count, so set-up work shows
in ``service.restore_s`` and ``setup_s`` alone. Self time of a broker call is its duration minus the selection spans
directly under it. Metrics a workload does not exercise read 0.
"""

from __future__ import annotations

from collections import defaultdict

from .harness import RunLog, percentile

WIRE_KINDS = ("notify", "subscribe", "unsubscribe", "register", "deregister",
              "pull-last", "pull-current")
MUTATION_SPANS = ("broker.register", "broker.deregister", "broker.subscribe", "broker.unsubscribe")
SELECTION = "selection.build_decision_matrix"


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(result: dict, spans: list[tuple]) -> dict[str, tuple[float, str]]:
    log: RunLog = result["log"]
    measure_from = int(result["measure_from"] * 1e9)
    named: dict[str, list[tuple]] = defaultdict(list)
    restore_ns = 0
    for span in spans:
        if span[0] in ("service.load_snapshot", "broker.restore_state"):
            restore_ns += span[2] - span[1]
        elif span[1] >= measure_from:
            named[span[0]].append(span)
    dur = lambda span: span[2] - span[1]  # noqa: E731  (ns)
    selection_under: dict[int, int] = defaultdict(int)
    for span in named[SELECTION]:
        selection_under[span[4]] += dur(span)
    out: dict[str, tuple[float, str]] = {}

    # selection
    builds = named[SELECTION]
    mutation_ids = {s[3] for name in MUTATION_SPANS for s in named[name]}
    reselect_ids = {s[3] for name in ("broker.register", "broker.deregister") for s in named[name]}
    out["selection.matrix_calls"] = (
        sum(1 for s in builds if s[4] in mutation_ids) / max(1, len(mutation_ids)), "count")
    out["selection.matrix_us"] = (_mean([dur(s) / 1e3 for s in builds]), "us")
    cells = sum(s[6] for s in builds)
    out["selection.cell_ns"] = (sum(dur(s) for s in builds) / cells if cells else 0.0, "ns")
    reselections = sum(1 for s in builds if s[4] in reselect_ids)
    bumps = sum(1 for s in named["selection.revision_bump"] if s[4] in reselect_ids)
    out["selection.changed_ratio"] = (bumps / reselections if reselections else 0.0, "ratio")

    # broker
    for op in ("register", "deregister", "subscribe", "unsubscribe"):
        calls = named[f"broker.{op}"]
        out[f"broker.{op}_ms"] = (_mean([dur(s) / 1e6 for s in calls]), "ms")
        out[f"broker.{op}_self_ms"] = (
            _mean([(dur(s) - selection_under[s[3]]) / 1e6 for s in calls]), "ms")
    notifies = named["broker.notify"]
    pushes = named["dispatch.push"]
    receivers: dict[str, int] = defaultdict(int)
    for push in pushes:
        if push[6][0] is not None:
            receivers[push[6][0]] += 1
    fanout = [receivers.get(s[6], 0) for s in notifies]
    out["broker.notify_us"] = (_mean([dur(s) / 1e3 for s in notifies]), "us")
    out["broker.notify_receivers"] = (_mean(fanout), "count")
    out["broker.notify_hit_ratio"] = (_mean(fanout) / result["live_subs"], "ratio")
    out["broker.pull_last_us"] = (_mean([dur(s) / 1e3 for s in named["broker.pull_last"]]), "us")

    # dispatch
    notified_at = {s[6]: s[2] for s in notifies}
    waits, events = [], []
    for s in notifies:
        if receivers.get(s[6]):
            events.append((s[2], receivers[s[6]]))
    for push in pushes:
        key = push[6][0]
        if key in notified_at:
            waits.append((push[1] - notified_at[key]) / 1e6)
            events.append((push[2], -1))
    backlog = peak = 0
    for _, delta in sorted(events):
        backlog += delta
        peak = max(peak, backlog)
    out["dispatch.queue_wait_p50_ms"] = (percentile(waits, 50), "ms")
    out["dispatch.queue_wait_p99_ms"] = (percentile(waits, 99), "ms")
    out["dispatch.push_ms"] = (_mean([dur(s) / 1e6 for s in pushes]), "ms")
    out["dispatch.backlog_max"] = (float(peak), "count")
    out["dispatch.dropped"] = (float(sum(1 for s in pushes if not s[6][1])), "count")

    # wire (client side is the benchmark's own request log)
    handled = {s[5]: s for s in named["service.handle"] if s[5] is not None}
    rtt: dict[str, list[float]] = defaultdict(list)
    overhead: dict[str, list[float]] = defaultdict(list)
    wire_run = "consumer" in result
    for op in log.ops if wire_run else ():
        if not op.ok:
            continue
        rtt[op.kind].append((op.end - op.start) * 1e3)
        server = handled.get(op.request_id)
        if server is not None:
            overhead[op.kind].append((op.end - op.start) * 1e3 - dur(server) / 1e6)
    for kind in WIRE_KINDS:
        out[f"wire.rtt_ms.{kind}"] = (_mean(rtt[kind]), "ms")
        out[f"wire.overhead_ms.{kind}"] = (_mean(overhead[kind]), "ms")
    consumer = result.get("consumer", {"connections": 0, "pushes": 0, "bytes": 0})
    http_pushes = pushes if wire_run else []
    out["wire.push_attempts"] = (_mean([float(s[6][2]) for s in http_pushes]), "count/push")
    out["wire.push_conns_per_push"] = (
        consumer["connections"] / consumer["pushes"] if consumer["pushes"] else 0.0, "ratio")
    out["wire.push_bytes"] = (
        consumer["bytes"] / consumer["pushes"] if consumer["pushes"] else 0.0, "B")

    # service
    by_kind: dict[str, list[float]] = defaultdict(list)
    for s in named["service.handle"]:
        by_kind[s[6]].append(dur(s) / 1e6)
    for kind in WIRE_KINDS:
        out[f"service.handle_ms.{kind}"] = (_mean(by_kind[kind]), "ms")
    saves = named["service.save_snapshot"]
    captures = named["broker.snapshot_state"]
    out["service.snapshot_ms"] = (
        (sum(dur(s) for s in saves) + sum(dur(s) for s in captures)) / 1e6 / len(saves)
        if saves else 0.0, "ms")
    out["service.snapshot_bytes"] = (_mean([float(s[6]) for s in saves]), "B")
    mutations = sum(len(by_kind[k]) for k in ("subscribe", "register", "unsubscribe", "deregister"))
    out["service.snapshots_per_mutation"] = (len(saves) / mutations if mutations else 0.0, "ratio")
    out["service.restore_s"] = (restore_ns / 1e9, "s")

    # model
    for kind in ("offer", "profile", "sample"):
        out[f"model.parse_us.{kind}"] = (
            _mean([dur(s) / 1e3 for s in named[f"model.parse.{kind}"]]), "us")
    out["model.validate_us"] = (_mean([dur(s) / 1e3 for s in named["model.validate"]]), "us")

    # load generator
    late_ms = [v * 1e3 for v in log.late]
    out["gen.late_p99_ms"] = (percentile(late_ms, 99), "ms")
    out["gen.late_max_ms"] = (max(late_ms) if late_ms else 0.0, "ms")
    out["gen.slowness"] = (log.speed.median(), "ratio")
    return out
