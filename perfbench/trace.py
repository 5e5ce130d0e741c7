"""Span recorder that wraps calls into the program's layers from outside.

``Tracer.install`` replaces public functions and methods of the
``ctxbroker`` modules with wrappers that record one span per call: name,
start, end, span id, parent span id (the enclosing wrapped call on the
same thread), request id and a small info value. Spans stay in memory
until ``dump``. Nothing inside ``src/`` is edited; ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Callable

# (name, start_ns, end_ns, span_id, parent_id, request_id, info)
Span = tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def request(self, request_id: str | None) -> None:
        """Tag spans started on this thread with ``request_id``."""
        self._local.request_id = request_id

    def wrap(
        self,
        name: str,
        fn: Callable,
        info: Callable[[tuple, dict, Any], Any] | None = None,
        request_from: Callable[[tuple, dict], str | None] | None = None,
    ) -> Callable:
        local, ids, spans = self._local, self._ids, self.spans

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if request_from is not None:
                local.request_id = request_from(args, kwargs)
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                extra = info(args, kwargs, result) if info is not None else None
                spans.append((name, start, end, span_id, parent,
                              getattr(local, "request_id", None), extra))

        wrapper.__wrapped__ = fn
        return wrapper

    def event(self, name: str, info: Any = None) -> None:
        """A zero-length span under the current one (a counted occurrence)."""
        stack = getattr(self._local, "stack", None) or [0]
        now = time.perf_counter_ns()
        self.spans.append((name, now, now, next(self._ids), stack[-1],
                           getattr(self._local, "request_id", None), info))

    # -- patching ---------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, **kw: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: object = classmethod(self.wrap(name, original.__func__, **kw))
        else:
            replacement = self.wrap(name, original, **kw)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self, in_process_transport: type | None = None) -> None:
        """Wrap every measured layer boundary of the ``ctxbroker`` package."""
        from ctxbroker import broker, model, service, wire

        cells = lambda a, k, r: len(a[0]) * len(a[1].topics)  # noqa: E731
        self.patch(broker, "build_decision_matrix", "selection.build_decision_matrix", info=cells)

        tracer = self
        original_state = broker.SelectionState

        class CountedSelectionState(original_state):  # type: ignore[misc, valid-type]
            def __init__(self, decision: Any, revision: int) -> None:
                super().__init__(decision, revision)
                if revision > 1:
                    tracer.event("selection.revision_bump")

        self._patched.append((broker, "SelectionState", original_state))
        broker.SelectionState = CountedSelectionState

        cb = broker.ContextBroker
        for attr, name in (
            ("register_context_service", "broker.register"),
            ("deregister_context_service", "broker.deregister"),
            ("subscribe", "broker.subscribe"),
            ("unsubscribe", "broker.unsubscribe"),
            ("get_last_topic_value", "broker.pull_last"),
            ("get_current_topic_value", "broker.pull_current"),
            ("snapshot_state", "broker.snapshot_state"),
            ("restore_state", "broker.restore_state"),
        ):
            self.patch(cb, attr, name)
        self.patch(cb, "notify_context_change", "broker.notify",
                   info=lambda a, k, r: _sample_key(a[2].to_dict()))

        self.patch(model.ServiceOffer, "from_dict", "model.parse.offer")
        self.patch(model.RequirementProfile, "from_dict", "model.parse.profile")
        self.patch(model.ContextSample, "from_dict", "model.parse.sample")
        self.patch(broker, "validate_offer", "model.validate")
        self.patch(broker, "validate_profile", "model.validate")

        push_info = lambda a, k, r: (_message_key(a[2]), bool(r.delivered), int(r.attempts))  # noqa: E731
        self.patch(wire.HttpTransport, "push", "dispatch.push", info=push_info)
        if in_process_transport is not None:
            self.patch(in_process_transport, "push", "dispatch.push", info=push_info)

        svc = service.BrokerService
        envelope_id = lambda a, k: a[1].get("request_id") if isinstance(a[1], dict) else None  # noqa: E731
        self.patch(svc, "handle_request", "service.handle",
                   info=lambda a, k, r: a[1].get("kind") if isinstance(a[1], dict) else None,
                   request_from=envelope_id)
        for attr, kind in (("unsubscribe", "unsubscribe"), ("deregister", "deregister"),
                           ("decision", "decision")):
            self.patch(svc, attr, "service.handle", info=lambda a, k, r, kind=kind: kind,
                       request_from=lambda a, k: a[2] if len(a) > 2 else k.get("request_id"))
        self.patch(service, "save_snapshot", "service.save_snapshot",
                   info=lambda a, k, r: os.path.getsize(a[0]))
        self.patch(service, "load_snapshot", "service.load_snapshot")

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _sample_key(sample: dict) -> str:
    return f"{sample['service_id']}|{sample['topic']}|{sample['produced_at']}"


def _message_key(message: dict) -> str | None:
    if message.get("kind") != "notify":
        return None
    return _sample_key(message["body"]["sample"])


def load(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)]
