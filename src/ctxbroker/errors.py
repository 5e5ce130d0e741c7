"""Failure taxonomy shared by the broker core and the wire service.

Every broker-visible failure carries a machine-readable ``code`` from a
closed set, so the wire layer can build structured error envelopes
without string matching.
"""

from __future__ import annotations

from typing import Any


class BrokerError(Exception):
    """Base class for coded failures raised by broker operations."""

    code = "BAD_REQUEST"

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.message = message
        self.details = dict(details)

    def to_body(self) -> dict[str, Any]:
        """Error payload for a wire envelope: code, message, extras."""
        body: dict[str, Any] = {"code": self.code, "message": self.message}
        body.update(self.details)
        return body


class BadRequest(BrokerError):
    code = "BAD_REQUEST"


class DimensionMismatch(BadRequest):
    """Matrix or vector shape disagrees with the indicator catalog."""


class NotFound(BrokerError):
    code = "NOT_FOUND"


class Conflict(BrokerError):
    code = "CONFLICT"


class Unregistered(BrokerError):
    code = "UNREGISTERED"


class NotSubscribed(BrokerError):
    code = "NOT_SUBSCRIBED"


class NoProvider(BrokerError):
    """No registered service satisfies the topic's requirements.

    ``details["topics"]`` lists every unprovisionable topic of the
    subscription, inviting the consumer to relax its thresholds.
    """

    code = "NO_PROVIDER"


class NoValueYet(BrokerError):
    code = "NO_VALUE_YET"


class UpstreamUnavailable(BrokerError):
    code = "UPSTREAM_UNAVAILABLE"


class Unavailable(BrokerError):
    """The service takes no more requests now: its server is at its connection cap."""

    code = "UNAVAILABLE"


class Internal(BrokerError):
    """An unexpected failure inside the service, such as a failed snapshot write."""

    code = "INTERNAL"
