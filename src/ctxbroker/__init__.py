"""Context broker with per-topic provider selection by weighted QoC/QoS
scoring, a publish/subscribe wire service, and a deterministic scenario
harness."""

from .broker import ContextBroker, Registration, Subscription
from .errors import (
    BadRequest,
    BrokerError,
    Conflict,
    DimensionMismatch,
    Internal,
    NoProvider,
    NotFound,
    NotSubscribed,
    NoValueYet,
    Unregistered,
    UpstreamUnavailable,
)
from .model import (
    ContextSample,
    IndicatorCatalog,
    InvalidAnchorError,
    RequirementProfile,
    ServiceOffer,
    ValidationResult,
    normalize_raw,
    validate_offer,
    validate_profile,
)
from .selection import (
    DecisionMatrix,
    build_decision_matrix,
    oracle_select,
    qoc_feasible,
    qos_feasible,
    renegotiation_report,
    score,
    select_multi_cloud,
)
from .service import BrokerService, ServiceConfig, ServiceHandle, SnapshotError, serve
from .sim import (
    RunReport,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    emit_report,
    generate_random_scenario,
    load_scenario,
    parse_report,
    run,
    save_scenario,
)
from .wire import DeliveryStatus, HttpTransport, RetryPolicy, WireClient, WireError

__version__ = "0.1.0"
