"""Command line interface: serve the broker, score offers against a
profile, and generate or run simulation scenarios."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import threading
from pathlib import Path
from typing import Any, Sequence

from .model import IndicatorCatalog, RequirementProfile, ServiceOffer, validate_offer, validate_profile
from .selection import DecisionMatrix, build_decision_matrix
from .service import ServiceConfig, SnapshotError, serve
from .sim import emit_report, generate_random_scenario, load_scenario, run, save_scenario, tabulate
from .wire import RetryPolicy


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    level_name = getattr(args, "log_level", None) or "info"
    logging.basicConfig(level=getattr(logging, level_name.upper(), logging.INFO))
    try:
        return args.func(args)
    except (SnapshotError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctxbroker", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="run the broker service")
    serve_p.add_argument("--config", help="declarative config JSON file; flags override it")
    serve_p.add_argument("--listen", help="host:port to listen on (env CTXBROKER_LISTEN)")
    serve_p.add_argument("--catalog", help="indicator catalog JSON file")
    serve_p.add_argument("--persist", help="persist file: snapshot plus journal (env CTXBROKER_PERSIST)")
    serve_p.add_argument("--log-level", dest="log_level")
    serve_p.set_defaults(func=_cmd_serve)

    score_p = sub.add_parser("score", help="print the decision matrix for a profile and offers")
    score_p.add_argument("profile", help="profile JSON file")
    score_p.add_argument("offers", help="offers JSON file (list, or object with catalog+offers)")
    score_p.add_argument("--catalog", help="catalog JSON file (overrides the offers file)")
    score_p.add_argument("--format", choices=("table", "json", "both"), default="table")
    score_p.set_defaults(func=_cmd_score, log_level="warning")

    sim_p = sub.add_parser("sim", help="scenario tools")
    sim_sub = sim_p.add_subparsers(dest="sim_command", required=True)

    run_p = sim_sub.add_parser("run", help="execute a scenario and report")
    run_p.add_argument("scenario", help="scenario JSON file")
    run_p.add_argument("--mode", choices=("in-process", "over-wire"), default="in-process")
    run_p.add_argument("--out", default="table",
                       help='"table" for stdout, or a path for machine-readable JSON')
    run_p.set_defaults(func=_cmd_sim_run, log_level="warning")

    gen_p = sim_sub.add_parser("gen", help="generate a reproducible random scenario")
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument("--services", type=int, default=3)
    gen_p.add_argument("--topics", type=int, default=2)
    gen_p.add_argument("--qoc", type=int, default=2)
    gen_p.add_argument("--qos", type=int, default=1)
    gen_p.add_argument("--events", type=int, default=20)
    gen_p.add_argument("--clouds", type=int, default=1)
    gen_p.add_argument("--consumers", type=int, default=2)
    gen_p.add_argument("--out", help="output file (default stdout)")
    gen_p.set_defaults(func=_cmd_sim_gen, log_level="warning")

    return parser


def _resolve_serve_config(args: argparse.Namespace) -> ServiceConfig:
    """Layer flag > environment > config file > default.

    The environment only ever supplies the listen address and the
    persistence path; everything else comes from the file or flags.
    """
    file_config: dict[str, Any] = {}
    if args.config:
        file_config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    listen = (
        args.listen
        or os.environ.get("CTXBROKER_LISTEN")
        or file_config.get("listen")
        or "127.0.0.1:8750"
    )
    persist = args.persist or os.environ.get("CTXBROKER_PERSIST") or file_config.get("persist")
    log_level = args.log_level or file_config.get("log_level") or "info"
    catalog_source = args.catalog or file_config.get("catalog")
    if catalog_source is None:
        raise ValueError("a catalog is required (--catalog or a config file with one)")
    if not isinstance(catalog_source, dict):
        catalog_source = json.loads(Path(catalog_source).read_text(encoding="utf-8"))
    try:
        catalog = IndicatorCatalog.from_dict(catalog_source)
        retry = RetryPolicy(**file_config.get("retry", {}))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed catalog or retry settings: {exc!r}") from exc
    return ServiceConfig(
        catalog=catalog,
        listen=listen,
        persist_path=persist,
        retry=retry,
        log_level=log_level,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    config = _resolve_serve_config(args)
    handle = serve(config)
    print(f"listening on {handle.base_url}")
    if config.persist_path:
        print(f"persisting to {config.persist_path}")
    stop = threading.Event()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        handle.stop()
    return 0


def _load_offers_document(args: argparse.Namespace) -> tuple[IndicatorCatalog | None, list[ServiceOffer]]:
    data = json.loads(Path(args.offers).read_text(encoding="utf-8"))
    catalog = None
    if isinstance(data, dict):
        offers_raw = data["offers"]
        if "catalog" in data:
            catalog = IndicatorCatalog.from_dict(data["catalog"])
    else:
        offers_raw = data
    if args.catalog:
        catalog = IndicatorCatalog.from_dict(json.loads(Path(args.catalog).read_text(encoding="utf-8")))
    return catalog, [ServiceOffer.from_dict(o) for o in offers_raw]


def _cmd_score(args: argparse.Namespace) -> int:
    profile = RequirementProfile.from_dict(
        json.loads(Path(args.profile).read_text(encoding="utf-8"))
    )
    catalog, offers = _load_offers_document(args)
    if catalog is None:
        if not offers:
            raise ValueError("offers file is empty and no catalog was given")
        # Dimensions are all that scoring needs; names are placeholders.
        first = offers[0]
        m = len(next(iter(first.qoc_offer.values()))) if first.qoc_offer else len(profile.qoc_min[0])
        catalog = IndicatorCatalog(
            qoc_indicators=tuple(f"qoc-{i + 1}" for i in range(m)),
            qos_indicators=tuple(f"qos-{k + 1}" for k in range(len(first.qos_offer))),
        )
    result = validate_profile(profile, catalog)
    if not result:
        raise ValueError(f"invalid profile: {result.reason}")
    for offer in offers:
        result = validate_offer(offer, catalog)
        if not result:
            raise ValueError(f"invalid offer {offer.service_id!r}: {result.reason}")
    decision = build_decision_matrix(offers, profile)
    if args.format in ("table", "both"):
        print(_decision_table(decision))
    if args.format in ("json", "both"):
        print(json.dumps(decision.to_dict(), sort_keys=True, indent=2))
    return 0


def _decision_table(decision: DecisionMatrix) -> str:
    header = ("topic", *decision.services, "max", "selected")
    rows: list[tuple[str, ...]] = [header]
    for j, topic in enumerate(decision.topics):
        rows.append(
            (
                topic,
                *(f"{score:.4f}" for score in decision.scores[j]),
                f"{decision.max_score[j]:.4f}",
                decision.selected[j] if decision.selected[j] is not None else "-",
            )
        )
    return "\n".join(tabulate(rows))


def _cmd_sim_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report = run(scenario, mode=args.mode)
    if args.out in ("table", "-", None):
        print(emit_report(report, "table"))
    else:
        Path(args.out).write_text(emit_report(report, "machine-readable"), encoding="utf-8")
        print(f"report written to {args.out}")
    return 0


def _cmd_sim_gen(args: argparse.Namespace) -> int:
    scenario = generate_random_scenario(
        seed=args.seed,
        services=args.services,
        topics=args.topics,
        qoc=args.qoc,
        qos=args.qos,
        events=args.events,
        clouds=args.clouds,
        consumers=args.consumers,
    )
    if args.out:
        save_scenario(scenario, args.out)
        print(f"scenario written to {args.out}")
    else:
        print(json.dumps(scenario.to_dict(), sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
