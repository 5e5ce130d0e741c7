"""Scenario harness: loading, validation, generation, runs, reports."""

from __future__ import annotations

import json

import pytest

from ctxbroker.model import IndicatorCatalog, RequirementProfile, ServiceOffer
from ctxbroker.selection import oracle_select
from ctxbroker.service import BrokerService
from ctxbroker.sim import (
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


def minimal_scenario_dict():
    return {
        "seed": 0,
        "catalog": {"qoc_indicators": ["freshness"], "qos_indicators": ["availability"]},
        "clouds": [
            {
                "cloud_id": "cloud-1",
                "services": [
                    {
                        "service_id": "cs-a",
                        "cloud_id": "cloud-1",
                        "offered_topics": ["t1"],
                        "qoc_offer": {"t1": [0.9]},
                        "qos_offer": [0.99],
                    }
                ],
            }
        ],
        "consumers": [
            {
                "consumer_id": "app-1",
                "profile": {
                    "topics": ["t1"],
                    "qoc_min": [[0.5]],
                    "qos_min": [0.0],
                    "weights": [[1.0]],
                },
            }
        ],
        "timeline": [
            {"at": 0, "action": "register", "service_id": "cs-a"},
            {"at": 1, "action": "subscribe", "consumer_id": "app-1"},
            {"at": 2, "action": "publish", "service_id": "cs-a", "topic": "t1", "payload": "v1"},
            {"at": 3, "action": "pull", "consumer_id": "app-1", "topic": "t1"},
        ],
    }


def write_scenario(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestLoadScenario:
    def test_minimal_valid_file(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, minimal_scenario_dict()))
        assert len(scenario.offers_by_service()) == 1
        assert len(scenario.consumers) == 1
        assert len(scenario.timeline) == 4

    def test_out_of_order_timeline_rejected(self, tmp_path):
        data = minimal_scenario_dict()
        data["timeline"][2]["at"] = 0
        data["timeline"][1]["at"] = 5
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(write_scenario(tmp_path, data))
        assert "earlier than previous" in str(excinfo.value)

    def test_unknown_service_in_publish_rejected(self, tmp_path):
        data = minimal_scenario_dict()
        data["timeline"][2]["service_id"] = "cs-ghost"
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(write_scenario(tmp_path, data))
        assert "cs-ghost" in str(excinfo.value)

    def test_publish_before_register_rejected(self, tmp_path):
        data = minimal_scenario_dict()
        data["timeline"] = data["timeline"][1:]
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(write_scenario(tmp_path, data))
        assert "unregistered" in str(excinfo.value)

    def test_unoffered_topic_in_publish_rejected(self, tmp_path):
        data = minimal_scenario_dict()
        data["timeline"][2]["topic"] = "t9"
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, data))

    def test_pull_on_unsubscribed_topic_rejected(self, tmp_path):
        data = minimal_scenario_dict()
        data["timeline"][3]["topic"] = "t9"
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, data))

    def test_duplicate_service_across_clouds_rejected(self, tmp_path):
        data = minimal_scenario_dict()
        clone = json.loads(json.dumps(data["clouds"][0]))
        clone["cloud_id"] = "cloud-2"
        clone["services"][0]["cloud_id"] = "cloud-2"
        data["clouds"].append(clone)
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(write_scenario(tmp_path, data))
        assert "duplicate service" in str(excinfo.value)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}", encoding="utf-8")
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(path)
        assert "line 2" in str(excinfo.value)

    def test_save_load_round_trip(self, tmp_path):
        scenario = generate_random_scenario(seed=11, services=3, topics=2, events=10)
        path = tmp_path / "generated.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario


class TestGenerator:
    def test_same_seed_same_scenario(self):
        a = generate_random_scenario(seed=1, services=4, topics=3, qoc=2, qos=2, events=25)
        b = generate_random_scenario(seed=1, services=4, topics=3, qoc=2, qos=2, events=25)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        a = generate_random_scenario(seed=1, services=4, topics=3, events=25)
        b = generate_random_scenario(seed=2, services=4, topics=3, events=25)
        assert a != b

    def test_no_services_ends_in_renegotiation_everywhere(self):
        scenario = generate_random_scenario(seed=5, services=0, topics=2, events=6, consumers=2)
        report = run(scenario)
        for consumer_id, profile in scenario.consumers:
            advisories = report.consumers[consumer_id]["advisories"]
            assert advisories, f"{consumer_id} should have been advised"
            assert set(advisories[0]) == set(profile.topics)
            for topic in profile.topics:
                assert report.consumers[consumer_id]["topics"][topic]["selected_history"][-1] is None

    def test_sizes_at_oracle_bounds_accepted(self):
        scenario = generate_random_scenario(
            seed=9, services=12, topics=6, qoc=6, qos=5, events=30, clouds=4, consumers=3
        )
        assert len(scenario.offers_by_service()) == 12
        run(scenario)  # must execute cleanly

    def test_generated_scenarios_validate(self):
        for seed in range(10):
            scenario = generate_random_scenario(seed=seed, services=3, topics=2, events=15)
            # validate_scenario runs inside run(); loading the dict form
            # must reproduce the same scenario object.
            assert Scenario.from_dict(scenario.to_dict()) == scenario


class TestRun:
    def test_empty_timeline_all_zero_counts(self, tmp_path):
        data = minimal_scenario_dict()
        data["timeline"] = []
        scenario = load_scenario(write_scenario(tmp_path, data))
        report = run(scenario)
        assert report.totals == {
            "selection_switches": 0,
            "notifications": 0,
            "advisories": 0,
            "pulls_ok": 0,
            "pull_errors": {},
        }
        assert report.services["cs-a"] == {"publications": 0, "pulls": 0}

    def test_dominating_service_sources_every_notification(self):
        scenario = dominance_scenario()
        report = run(scenario)
        # Selection engine is the oracle for who should deliver.
        offers = list(scenario.offers_by_service().values())
        profile = scenario.consumers[0][1]
        expected = oracle_select(offers, profile).selected[0]
        assert expected == "cs-high"
        received = report.consumers["app-1"]["topics"]["location"]["received"]
        assert len(received) == 3
        assert all(source == "cs-high" for source, _ in received)
        assert report.consumers["app-1"]["topics"]["location"]["last"] == ["cs-high", "h3"]

    def test_deregistering_selected_service_switches_or_advises(self):
        scenario = dominance_scenario(deregister_winner=True)
        report = run(scenario)
        history = report.consumers["app-1"]["topics"]["location"]["selected_history"]
        assert history[0] == "cs-high"
        assert history[1] == "cs-low"  # the spare takes over
        assert report.totals["selection_switches"] >= 1

    def test_determinism_same_scenario_same_report(self):
        scenario = generate_random_scenario(seed=21, services=4, topics=2, events=20)
        assert run(scenario) == run(scenario)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run(generate_random_scenario(seed=1, services=1, topics=1, events=1), mode="quantum")


def test_in_process_run_sends_every_request_to_handle_request(monkeypatch):
    kinds = []
    original = BrokerService.handle_request

    def counted(self, envelope):
        kinds.append(envelope["kind"])
        return original(self, envelope)

    monkeypatch.setattr(BrokerService, "handle_request", counted)
    scenario = generate_random_scenario(seed=21, services=4, topics=2, events=20)
    report = run(scenario, mode="in-process")
    actions = [event.action for event in scenario.timeline]
    assert {"register", "subscribe", "notify", "pull-current", "pull-last", "decision",
            "drain"} <= set(kinds)
    assert kinds.count("drain") == len(actions)
    assert kinds.count("notify") == actions.count("publish")
    assert kinds.count("pull-current") == actions.count("pull")
    for action in ("register", "deregister", "subscribe", "unsubscribe"):
        assert kinds.count(action) == actions.count(action)
    assert kinds.count("pull-last") == sum(
        len(entry["topics"]) for entry in report.consumers.values())


@pytest.mark.parametrize("seed", [31, 32])
def test_mode_equivalence(seed):
    scenario = generate_random_scenario(seed=seed, services=3, topics=2, qoc=2, qos=1, events=12)
    in_process = run(scenario, mode="in-process")
    over_wire = run(scenario, mode="over-wire")
    assert in_process == over_wire
    assert in_process.meta["mode"] == "in-process"
    assert over_wire.meta["mode"] == "over-wire"


def unsubscribe_scenario_dict():
    """The consumer leaves between two publications and comes back."""
    data = minimal_scenario_dict()
    data["timeline"] = [
        {"at": 0, "action": "register", "service_id": "cs-a"},
        {"at": 1, "action": "subscribe", "consumer_id": "app-1"},
        {"at": 2, "action": "publish", "service_id": "cs-a", "topic": "t1", "payload": "v1"},
        {"at": 3, "action": "unsubscribe", "consumer_id": "app-1"},
        {"at": 4, "action": "publish", "service_id": "cs-a", "topic": "t1", "payload": "v2"},
        {"at": 5, "action": "subscribe", "consumer_id": "app-1"},
        {"at": 6, "action": "publish", "service_id": "cs-a", "topic": "t1", "payload": "v3"},
    ]
    return data


def test_no_notification_reaches_an_unsubscribed_consumer_in_either_mode():
    scenario = Scenario.from_dict(unsubscribe_scenario_dict())
    in_process = run(scenario, mode="in-process")
    t1 = in_process.consumers["app-1"]["topics"]["t1"]
    assert t1["received"] == [["cs-a", "v1"], ["cs-a", "v3"]]
    assert t1["last"] == ["cs-a", "v3"]
    assert in_process.services["cs-a"]["publications"] == 3
    assert run(scenario, mode="over-wire") == in_process


def test_unsubscribe_of_a_consumer_not_subscribed_is_refused(tmp_path):
    data = unsubscribe_scenario_dict()
    data["timeline"].insert(4, {"at": 3, "action": "unsubscribe", "consumer_id": "app-1"})
    with pytest.raises(ScenarioError, match=r"^timeline\[4\]: consumer 'app-1' not subscribed$"):
        load_scenario(write_scenario(tmp_path, data))


def test_mode_equivalence_with_ids_and_topic_that_need_quoting():
    text = json.dumps(minimal_scenario_dict())
    for plain, quoted in (("cs-a", "svc/1"), ("t1", "room/temp"), ("app-1", "app 1")):
        text = text.replace(f'"{plain}"', f'"{quoted}"')
    scenario = Scenario.from_dict(json.loads(text))
    in_process = run(scenario, mode="in-process")
    assert in_process.totals["notifications"] == in_process.totals["pulls_ok"] == 1
    assert in_process.services["svc/1"]["pulls"] == 1
    assert run(scenario, mode="over-wire") == in_process


def test_selected_history_matches_selection_oracle():
    scenario = generate_random_scenario(seed=41, services=5, topics=3, events=25, consumers=2)
    report = run(scenario)
    profiles = scenario.profiles_by_consumer()
    offers = scenario.offers_by_service()
    live: list[str] = []
    subscribed: list[str] = []
    expected: dict[tuple[str, str], list] = {}
    for event in scenario.timeline:
        if event.action == "register":
            live.append(event.service_id)
        elif event.action == "deregister":
            live.remove(event.service_id)
        elif event.action == "subscribe":
            subscribed.append(event.consumer_id)
        elif event.action == "unsubscribe":
            subscribed.remove(event.consumer_id)
        if event.action in ("register", "deregister", "subscribe"):
            for consumer_id in subscribed:
                profile = profiles[consumer_id]
                decision = oracle_select([offers[s] for s in live], profile)
                for topic, selected in zip(decision.topics, decision.selected):
                    history = expected.setdefault((consumer_id, topic), [])
                    if not history or history[-1] != selected:
                        history.append(selected)
    for (consumer_id, topic), history in expected.items():
        assert report.consumers[consumer_id]["topics"][topic]["selected_history"] == history


def dominance_scenario(deregister_winner=False):
    catalog = IndicatorCatalog(("freshness", "correctness"), ("availability",))
    low = ServiceOffer(
        service_id="cs-low",
        cloud_id="cloud-1",
        offered_topics=("location",),
        qoc_offer={"location": (0.85, 0.95)},
        qos_offer=(0.99,),
    )
    high = ServiceOffer(
        service_id="cs-high",
        cloud_id="cloud-1",
        offered_topics=("location",),
        qoc_offer={"location": (0.95, 0.99)},
        qos_offer=(0.99,),
    )
    profile = RequirementProfile(
        topics=("location",),
        qoc_min=((0.80, 0.93),),
        qos_min=(0.98,),
        weights=((1.0, 1.0),),
    )
    events = [
        ScenarioEvent(at=0, action="register", service_id="cs-low"),
        ScenarioEvent(at=1, action="register", service_id="cs-high"),
        ScenarioEvent(at=2, action="subscribe", consumer_id="app-1"),
        ScenarioEvent(at=3, action="publish", service_id="cs-low", topic="location", payload="l1"),
        ScenarioEvent(at=4, action="publish", service_id="cs-high", topic="location", payload="h1"),
        ScenarioEvent(at=5, action="publish", service_id="cs-high", topic="location", payload="h2"),
        ScenarioEvent(at=6, action="publish", service_id="cs-low", topic="location", payload="l2"),
        ScenarioEvent(at=7, action="publish", service_id="cs-high", topic="location", payload="h3"),
    ]
    if deregister_winner:
        events += [
            ScenarioEvent(at=8, action="deregister", service_id="cs-high"),
            ScenarioEvent(at=9, action="publish", service_id="cs-low", topic="location", payload="l3"),
        ]
    return Scenario(
        seed=0,
        catalog=catalog,
        clouds=(("cloud-1", (low, high)),),
        consumers=(("app-1", profile),),
        timeline=tuple(events),
    )


class TestReports:
    def test_machine_readable_round_trip(self):
        scenario = generate_random_scenario(seed=51, services=3, topics=2, events=15)
        report = run(scenario)
        assert parse_report(emit_report(report, "machine-readable")) == report

    def test_table_has_switch_column_and_rows(self):
        report = run(dominance_scenario())
        table = emit_report(report, "table")
        assert "switches" in table.splitlines()[0]
        assert "cs-high" in table
        assert "totals:" in table

    def test_empty_report_is_header_only(self):
        empty = RunReport(
            consumers={},
            services={},
            totals={
                "selection_switches": 0, "notifications": 0, "advisories": 0,
                "pulls_ok": 0, "pull_errors": {},
            },
        )
        table = emit_report(empty, "table")
        assert "consumer" in table
        assert "service" in table

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(run(dominance_scenario()), "xml")

    def test_meta_excluded_from_equality(self):
        report = run(dominance_scenario())
        twin = RunReport.from_dict(report.to_dict())
        twin.meta = {"mode": "other", "wall_ms": 999}
        assert twin == report
