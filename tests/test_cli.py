"""Command line interface: score, sim gen, sim run."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ctxbroker.cli import main
from ctxbroker.sim import load_scenario, parse_report


@pytest.fixture
def score_files(tmp_path, threshold_catalog, threshold_profile, threshold_offers):
    profile_path = tmp_path / "profile.json"
    offers_path = tmp_path / "offers.json"
    profile_path.write_text(json.dumps(threshold_profile.to_dict()), encoding="utf-8")
    offers_path.write_text(
        json.dumps(
            {
                "catalog": threshold_catalog.to_dict(),
                "offers": [o.to_dict() for o in threshold_offers],
            }
        ),
        encoding="utf-8",
    )
    return profile_path, offers_path


class TestScore:
    def test_table_output_names_winner(self, score_files, capsys):
        profile_path, offers_path = score_files
        assert main(["score", str(profile_path), str(offers_path)]) == 0
        out = capsys.readouterr().out
        assert "selected" in out
        assert "cs-conforming" in out

    def test_json_output_parses_to_decision(self, score_files, capsys):
        profile_path, offers_path = score_files
        assert main(["score", str(profile_path), str(offers_path), "--format", "json"]) == 0
        decision = json.loads(capsys.readouterr().out)
        assert decision["selected"] == ["cs-conforming"]
        assert decision["topics"] == ["location"]

    def test_both_formats(self, score_files, capsys):
        profile_path, offers_path = score_files
        assert main(["score", str(profile_path), str(offers_path), "--format", "both"]) == 0
        out = capsys.readouterr().out
        assert "max" in out and '"selected"' in out

    def test_bare_offer_list_with_catalog_flag(
        self, tmp_path, threshold_catalog, threshold_profile, threshold_offers, capsys
    ):
        profile_path = tmp_path / "p.json"
        offers_path = tmp_path / "o.json"
        catalog_path = tmp_path / "c.json"
        profile_path.write_text(json.dumps(threshold_profile.to_dict()), encoding="utf-8")
        offers_path.write_text(
            json.dumps([o.to_dict() for o in threshold_offers]), encoding="utf-8"
        )
        catalog_path.write_text(json.dumps(threshold_catalog.to_dict()), encoding="utf-8")
        assert main(
            ["score", str(profile_path), str(offers_path), "--catalog", str(catalog_path)]
        ) == 0
        assert "cs-conforming" in capsys.readouterr().out

    def test_bare_offer_list_infers_dimensions(
        self, tmp_path, threshold_profile, threshold_offers, capsys
    ):
        profile_path = tmp_path / "p.json"
        offers_path = tmp_path / "o.json"
        profile_path.write_text(json.dumps(threshold_profile.to_dict()), encoding="utf-8")
        offers_path.write_text(
            json.dumps([o.to_dict() for o in threshold_offers]), encoding="utf-8"
        )
        assert main(["score", str(profile_path), str(offers_path)]) == 0
        assert "cs-conforming" in capsys.readouterr().out

    def test_invalid_profile_exits_nonzero(self, tmp_path, score_files, capsys):
        _, offers_path = score_files
        bad_profile = tmp_path / "bad.json"
        bad_profile.write_text(
            json.dumps({"topics": ["location"], "qoc_min": [[2.0, 0.9]], "qos_min": [0.9]}),
            encoding="utf-8",
        )
        assert main(["score", str(bad_profile), str(offers_path)]) == 2
        assert "invalid profile" in capsys.readouterr().err


class TestSimCommands:
    def test_gen_writes_loadable_scenario(self, tmp_path, capsys):
        out = tmp_path / "scenario.json"
        code = main(
            ["sim", "gen", "--seed", "7", "--services", "3", "--topics", "2",
             "--events", "12", "--out", str(out)]
        )
        assert code == 0
        scenario = load_scenario(out)
        assert scenario.seed == 7

    def test_gen_to_stdout(self, capsys):
        assert main(["sim", "gen", "--seed", "7", "--events", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 7

    def test_run_prints_table(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        main(["sim", "gen", "--seed", "8", "--events", "10", "--out", str(scenario_path)])
        capsys.readouterr()
        assert main(["sim", "run", str(scenario_path)]) == 0
        out = capsys.readouterr().out
        assert "totals:" in out

    def test_run_writes_machine_readable_report(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        report_path = tmp_path / "report.json"
        main(["sim", "gen", "--seed", "8", "--events", "10", "--out", str(scenario_path)])
        assert main(["sim", "run", str(scenario_path), "--out", str(report_path)]) == 0
        report = parse_report(report_path.read_text(encoding="utf-8"))
        assert report.meta["mode"] == "in-process"

    def test_missing_scenario_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["sim", "run", str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err


def test_parser_covers_serve_flags():
    from ctxbroker.cli import _build_parser

    args = _build_parser().parse_args(
        ["serve", "--listen", "127.0.0.1:9999", "--catalog", "cat.json",
         "--persist", "state.json", "--log-level", "debug"]
    )
    assert args.listen == "127.0.0.1:9999"
    assert args.persist == "state.json"
    assert args.log_level == "debug"


class TestServeConfigResolution:
    def resolve(self, tmp_path, argv, env=None, monkeypatch=None):
        from ctxbroker.cli import _build_parser, _resolve_serve_config

        if monkeypatch is not None:
            monkeypatch.delenv("CTXBROKER_LISTEN", raising=False)
            monkeypatch.delenv("CTXBROKER_PERSIST", raising=False)
            for key, value in (env or {}).items():
                monkeypatch.setenv(key, value)
        return _resolve_serve_config(_build_parser().parse_args(["serve", *argv]))

    def test_config_file_supplies_everything(self, tmp_path, threshold_catalog, monkeypatch):
        config_path = tmp_path / "broker.json"
        config_path.write_text(
            json.dumps(
                {
                    "listen": "127.0.0.1:8123",
                    "catalog": threshold_catalog.to_dict(),
                    "persist": str(tmp_path / "state.json"),
                    "log_level": "debug",
                    "retry": {"attempts": 5, "backoff_initial": 0.5},
                }
            ),
            encoding="utf-8",
        )
        config = self.resolve(tmp_path, ["--config", str(config_path)], monkeypatch=monkeypatch)
        assert config.listen == "127.0.0.1:8123"
        assert config.catalog == threshold_catalog
        assert config.retry.attempts == 5
        assert config.log_level == "debug"

    def test_flags_override_config_file(self, tmp_path, threshold_catalog, monkeypatch):
        config_path = tmp_path / "broker.json"
        config_path.write_text(
            json.dumps({"listen": "127.0.0.1:8123", "catalog": threshold_catalog.to_dict()}),
            encoding="utf-8",
        )
        config = self.resolve(
            tmp_path,
            ["--config", str(config_path), "--listen", "127.0.0.1:9000"],
            monkeypatch=monkeypatch,
        )
        assert config.listen == "127.0.0.1:9000"

    def test_environment_supplies_listen_and_persist_only(
        self, tmp_path, threshold_catalog, monkeypatch
    ):
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(threshold_catalog.to_dict()), encoding="utf-8")
        config = self.resolve(
            tmp_path,
            ["--catalog", str(catalog_path)],
            env={"CTXBROKER_LISTEN": "127.0.0.1:7001", "CTXBROKER_PERSIST": "/tmp/env-state.json"},
            monkeypatch=monkeypatch,
        )
        assert config.listen == "127.0.0.1:7001"
        assert config.persist_path == "/tmp/env-state.json"

    def test_missing_catalog_is_an_error(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError):
            self.resolve(tmp_path, ["--listen", "127.0.0.1:7002"], monkeypatch=monkeypatch)


CATALOG = {"qoc_indicators": ["freshness"], "qos_indicators": ["availability"]}


@pytest.mark.parametrize("flag, document", [
    ("--catalog", {"qoc_indicators": ["freshness"]}),
    ("--config", {"catalog": CATALOG, "retry": {"attempt": 3}}),
    ("--config", {"catalog": CATALOG, "retry": {"attempts": 0}}),
    ("--config", {"catalog": CATALOG, "retry": {"attempts": True}}),
    ("--config", {"catalog": CATALOG, "retry": {"backoff_initial": -0.1}}),
    ("--config", {"catalog": CATALOG, "retry": {"backoff_multiplier": -2.0}}),
    ("--config", {"catalog": CATALOG, "retry": {"backoff_multiplier": 1e200}}),
    ("--config", {"catalog": CATALOG, "retry": {"attempts": 13, "backoff_multiplier": 1.0}}),
], ids=["catalog without qos_indicators", "unknown retry field", "no retry attempts",
        "boolean retry attempts", "negative backoff", "negative backoff multiplier",
        "backoff that overflows", "retries past a minute per message"])
def test_malformed_serve_config_is_an_error(tmp_path, capsys, monkeypatch, flag, document):
    monkeypatch.delenv("CTXBROKER_LISTEN", raising=False)
    monkeypatch.delenv("CTXBROKER_PERSIST", raising=False)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["serve", flag, str(path), "--listen", "127.0.0.1:0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


DEMO = Path(__file__).resolve().parent.parent / "demo"


class TestQuickDemo:
    """README's quick demo, as its text describes it."""

    def test_score_drops_the_offer_below_the_floor_and_picks_the_weighted_winner(self, capsys):
        assert main(["score", str(DEMO / "profile.json"), str(DEMO / "offers.json")]) == 0
        header, _, row = capsys.readouterr().out.splitlines()
        # budget-feed misses the availability floor, so it gets no column.
        assert header.split() == ["topic", "city-sensors", "fleet-trackers", "max", "selected"]
        assert row.split()[0] == "location" and row.split()[-1] == "fleet-trackers"

    def test_scenario_switches_to_the_runner_up_in_both_modes(self, tmp_path, capsys):
        reports = []
        for mode in ("in-process", "over-wire"):
            out = tmp_path / f"{mode}.json"
            assert main(["sim", "run", str(DEMO / "scenario.json"), "--mode", mode,
                         "--out", str(out)]) == 0
            reports.append(parse_report(out.read_text(encoding="utf-8")))
        assert reports[0] == reports[1]
        location = reports[0].consumers["route-planner"]["topics"]["location"]
        # Only the winner's publications arrive until it deregisters.
        assert location["received"] == [
            ["fleet-trackers", "41.39,2.16"], ["fleet-trackers", "41.41,2.18"],
            ["city-sensors", "41.42,2.19"]]
        assert location["selected_history"] == ["fleet-trackers", "city-sensors"]
