"""Tests for the ``gcon-repro`` command-line interface.

The CLI is exercised end-to-end through ``main(argv)`` with scaled-down
settings so every sub-command runs in seconds; output is captured via capsys.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli.main import build_parser, main


SMALL = ["--scale", "0.06", "--seed", "0"]


def test_cli_import_does_not_load_scipy_stats():
    """scipy.stats is imported only by the two functions that use it, so a
    ``repro`` process does not pay for it at start-up."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, repro.cli.main; "
             "print('scipy.stats' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.stdout.strip() == "False"


class TestParser:
    def test_help_lists_all_subcommands(self, capsys):
        parser = build_parser()
        help_text = parser.format_help()
        for command in ("datasets", "train", "baselines", "figure", "tune",
                        "sensitivity", "attack"):
            assert command in help_text

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "gcon-repro" in capsys.readouterr().out

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_figure_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "figure9"])

    def test_step_parser_accepts_inf(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--steps", "1,2,inf"])
        assert args.steps == (1, 2, float("inf"))

    def test_step_parser_rejects_empty(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "--steps", ","])


class TestDatasetsCommand:
    def test_prints_all_presets_with_reference(self, capsys):
        assert main(["datasets", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        for name in ("cora_ml", "citeseer", "pubmed", "actor"):
            assert name in output
        assert "paper nodes" in output


class TestSensitivityCommand:
    def test_prints_lemma2_table(self, capsys):
        assert main(["sensitivity", "--alphas", "0.5", "--m-values", "1,inf"]) == 0
        output = capsys.readouterr().out
        # Psi(Z_1) = 2*(0.5)/0.5*(1-0.5) = 1.0, Psi(Z_inf) = 2.0
        assert "1.0000" in output
        assert "2.0000" in output

    def test_sensitivity_decreases_with_alpha(self, capsys):
        main(["sensitivity", "--alphas", "0.2,0.8", "--m-values", "inf"])
        lines = [line for line in capsys.readouterr().out.splitlines() if "|" in line]
        low_alpha = float(lines[-2].split("|")[1])
        high_alpha = float(lines[-1].split("|")[1])
        assert low_alpha > high_alpha


class TestTrainCommand:
    def test_trains_and_reports_scores(self, capsys):
        exit_code = main([
            "train", *SMALL, "--dataset", "cora_ml", "--epsilon", "4",
            "--alpha", "0.8", "--steps", "1",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "privacy: epsilon=4" in output
        assert "test micro-F1" in output

    def test_public_inference_mode(self, capsys):
        exit_code = main([
            "train", *SMALL, "--epsilon", "2", "--steps", "1",
            "--inference-mode", "public",
        ])
        assert exit_code == 0
        assert "public inference" in capsys.readouterr().out


class TestTuneCommand:
    def test_random_search_reports_leaderboard(self, capsys):
        exit_code = main([
            "tune", *SMALL, "--epsilon", "4", "--trials", "2", "--strategy", "random",
            "--encoder-epochs", "15",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Validation leaderboard" in output
        assert "best params" in output


class TestFigureCommand:
    def test_table2_writes_text_file(self, capsys, tmp_path):
        exit_code = main([
            "figure", "table2", "--scale", "0.05", "--output-dir", str(tmp_path),
        ])
        assert exit_code == 0
        assert (tmp_path / "table2.txt").exists()
        assert "Table II" in capsys.readouterr().out

    def test_attack_figure_exports_text_csv_json(self, capsys, tmp_path):
        exit_code = main([
            "figure", "attack", "--scale", "0.06", "--repeats", "1",
            "--datasets", "cora_ml", "--output-dir", str(tmp_path),
        ])
        assert exit_code == 0
        for suffix in (".txt", ".csv", ".json"):
            assert (tmp_path / f"attack{suffix}").exists()
        output = capsys.readouterr().out
        assert "GCON" in output
        assert "GCN (non-DP)" in output


class TestPublishServeCommands:
    GRID = ["--datasets", "cora_ml", "--methods", "GCON,MLP",
            "--epsilons", "0.5,2", "--repeats", "1", "--scale", "0.06",
            "--epochs", "15", "--encoder-epochs", "20"]

    @pytest.fixture()
    def sweep_store(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("publish") / "sweep.jsonl"
        assert main(["sweep", *self.GRID, "--output", str(path), "--quiet"]) == 0
        return path

    def test_publish_selects_refits_and_registers(self, sweep_store, tmp_path,
                                                  capsys):
        registry_dir = tmp_path / "registry"
        exit_code = main([
            "publish", "--store", str(sweep_store), "--registry",
            str(registry_dir), "--name", "cora-gcon", *self.GRID,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "published cora-gcon@" in output
        assert "privacy: epsilon=" in output
        from repro.serving import ModelRegistry

        record = ModelRegistry(registry_dir).verify("cora-gcon@latest")
        assert record.manifest["training"]["dataset"] == "cora_ml"
        assert record.manifest["training"]["sweep_context"] is not None
        # The refit is the per-cell reference path, so its score must equal
        # the store's record for this cell (GCON groups of 2 epsilons ran
        # through the sweep fast path whose scores match the reference on
        # this grid).
        assert record.manifest["privacy"]["epsilon"] in (0.5, 2.0)

    def test_publish_rejects_mismatched_grid_context(self, sweep_store,
                                                     tmp_path, capsys):
        grid = list(self.GRID)
        grid[grid.index("20")] = "21"  # encoder-epochs drift
        exit_code = main([
            "publish", "--store", str(sweep_store), "--registry",
            str(tmp_path / "registry"), "--name", "x", *grid,
        ])
        assert exit_code == 2
        assert "sweep context" in capsys.readouterr().err

    def test_publish_rejects_non_gcon_winner(self, sweep_store, tmp_path,
                                             capsys):
        exit_code = main([
            "publish", "--store", str(sweep_store), "--registry",
            str(tmp_path / "registry"), "--name", "x", "--method", "MLP",
            *self.GRID,
        ])
        assert exit_code == 2
        assert "only" in capsys.readouterr().err

    def test_publish_missing_store_errors(self, tmp_path, capsys):
        exit_code = main([
            "publish", "--store", str(tmp_path / "absent.jsonl"),
            "--registry", str(tmp_path / "registry"), "--name", "x",
            *self.GRID,
        ])
        assert exit_code == 2
        assert "no records" in capsys.readouterr().err

    def test_serve_refuses_unknown_model(self, tmp_path, capsys):
        exit_code = main([
            "serve", "--registry", str(tmp_path / "registry"),
            "--model", "ghost@latest", "--port", "0",
        ])
        assert exit_code == 2
        assert "serve failed" in capsys.readouterr().err

    def test_parser_wires_serve_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--registry", "r", "--model", "m"])
        assert args.port == 8151
        assert args.batch_size == 4096
        assert args.max_latency_ms == 5.0

    def test_help_lists_publish_and_serve(self):
        help_text = build_parser().format_help()
        assert "publish" in help_text
        assert "serve" in help_text


def _subcommand(name: str) -> argparse.ArgumentParser:
    choices = next(action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return choices[name]


class TestServingSurface:
    """One ``repro serve`` process is the serving unit: no fleet command,
    no fleet flags, and ``repro trace`` reads one server."""

    SERVE = ["serve", "--registry", "r", "--model", "m"]

    def test_serve_takes_thirteen_flags(self):
        flags = {option for action in _subcommand("serve")._actions
                 if not isinstance(action, argparse._HelpAction)
                 for option in action.option_strings}
        assert flags == {
            "--registry", "--model", "--host", "--port", "--batch-size",
            "--max-latency-ms", "--max-connections", "--stats-interval",
            "--max-queue-depth", "--no-mmap", "--reload-interval", "--quiet",
            "--no-trace"}

    @pytest.mark.parametrize("flag", [["--slo-p99-ms", "50"],
                                      ["--static-batching"]],
                             ids=lambda flag: flag[0])
    def test_retired_batching_flag_is_an_argument_error(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*self.SERVE, *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--fleet-dir", "fleet"], ["--advertise", "127.0.0.1:8151"],
        ["--replica-id", "r0"], ["--fleet-ttl", "5"], ["--fleet-redirect"]],
        ids=lambda flag: flag[0])
    def test_retired_fleet_flag_is_an_argument_error(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*self.SERVE, *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" \
            in capsys.readouterr().err

    def test_fleet_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "status", "--fleet-dir", "fleet"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fleet'" in capsys.readouterr().err

    def test_trace_url_is_one_string(self):
        args = build_parser().parse_args(
            ["trace", "--url", "http://127.0.0.1:8151"])
        assert args.url == "http://127.0.0.1:8151"
        assert args.trace_id is None and args.limit == 10

    def test_trace_needs_a_url(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["trace", "0" * 32])
        assert excinfo.value.code == 2
        assert "--url" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sample-insert", "--sample-delete"])
    def test_sampling_flags_state_the_server_limit(self, flag):
        from repro.serving.graphstore import MAX_SAMPLED_EDGES

        graph = next(action.choices for action in _subcommand("graph")._actions
                     if isinstance(action, argparse._SubParsersAction))
        (action,) = [action for action in graph["update"]._actions
                     if flag in action.option_strings]
        assert str(MAX_SAMPLED_EDGES) in action.help


class TestServeCommand:
    """``repro serve`` up to its loop: warm, bind, start the watcher, and
    stop every thread it started on the way out."""

    @pytest.fixture(scope="class")
    def registry_dir(self, tmp_path_factory):
        from repro.core.config import GCONConfig
        from repro.core.model import GCON
        from repro.graphs.datasets import load_dataset
        from repro.serving import ModelRegistry

        graph = load_dataset("cora_ml", scale=0.06, seed=0)
        config = GCONConfig(epsilon=2.0, alpha=0.8, encoder_epochs=20,
                            encoder_dim=8, encoder_hidden=16)
        root = tmp_path_factory.mktemp("serve") / "reg"
        ModelRegistry(root).publish(
            GCON(config).fit(graph, seed=7), "demo",
            inference_mode="private",
            training={"dataset": "cora_ml", "scale": 0.06, "graph_seed": 0})
        return root

    @pytest.mark.parametrize("reload_args, watching", [
        ([], True), (["--reload-interval", "0"], False)],
        ids=["default-reload", "reload-off"])
    def test_serve_runs_and_stops_its_threads(self, registry_dir,
                                              monkeypatch, capsys,
                                              reload_args, watching):
        from repro.serving.httpd import SelectorHTTPServer

        seen = {}

        def interrupted(server, poll_interval=0.05):
            seen["threads"] = {thread.name
                               for thread in threading.enumerate()}
            raise KeyboardInterrupt

        monkeypatch.setattr(SelectorHTTPServer, "serve_forever", interrupted)
        exit_code = main(["serve", "--registry", str(registry_dir),
                          "--model", "demo@latest", "--port", "0",
                          "--quiet", *reload_args])
        assert exit_code == 0
        banner = capsys.readouterr().err.strip().splitlines()[-1]
        assert banner.startswith("serving demo@")
        # The readiness shape load generators parse the port out of.
        assert re.match(r"^serving .* on http://127\.0\.0\.1:\d+ \(", banner)
        assert banner.endswith("(batch<=4096, latency<=5ms, "
                               "connections<=512, queue<=512)")
        assert ("registry-watcher" in seen["threads"]) is watching
        assert not any("slo" in name for name in seen["threads"])
        assert "registry-watcher" not in {
            thread.name for thread in threading.enumerate()}

    @pytest.mark.parametrize("limits", [
        ["--batch-size", "0"], ["--max-latency-ms", "-1"],
        ["--max-latency-ms", "nan"], ["--max-latency-ms", "inf"]],
        ids=lambda limits: f"{limits[0]}={limits[1]}")
    def test_serve_refuses_batch_limits_its_queues_cannot_run(
            self, registry_dir, monkeypatch, limits):
        """The batch limits are fixed at start-up, so a pair the deadline
        loop cannot run fails there, before any socket is bound."""
        import repro.serving

        def bind(*args, **kwargs):
            raise AssertionError("serve bound a socket")

        monkeypatch.setattr(repro.serving, "serve_http", bind)
        with pytest.raises(ValueError, match="max_batch_size|max_latency"):
            main(["serve", "--registry", str(registry_dir),
                  "--model", "demo@latest", "--port", "0", "--quiet",
                  *limits])
