"""Operator CLI: exit codes, drop-folder mutations, reports."""

import threading
from pathlib import Path

import pytest

from scpa_host.cli import build_parser, cmd_run, main
from scpa_host.impact import DEMO_GRAPH

from _util import write_bundle

EP = "business.things.do"
APPEND = "def handle(payload, context):\n    out = dict(payload)\n    out['log'] = out.get('log', '') + 'a'\n    return out\n"
BINDINGS = [("business", EP, "handle")]


def tree_state(path: Path):
    return sorted(str(p.relative_to(path)) for p in path.rglob("*"))


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["run"],
            ["no-such-command"],
            ["list"],
            ["deploy"],
            ["impact", "--graph", "x"],
            ["rollback"],
        ],
    )
    def test_usage_exit_2(self, argv, capsys):
        assert main(argv) == 2

    def test_usage_errors_do_not_touch_drop_folder(self, tmp_path, capsys):
        drop = tmp_path / "drop"
        drop.mkdir()
        write_bundle(drop, "unit-a", "1.0.0", APPEND, BINDINGS)
        before = tree_state(drop)
        assert main(["run"]) == 2
        assert main(["disable"]) == 2
        assert tree_state(drop) == before


class TestListCommand:
    def test_empty_dir_header_only(self, tmp_path, capsys):
        assert main(["list", "--drop-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["unit", "version", "state", "pinned"]
        assert len(out.strip().splitlines()) == 1

    def test_two_versions_one_active(self, tmp_path, capsys):
        write_bundle(tmp_path, "unit-a", "1.0.0", APPEND, BINDINGS)
        write_bundle(tmp_path, "unit-a", "1.1.0", APPEND, BINDINGS)
        assert main(["list", "--drop-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        states = {tuple(l.split()[:3]) for l in lines[1:] if l.strip()}
        assert ("unit-a", "1.1.0", "active") in states
        assert ("unit-a", "1.0.0", "available") in states

    def test_an_undecodable_pin_is_ignored(self, tmp_path, capsys):
        write_bundle(tmp_path, "unit-a", "1.0.0", APPEND, BINDINGS)
        write_bundle(tmp_path, "unit-a", "1.1.0", APPEND, BINDINGS)
        (tmp_path / "unit-a" / "pin").write_bytes(b"pin: 1.0.0\xff\n")
        assert main(["list", "--drop-dir", str(tmp_path), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "unit-a,1.1.0,active,",
            "unit-a,1.0.0,available,",
        ]
        assert main(["rollback", "unit-a", "--drop-dir", str(tmp_path)]) == 0
        assert (tmp_path / "unit-a" / "pin").read_text() == "pin: 1.0.0\n"

    def test_rejects_shown(self, tmp_path, capsys):
        bundle = write_bundle(tmp_path, "unit-a", "1.0.0", APPEND, BINDINGS)
        (bundle / "payload.py").write_text("tampered")
        assert main(["list", "--drop-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "rejects:" in out
        assert "checksum-mismatch" in out

    def test_csv_format(self, tmp_path, capsys):
        write_bundle(tmp_path, "unit-a", "1.0.0", APPEND, BINDINGS)
        assert main(["status", "--drop-dir", str(tmp_path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "unit,version,state,pinned"
        assert lines[1].startswith("unit-a,1.0.0,active")

    def test_unreadable_dir(self, tmp_path, capsys):
        assert main(["list", "--drop-dir", str(tmp_path / "missing")]) == 1


class TestDeploy:
    def _bundle(self, tmp_path) -> Path:
        src = tmp_path / "src"
        return write_bundle(src, "unit-a", "1.0.0", APPEND, BINDINGS)

    def test_deploy_then_list(self, tmp_path, capsys):
        bundle = self._bundle(tmp_path)
        drop = tmp_path / "drop"
        drop.mkdir()
        assert main(["deploy", str(bundle), "--drop-dir", str(drop)]) == 0
        assert (drop / "unit-a" / "1.0.0" / "manifest.scpa").is_file()
        assert main(["list", "--drop-dir", str(drop)]) == 0
        assert "unit-a" in capsys.readouterr().out

    def test_identical_redeploy_is_noop(self, tmp_path, capsys):
        bundle = self._bundle(tmp_path)
        drop = tmp_path / "drop"
        drop.mkdir()
        assert main(["deploy", str(bundle), "--drop-dir", str(drop)]) == 0
        before = tree_state(drop)
        assert main(["deploy", str(bundle), "--drop-dir", str(drop)]) == 0
        assert "no-op" in capsys.readouterr().out
        assert tree_state(drop) == before

    def test_corrupt_bundle_rejected(self, tmp_path, capsys):
        bundle = self._bundle(tmp_path)
        (bundle / "payload.py").write_text("tampered")
        drop = tmp_path / "drop"
        drop.mkdir()
        assert main(["deploy", str(bundle), "--drop-dir", str(drop)]) == 1
        assert "checksum" in capsys.readouterr().err
        assert tree_state(drop) == []

    def test_not_a_bundle(self, tmp_path, capsys):
        drop = tmp_path / "drop"
        drop.mkdir()
        assert main(["deploy", str(tmp_path), "--drop-dir", str(drop)]) == 1


class TestToggleAndRollback:
    def test_disable_enable_idempotent(self, tmp_path, capsys):
        write_bundle(tmp_path, "unit-a", "1.0.0", APPEND, BINDINGS)
        assert main(["disable", "unit-a", "--drop-dir", str(tmp_path)]) == 0
        marker = tmp_path / "unit-a" / "disabled"
        assert marker.exists()
        state = tree_state(tmp_path)
        assert main(["disable", "unit-a", "--drop-dir", str(tmp_path)]) == 0
        assert "no-op" in capsys.readouterr().out
        assert tree_state(tmp_path) == state
        assert main(["enable", "unit-a", "--drop-dir", str(tmp_path)]) == 0
        assert not marker.exists()
        assert main(["enable", "unit-a", "--drop-dir", str(tmp_path)]) == 0

    def test_disable_unknown_unit(self, tmp_path, capsys):
        assert main(["disable", "ghost", "--drop-dir", str(tmp_path)]) == 1

    def test_enable_unknown_unit(self, tmp_path, capsys):
        assert main(["enable", "ghost", "--drop-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "unknown unit: ghost" in captured.err
        assert "no-op" not in captured.out
        assert not (tmp_path / "ghost").exists()

    @pytest.mark.parametrize("name", ["..", ".", "unit-a/1.0.0"])
    def test_a_name_that_is_no_unit_name_changes_no_file(self, tmp_path, capsys, name):
        drop = tmp_path / "drop"
        write_bundle(drop, "unit-a", "1.0.0", APPEND, BINDINGS)
        state = tree_state(tmp_path)
        assert main(["disable", name, "--drop-dir", str(drop)]) == 1
        assert f"unknown unit: {name}" in capsys.readouterr().err
        assert tree_state(tmp_path) == state
        for marker in (tmp_path / "disabled", drop / "disabled", drop / "unit-a" / "1.0.0" / "disabled"):
            marker.touch()
        state = tree_state(tmp_path)
        assert main(["enable", name, "--drop-dir", str(drop)]) == 1
        assert f"unknown unit: {name}" in capsys.readouterr().err
        assert tree_state(tmp_path) == state

    def test_rollback_writes_pin(self, tmp_path, capsys):
        write_bundle(tmp_path, "unit-a", "1.0.0", APPEND, BINDINGS)
        write_bundle(tmp_path, "unit-a", "1.1.0", APPEND, BINDINGS)
        assert main(["rollback", "unit-a", "--drop-dir", str(tmp_path)]) == 0
        assert (tmp_path / "unit-a" / "pin").read_text() == "pin: 1.0.0\n"
        capsys.readouterr()
        assert main(["list", "--drop-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        active_line = next(l for l in out.splitlines() if "1.0.0" in l)
        assert "active" in active_line and "yes" in active_line

    def test_rollback_single_version_fails(self, tmp_path, capsys):
        write_bundle(tmp_path, "unit-a", "1.0.0", APPEND, BINDINGS)
        assert main(["rollback", "unit-a", "--drop-dir", str(tmp_path)]) == 1
        assert "no prior version" in capsys.readouterr().err

    def test_rollback_unknown_unit(self, tmp_path, capsys):
        assert main(["rollback", "ghost", "--drop-dir", str(tmp_path)]) == 1


class TestReports:
    def test_impact_command(self, capsys):
        assert main(["impact", "--graph", str(DEMO_GRAPH), "--changed", "sales-data"]) == 0
        out = capsys.readouterr().out
        assert "layered closure (4)" in out
        assert "scpa closure (1)" in out
        assert "reduction: 75.00%" in out

    def test_impact_unknown_component(self, capsys):
        assert main(["impact", "--graph", str(DEMO_GRAPH), "--changed", "ghost"]) == 1

    def test_impact_missing_file(self, tmp_path, capsys):
        assert main(["impact", "--graph", str(tmp_path / "nope"), "--changed", "x"]) == 1

    def test_impact_csv(self, capsys):
        assert (
            main(["impact", "--graph", str(DEMO_GRAPH), "--changed", "sales-data", "--format", "csv"])
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("changed,layered_size,scpa_size")
        assert lines[1].startswith("sales-data,4,1,75.00")

    def test_paper_metrics_defaults(self, capsys):
        assert main(["paper-metrics"]) == 0
        out = capsys.readouterr().out
        release = next(l for l in out.splitlines() if l.startswith("release_time"))
        assert "-42.99%" in release
        loc = next(l for l in out.splitlines() if l.startswith("loc_changed"))
        assert "+22.58%" in loc
        assert "-85.54%" in out  # discrepancy note

    def test_paper_metrics_bad_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("project,defects\nP1,1\n")
        assert main(["paper-metrics", "--baseline", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_once_on_empty_dir(self, tmp_path, capsys):
        drop = tmp_path / "drop"
        drop.mkdir()
        assert main(["run", "--drop-dir", str(drop), "--once"]) == 0

    def test_missing_drop_dir(self, tmp_path, capsys):
        assert main(["run", "--drop-dir", str(tmp_path / "none"), "--once"]) == 1

    def test_once_with_demo_renders_baseline(self, tmp_path, capsys):
        from scpa_host.demo import GOLDEN_DIR

        drop = tmp_path / "drop"
        drop.mkdir()
        assert main(["run", "--drop-dir", str(drop), "--demo", "--once"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / "baseline.txt").read_text()

    def test_epoch_lines_on_stderr(self, tmp_path, capsys):
        drop = tmp_path / "drop"
        drop.mkdir()
        write_bundle(drop, "unit-a", "1.0.0", APPEND, BINDINGS)
        assert main(["run", "--drop-dir", str(drop), "--once"]) == 0
        err = capsys.readouterr().err
        assert "EPOCH 1 activate unit-a@1.0.0" in err

    def test_run_with_config_file(self, tmp_path, capsys):
        drop = tmp_path / "drop"
        drop.mkdir()
        cfg = tmp_path / "host.conf"
        cfg.write_text("scan_interval_ms: 50\nerror_policy: fail_open\n")
        assert main(["run", "--drop-dir", str(drop), "--config", str(cfg), "--once"]) == 0

    def test_long_running_stops_on_event(self, tmp_path):
        drop = tmp_path / "drop"
        drop.mkdir()
        parser = build_parser()
        args = parser.parse_args(["run", "--drop-dir", str(drop)])
        stop = threading.Event()
        result = {}

        def target():
            result["code"] = cmd_run(args, stop_event=stop)

        worker = threading.Thread(target=target)
        worker.start()
        stop.set()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert result["code"] == 0


class TestEndToEndPresenceViaCli:
    def test_disable_affects_running_host(self, tmp_path):
        import io

        from scpa_host.host import Host, HostConfig

        drop = tmp_path / "drop"
        drop.mkdir()
        write_bundle(drop, "unit-a", "1.0.0", APPEND, BINDINGS)
        host = Host(HostConfig(drop_dir=drop, scan_interval_ms=60_000, diagnostics=io.StringIO()))
        host.start()
        try:
            assert host.dispatch(EP, {"log": ""}) == {"log": "a"}
            assert main(["disable", "unit-a", "--drop-dir", str(drop)]) == 0
            host.hot_swap_cycle()
            assert host.dispatch(EP, {"log": ""}) == {"log": ""}
            assert main(["enable", "unit-a", "--drop-dir", str(drop)]) == 0
            host.hot_swap_cycle()
            assert host.dispatch(EP, {"log": ""}) == {"log": "a"}
        finally:
            host.stop()


class TestDemoBundlesCommand:
    def test_builds_all_samples(self, tmp_path, capsys):
        dest = tmp_path / "bundles"
        assert main(["demo-bundles", "--dest", str(dest)]) == 0
        names = sorted(p.name for p in dest.iterdir())
        assert names == [
            "price-rounding-fix-1.0.0",
            "price-rounding-fix-1.0.1",
            "sales-by-product-1.0.0",
        ]
        for bundle in dest.iterdir():
            assert (bundle / "manifest.scpa").is_file()
            assert (bundle / "payload.py").is_file()
