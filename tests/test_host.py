"""Host runtime: start/dispatch/status, hot-swap cycles, draining, restart."""

import io
import shutil
import threading
import time
from pathlib import Path

import pytest

from scpa_host.chain import ChainError, ErrorPolicy
from scpa_host.host import Host, HostConfig, HostConfigError, load_host_config
from scpa_host.registry import DropDirUnreadable, UnitState

from _util import write_bundle

EP = "business.things.do"

APPEND = (
    "def handle(payload, context):\n"
    "    out = dict(payload)\n"
    "    out['log'] = out.get('log', '') + {stamp!r}\n"
    "    return out\n"
)

FAILING = "def handle(payload, context):\n    raise RuntimeError('dead unit')\n"


def make_host(tmp_path, **overrides) -> Host:
    drop = tmp_path / "drop"
    drop.mkdir(exist_ok=True)
    defaults = dict(
        drop_dir=drop,
        scan_interval_ms=60_000,  # ticks are driven manually unless a test needs the watcher
        diagnostics=io.StringIO(),
    )
    defaults.update(overrides)
    return Host(HostConfig(**defaults))


class TestHostConfig:
    def test_bounds(self, tmp_path):
        with pytest.raises(HostConfigError):
            HostConfig(drop_dir=tmp_path, scan_interval_ms=5)
        with pytest.raises(HostConfigError):
            HostConfig(drop_dir=tmp_path, unit_timeout_ms=0)

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "host.conf"
        cfg.write_text(
            "# host settings\n"
            f"drop_dir: {tmp_path / 'units'}\n"
            "scan_interval_ms: 250\n"
            "error_policy: fail_open\n"
            "unit_timeout_ms: 750\n"
        )
        config = load_host_config(cfg)
        assert config.drop_dir == tmp_path / "units"
        assert config.scan_interval_ms == 250
        assert config.error_policy is ErrorPolicy.FAIL_OPEN
        assert config.unit_timeout_ms == 750

    def test_config_file_diagnostics_target(self, tmp_path):
        log = tmp_path / "diag.log"
        cfg = tmp_path / "host.conf"
        cfg.write_text(f"drop_dir: {tmp_path / 'drop'}\ndiagnostics: {log}\n")
        config = load_host_config(cfg)
        (tmp_path / "drop").mkdir()
        write_bundle(tmp_path / "drop", "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")])
        host = Host(config)
        host.start()
        host.stop()
        config.diagnostics.close()
        assert "EPOCH 1 activate unit-a@1.0.0" in log.read_text()

    def test_config_file_diagnostics_stderr_keyword(self, tmp_path):
        cfg = tmp_path / "host.conf"
        cfg.write_text("diagnostics: stderr\n")
        config = load_host_config(cfg, drop_dir=tmp_path)
        assert config.diagnostics is None

    def test_config_file_errors(self, tmp_path):
        cfg = tmp_path / "host.conf"
        cfg.write_text("scan_interval_ms: soon\n")
        with pytest.raises(HostConfigError):
            load_host_config(cfg, drop_dir=tmp_path)
        cfg.write_text("error_policy: maybe\n")
        with pytest.raises(HostConfigError):
            load_host_config(cfg, drop_dir=tmp_path)
        cfg.write_text("just junk\n")
        with pytest.raises(HostConfigError):
            load_host_config(cfg, drop_dir=tmp_path)


class TestStart:
    def test_empty_drop_dir(self, tmp_path):
        host = make_host(tmp_path).start()
        try:
            status = host.status()
            assert status.epoch == 0
            assert status.units == ()
        finally:
            host.stop()

    def test_bundle_active_after_start(self, tmp_path):
        host = make_host(tmp_path)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        host.start()
        try:
            status = host.status()
            assert status.epoch >= 1
            assert [(r.name, r.state) for r in status.units] == [("unit-a", "active")]
        finally:
            host.stop()

    def test_missing_drop_dir(self, tmp_path):
        host = Host(HostConfig(drop_dir=tmp_path / "missing", diagnostics=io.StringIO()))
        with pytest.raises(DropDirUnreadable):
            host.start()

    def test_dispatch_requires_started_host(self, tmp_path):
        host = make_host(tmp_path)
        with pytest.raises(RuntimeError):
            host.dispatch(EP, {})


class TestDispatch:
    def test_unbound_extension_point_returns_payload_unchanged(self, tmp_path):
        host = make_host(tmp_path).start()
        try:
            payload = {"k": 1, "nested": {"a": [True, "x"]}}
            out = host.dispatch("ui.nothing.here", payload)
            assert out == payload
            assert out is not payload
        finally:
            host.stop()

    def test_dispatch_counts_and_mean(self, tmp_path):
        host = make_host(tmp_path)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        host.start()
        try:
            for _ in range(5):
                host.dispatch(EP, {"log": ""})
            row = next(r for r in host.status().units if r.name == "unit-a")
            assert row.dispatches == 5
            assert row.errors == 0
            assert row.mean_duration_us > 0
        finally:
            host.stop()

    def test_error_counted_and_chainerror_raised(self, tmp_path):
        host = make_host(tmp_path)
        write_bundle(host.config.drop_dir, "unit-a", "1.0.0", FAILING, [("business", EP, "handle")])
        host.start()
        try:
            with pytest.raises(ChainError) as err:
                host.dispatch(EP, {})
            assert err.value.unit == "unit-a"
            row = next(r for r in host.status().units if r.name == "unit-a")
            assert row.errors == 1
            assert row.dispatches == 1
        finally:
            host.stop()

    def test_counts_monotonic(self, tmp_path):
        host = make_host(tmp_path, error_policy=ErrorPolicy.FAIL_OPEN)
        write_bundle(host.config.drop_dir, "unit-a", "1.0.0", FAILING, [("business", EP, "handle")])
        host.start()
        try:
            seen = []
            for _ in range(3):
                host.dispatch(EP, {})
                row = next(r for r in host.status().units if r.name == "unit-a")
                seen.append((row.dispatches, row.errors))
            assert seen == sorted(seen)
            assert seen[-1] == (3, 3)
        finally:
            host.stop()


class TestHotSwap:
    def test_new_bundle_activates_without_restart(self, tmp_path):
        host = make_host(tmp_path).start()
        try:
            assert host.dispatch(EP, {"log": ""}) == {"log": ""}
            write_bundle(
                host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
            )
            report = host.hot_swap_cycle()
            assert report.activated == (("unit-a", "1.0.0"),)
            assert host.dispatch(EP, {"log": ""}) == {"log": "a"}
        finally:
            host.stop()

    def test_no_disk_change_no_new_epoch(self, tmp_path):
        host = make_host(tmp_path)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        host.start()
        try:
            before = host.status().epoch
            report = host.hot_swap_cycle()
            assert not report.changed
            assert host.status().epoch == before
        finally:
            host.stop()

    def test_directory_removal_deactivates(self, tmp_path):
        host = make_host(tmp_path)
        bundle = write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        host.start()
        try:
            shutil.rmtree(bundle.parent)
            report = host.hot_swap_cycle()
            assert report.deactivated == (("unit-a", "1.0.0"),)
            assert host.dispatch(EP, {"log": ""}) == {"log": ""}
        finally:
            host.stop()

    def test_disabled_marker_deactivates_and_enable_restores(self, tmp_path):
        host = make_host(tmp_path)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        host.start()
        try:
            marker = host.config.drop_dir / "unit-a" / "disabled"
            marker.touch()
            host.hot_swap_cycle()
            assert host.dispatch(EP, {"log": ""}) == {"log": ""}
            marker.unlink()
            host.hot_swap_cycle()
            assert host.dispatch(EP, {"log": ""}) == {"log": "a"}
        finally:
            host.stop()

    def test_version_upgrade_single_epoch(self, tmp_path):
        host = make_host(tmp_path)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="old"), [("business", EP, "handle")]
        )
        host.start()
        try:
            epoch_before = host.status().epoch
            write_bundle(
                host.config.drop_dir, "unit-a", "1.1.0", APPEND.format(stamp="new"), [("business", EP, "handle")]
            )
            report = host.hot_swap_cycle()
            assert host.status().epoch == epoch_before + 1
            assert report.activated == (("unit-a", "1.1.0"),)
            assert host.dispatch(EP, {"log": ""}) == {"log": "new"}
        finally:
            host.stop()

    def test_partial_bundle_retried_not_failed(self, tmp_path):
        host = make_host(tmp_path).start()
        try:
            # simulate a copy in progress: payload differs from the manifest
            bundle = write_bundle(
                host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
            )
            (bundle / "payload.py").write_text("# half copied\n")
            report = host.hot_swap_cycle()
            assert report.activated == ()
            assert any(r.code == "checksum-mismatch" for r in report.rejects)
            assert host.registry.record_state("unit-a", "1.0.0") is None
            # the copy completes; the next tick picks the bundle up
            (bundle / "payload.py").write_text(APPEND.format(stamp="a"))
            report = host.hot_swap_cycle()
            assert report.activated == (("unit-a", "1.0.0"),)
        finally:
            host.stop()

    def test_watcher_liveness(self, tmp_path):
        interval_ms = 150
        host = make_host(tmp_path, scan_interval_ms=interval_ms).start()
        try:
            write_bundle(
                host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
            )
            started = time.monotonic()
            deadline = started + (2 * interval_ms / 1000) + 0.5
            while time.monotonic() < deadline:
                rows = {r.name: r.state for r in host.status().units}
                if rows.get("unit-a") == "active":
                    break
                time.sleep(0.02)
            else:
                pytest.fail("bundle not activated within two scan intervals (plus slack)")
        finally:
            host.stop()

    def test_watcher_survives_a_raising_tick(self, tmp_path, monkeypatch):
        import scpa_host.host as host_mod

        real_scan = host_mod.scan
        calls = []

        def scan_failing_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:  # the first watcher tick
                raise RuntimeError("disk on fire")
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(host_mod, "scan", scan_failing_once)
        stream = io.StringIO()
        host = make_host(tmp_path, scan_interval_ms=20, diagnostics=stream).start()
        try:
            write_bundle(
                host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
            )
            deadline = time.monotonic() + 5
            while host.registry.active_version("unit-a") is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert host.registry.active_version("unit-a") == "1.0.0"
        finally:
            host.stop()
        assert "ERROR watcher tick failed: RuntimeError: disk on fire" in stream.getvalue().splitlines()

    def test_raising_epoch_listener_is_reported_not_raised(self, tmp_path):
        stream = io.StringIO()
        host = make_host(tmp_path, diagnostics=stream).start()
        seen = []
        host.on_epoch_change(lambda report: 1 / 0)
        host.on_epoch_change(seen.append)
        try:
            write_bundle(
                host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
            )
            report = host.hot_swap_cycle()
        finally:
            host.stop()
        assert seen == [report]
        assert "ERROR epoch listener failed: ZeroDivisionError: division by zero" in stream.getvalue()

    def test_payload_changed_after_scan_is_a_reject_for_that_tick(self, tmp_path, monkeypatch):
        import scpa_host.host as host_mod

        host = make_host(tmp_path).start()
        bundle = write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        real_scan = host_mod.scan

        def scan_then_tamper(*args, **kwargs):
            result = real_scan(*args, **kwargs)
            (bundle / "payload.py").write_text(APPEND.format(stamp="evil"))
            return result

        try:
            with monkeypatch.context() as m:
                m.setattr(host_mod, "scan", scan_then_tamper)
                report = host.hot_swap_cycle()
            assert report.activated == ()
            assert [(r.path, r.code) for r in report.rejects] == [(str(bundle), "checksum-mismatch")]
            assert host.registry.record_state("unit-a", "1.0.0") is UnitState.VALIDATED
            (bundle / "payload.py").write_text(APPEND.format(stamp="a"))
            assert host.hot_swap_cycle().activated == (("unit-a", "1.0.0"),)
            assert host.dispatch(EP, {})["log"] == "a"
        finally:
            host.stop()

    def test_epoch_lines_on_diagnostics(self, tmp_path):
        stream = io.StringIO()
        host = make_host(tmp_path, diagnostics=stream)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        host.start()
        host.stop()
        epoch_lines = [l for l in stream.getvalue().splitlines() if l.startswith("EPOCH ")]
        assert epoch_lines == ["EPOCH 1 activate unit-a@1.0.0"]


class TestDraining:
    def test_unload_waits_for_inflight_work(self, tmp_path):
        host = make_host(tmp_path, error_policy=ErrorPolicy.FAIL_OPEN, unit_timeout_ms=10_000)
        slow = (
            "import time\n"
            "from pathlib import Path\n"
            "MARKS = None\n"
            "def load(context):\n"
            "    global MARKS\n"
            "    MARKS = Path(context.data_dir) / 'marks.txt'\n"
            "def handle(payload, context):\n"
            "    time.sleep(0.4)\n"
            "    with MARKS.open('a') as fh:\n"
            "        fh.write(f'execute_end {time.monotonic()}\\n')\n"
            "    return dict(payload)\n"
            "def unload():\n"
            "    with MARKS.open('a') as fh:\n"
            "        fh.write(f'unload {time.monotonic()}\\n')\n"
        )
        bundle = write_bundle(host.config.drop_dir, "slow-unit", "1.0.0", slow, [("business", EP, "handle")])
        host.start()
        try:
            worker = threading.Thread(target=lambda: host.dispatch(EP, {}))
            worker.start()
            time.sleep(0.1)  # dispatch is now inside the slow execute
            shutil.rmtree(bundle.parent)
            report = host.hot_swap_cycle()
            assert report.deactivated == (("slow-unit", "1.0.0"),)
            assert host.registry.record_state("slow-unit", "1.0.0") is UnitState.DRAINING
            worker.join()
            host.hot_swap_cycle()
            assert host.registry.record_state("slow-unit", "1.0.0") is UnitState.RETIRED
            marks = (host.config.drop_dir / ".scpa" / "data" / "slow-unit" / "marks.txt").read_text()
            events = [line.split() for line in marks.splitlines()]
            execute_ends = [float(t) for kind, t in events if kind == "execute_end"]
            unloads = [float(t) for kind, t in events if kind == "unload"]
            assert len(unloads) == 1
            assert all(end < unloads[0] for end in execute_ends)
        finally:
            host.stop()


class TestRestartEquivalence:
    def test_routes_identical_after_restart(self, tmp_path):
        host = make_host(tmp_path)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        write_bundle(
            host.config.drop_dir, "unit-b", "2.0.0", APPEND.format(stamp="b"), [("business", EP, "handle")],
            priority=10,
        )
        host.start()
        routes_before = {
            ep: [(h.unit, h.version, h.priority) for h in refs]
            for ep, refs in host.registry.snapshot.routes.items()
        }
        host.stop()

        host2 = make_host(tmp_path).start()
        routes_after = {
            ep: [(h.unit, h.version, h.priority) for h in refs]
            for ep, refs in host2.registry.snapshot.routes.items()
        }
        host2.stop()
        assert routes_before == routes_after
