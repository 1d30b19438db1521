"""Host runtime: start/dispatch/status, hot-swap cycles, draining, restart."""

import gc
import io
import random
import shutil
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import MappingProxyType

import pytest

from scpa_host.chain import ChainError, ErrorPolicy
from scpa_host.contract import ValueMapError
from scpa_host.diagnostics import DiagnosticLog
from scpa_host.host import Host, HostConfig, HostConfigError, load_host_config
from scpa_host.registry import DropDirUnreadable, Registry, UnitState, write_pin

from _util import deploy_bundle, write_bundle

EP = "business.things.do"

APPEND = (
    "def handle(payload, context):\n"
    "    out = dict(payload)\n"
    "    out['log'] = out.get('log', '') + {stamp!r}\n"
    "    return out\n"
)

FAILING = "def handle(payload, context):\n    raise RuntimeError('dead unit')\n"

MESSAGELESS = (
    "from scpa_host.contract import UnitExecutionError\n"
    "def handle(payload, context):\n"
    "    raise UnitExecutionError()\n"
)


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


class FlushCounting(io.StringIO):
    """A diagnostics stream that counts its flushes."""

    flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


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

    def test_a_rejected_config_leaves_no_diagnostics_file_open(self, tmp_path):
        cfg = tmp_path / "host.conf"
        cfg.write_text(f"scan_interval_ms: 1\ndiagnostics: {tmp_path / 'diag.log'}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(HostConfigError):
                load_host_config(cfg, drop_dir=tmp_path)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


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

    def test_a_stopped_host_is_freed_without_the_cyclic_gc(self, tmp_path):
        host = make_host(tmp_path)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            host.start()
            assert host.dispatch(EP, {"log": ""}) == {"log": "a"}
            host.stop()
            ref = weakref.ref(host)
            del host
            assert ref() is None
        finally:
            if gc_was_enabled:
                gc.enable()

    def test_a_unit_whose_context_cannot_be_built_fails_alone(self, tmp_path):
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        write_bundle(drop, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")])
        write_bundle(drop, "unit-b", "1.0.0", APPEND.format(stamp="b"), [("business", EP, "handle")])
        (drop / ".scpa" / "data").mkdir(parents=True)
        (drop / ".scpa" / "data" / "unit-a").write_text("a file where the data dir goes")
        host.start()
        try:
            assert host.registry.record_state("unit-a", "1.0.0") is UnitState.FAILED
            assert host.registry.active_version("unit-b") == "1.0.0"
            assert host.dispatch(EP, {"log": ""}) == {"log": "b"}
            assert not host.hot_swap_cycle().changed
            rejects = [line for line in host.config.diagnostics.getvalue().splitlines() if line.startswith("REJECT")]
            assert len(rejects) == 1
            assert rejects[0].split()[2:4] == ["load-failed", "FileExistsError:"]
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
            assert out["nested"] is not payload["nested"]
            assert out["nested"]["a"] is not payload["nested"]["a"]
        finally:
            host.stop()

    @pytest.mark.parametrize("policy", [ErrorPolicy.FAIL_OPEN, ErrorPolicy.FAIL_CLOSED])
    def test_bad_extension_point_or_payload_fails_before_any_unit_runs(self, tmp_path, policy):
        ran = tmp_path / "ran"
        source = (
            "def handle(payload, context):\n"
            f"    open({str(ran)!r}, 'a').close()\n"
            "    return payload\n"
        )
        host = make_host(tmp_path, error_policy=policy)
        write_bundle(host.config.drop_dir, "unit-a", "1.0.0", source, [("business", EP, "handle")])
        host.start()
        try:
            with pytest.raises(ValueError, match="^bad extension point 'notdotted'$"):
                host.dispatch("notdotted", {})
            with pytest.raises(ValueMapError, match=r"^payload\.rows\[1\]: unsupported value type object$"):
                host.dispatch(EP, {"rows": ["ok", object()]})
            assert not ran.exists()
            assert host.dispatch(EP, {"rows": ["ok"]}) == {"rows": ["ok"]}
            assert ran.exists()
        finally:
            host.stop()

    def test_a_mapping_that_is_not_a_dict_is_accepted(self, tmp_path):
        host = make_host(tmp_path)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        host.start()
        try:
            out = host.dispatch(EP, MappingProxyType({"log": "", "tags": ["t"]}))
            assert out == {"log": "a", "tags": ["t"]}
            assert type(out) is dict
        finally:
            host.stop()

    def test_fail_closed_view_kept_and_mutated_later_changes_no_result(self, tmp_path):
        # under FAIL_CLOSED a unit's view is the host's own copy, handed over
        keeper = (
            "KEPT = []\n"
            "def handle(payload, context):\n"
            "    for old in KEPT:\n"
            "        old['rows'].append('late')\n"
            "        old['n'] = -1\n"
            "    KEPT.append(payload)\n"
            "    return payload\n"
        )
        host = make_host(tmp_path, error_policy=ErrorPolicy.FAIL_CLOSED)
        for name, priority in (("keep-a", 10), ("keep-b", 20)):
            write_bundle(
                host.config.drop_dir, name, "1.0.0", keeper, [("business", EP, "handle")], priority=priority
            )
        host.start()
        try:
            results = [host.dispatch(EP, {"n": n, "rows": []}) for n in range(3)]
            assert results == [{"n": n, "rows": []} for n in range(3)]
        finally:
            host.stop()

    def test_a_dispatch_writes_its_trace_lines_together_in_chain_order(self, tmp_path):
        stream = FlushCounting()
        host = make_host(tmp_path, diagnostics=stream)
        for stamp, priority in (("a", 30), ("b", 10), ("c", 20)):
            write_bundle(
                host.config.drop_dir, f"unit-{stamp}", "1.0.0", APPEND.format(stamp=stamp),
                [("business", EP, "handle")], priority=priority,
            )
        host.start()
        try:
            written, flushes = len(stream.getvalue()), stream.flushes
            assert host.dispatch(EP, {"log": ""}) == {"log": "bca"}
            lines = stream.getvalue()[written:].splitlines()
            assert stream.flushes == flushes + 1
            assert [(f[0], f[3]) for f in map(str.split, lines)] == [
                ("TRACE", "unit-b@1.0.0"), ("TRACE", "unit-c@1.0.0"), ("TRACE", "unit-a@1.0.0"),
            ]
        finally:
            host.stop()

    def test_a_failed_dispatch_still_writes_the_trace_lines_of_its_calls(self, tmp_path):
        stream = FlushCounting()
        host = make_host(tmp_path, diagnostics=stream, error_policy=ErrorPolicy.FAIL_CLOSED)
        drop = host.config.drop_dir
        write_bundle(drop, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")], priority=10)
        write_bundle(drop, "unit-b", "1.0.0", FAILING, [("business", EP, "handle")], priority=20)
        write_bundle(drop, "unit-c", "1.0.0", APPEND.format(stamp="c"), [("business", EP, "handle")], priority=30)
        host.start()
        try:
            written, flushes = len(stream.getvalue()), stream.flushes
            with pytest.raises(ChainError):
                host.dispatch(EP, {"log": ""})
            lines = stream.getvalue()[written:].splitlines()
            assert stream.flushes == flushes + 1
            assert [(f[3], f[5]) for f in map(str.split, lines)] == [
                ("unit-a@1.0.0", "ok"), ("unit-b@1.0.0", "error"),
            ]
        finally:
            host.stop()

    def test_a_dispatch_with_no_unit_bound_writes_nothing(self, tmp_path):
        stream = FlushCounting()
        host = make_host(tmp_path, diagnostics=stream)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        host.start()
        try:
            written, flushes = stream.getvalue(), stream.flushes
            assert host.dispatch("ui.nothing.here", {"k": 1}) == {"k": 1}
            assert (stream.getvalue(), stream.flushes) == (written, flushes)
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

    @pytest.mark.parametrize("policy", [ErrorPolicy.FAIL_OPEN, ErrorPolicy.FAIL_CLOSED])
    def test_a_unit_error_with_no_message_is_contained(self, tmp_path, policy):
        stream = io.StringIO()
        host = make_host(tmp_path, diagnostics=stream, error_policy=policy)
        drop = host.config.drop_dir
        write_bundle(drop, "unit-a", "1.0.0", MESSAGELESS, [("business", EP, "handle")], priority=10)
        write_bundle(drop, "unit-b", "1.0.0", APPEND.format(stamp="b"), [("business", EP, "handle")], priority=20)
        host.start()
        try:
            written = len(stream.getvalue())
            if policy is ErrorPolicy.FAIL_OPEN:
                assert host.dispatch(EP, {"log": ""}) == {"log": "b"}
                expected = [("unit-a@1.0.0", "error"), ("unit-b@1.0.0", "ok")]
            else:
                with pytest.raises(ChainError) as err:
                    host.dispatch(EP, {"log": ""})
                assert (err.value.unit, err.value.message) == ("unit-a", "UnitExecutionError")
                assert [r.error for r in err.value.trace] == ["UnitExecutionError"]
                expected = [("unit-a@1.0.0", "error")]
            lines = stream.getvalue()[written:].splitlines()
            assert [(f[3], f[5]) for f in map(str.split, lines)] == expected
            row = next(r for r in host.status().units if r.name == "unit-a")
            assert (row.dispatches, row.errors) == (1, 1)
        finally:
            host.stop()

    def test_status_orders_versions_by_number(self, tmp_path):
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        host.start()
        try:
            for version in ("1.0.2", "1.0.9", "1.0.10"):
                write_bundle(drop, "unit-a", version, APPEND.format(stamp=version), [("business", EP, "handle")])
                assert host.hot_swap_cycle().activated == (("unit-a", version),)
            assert [r.version for r in host.status().units] == ["1.0.2", "1.0.9", "1.0.10"]
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


class TestBrokenDiagnostics:
    def test_closed_stream_fails_no_dispatch_and_no_tick(self, tmp_path):
        stream = io.StringIO()
        host = make_host(tmp_path, diagnostics=stream)
        write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        host.start()
        try:
            epoch = host.status().epoch
            stream.close()
            assert host.dispatch(EP, {"log": ""}) == {"log": "a"}
            write_bundle(
                host.config.drop_dir, "unit-b", "1.0.0", APPEND.format(stamp="b"),
                [("business", EP, "handle")], priority=200,
            )
            host.hot_swap_cycle()
            assert host.status().epoch == epoch + 1
            assert host.dispatch(EP, {"log": ""}) == {"log": "ab"}
            # one TRACE per unit call, one EPOCH per activation
            assert host.diag.dropped == 1 + 1 + 2
        finally:
            host.stop()

    @pytest.mark.parametrize("error", [BrokenPipeError(32, "Broken pipe"), OSError(28, "No space left on device")])
    def test_a_stream_error_drops_the_line_and_counts_it(self, error):
        class Failing(io.StringIO):
            def write(self, text):
                raise error

        log = DiagnosticLog(Failing())
        log("TRACE one")
        log.emit("TRACE two")
        assert log.dropped == 2


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

    def test_a_dispatch_begun_once_an_epoch_is_logged_runs_in_that_epoch(self, tmp_path):
        marking = (
            "from pathlib import Path\n"
            "def handle(payload, context):\n"
            "    with (Path(context.data_dir) / 'marks.txt').open('a') as fh:\n"
            "        fh.write('{version}\\n')\n"
            "    return dict(payload, by={version!r})\n"
        )
        results, workers = [], []

        class DispatchOnEpoch(io.StringIO):
            """Starts a dispatch as soon as epoch 2 is logged."""

            def write(self, text):
                written = super().write(text)
                if "EPOCH 2 activate unit-b@1.0.1" in text:
                    worker = threading.Thread(target=lambda: results.append(host.dispatch(EP, {})))
                    workers.append(worker)
                    worker.start()
                    # not joined: its TRACE write waits for the lock this write holds
                    deadline = time.monotonic() + 5
                    while not (marks.exists() and marks.read_text()) and time.monotonic() < deadline:
                        time.sleep(0.01)
                return written

        stream = DispatchOnEpoch()
        host = make_host(tmp_path, diagnostics=stream)
        drop = host.config.drop_dir
        marks = drop / ".scpa" / "data" / "unit-b" / "marks.txt"
        bindings = [("business", EP, "handle")]
        write_bundle(drop, "unit-b", "1.0.0", marking.format(version="1.0.0"), bindings)
        host.start()
        try:
            write_bundle(drop, "unit-b", "1.0.1", marking.format(version="1.0.1"), bindings)
            report = host.hot_swap_cycle()
            assert (report.end_epoch, report.activated) == (2, (("unit-b", "1.0.1"),))
            assert len(workers) == 1
            workers[0].join(timeout=5)
            assert not workers[0].is_alive()
            assert marks.read_text().splitlines() == ["1.0.1"]
            assert results == [{"by": "1.0.1"}]
            traces = [line.split() for line in stream.getvalue().splitlines() if line.startswith("TRACE")]
            assert [trace[2:4] for trace in traces] == [["2", "unit-b@1.0.1"]]
        finally:
            for worker in workers:
                worker.join(timeout=5)
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

    def test_an_undecodable_pin_is_ignored_and_the_tick_goes_on(self, tmp_path):
        stream = io.StringIO()
        host = make_host(tmp_path, diagnostics=stream)
        drop = host.config.drop_dir
        for name, version in [("unit-a", "1.0.0"), ("unit-a", "1.1.0"), ("unit-b", "1.0.0")]:
            write_bundle(drop, name, version, APPEND.format(stamp=name[-1]), [("business", EP, "handle")])
        host.start()
        try:
            (drop / "unit-a" / "pin").write_bytes(b"pin: 1.0.0\xff\n")
            (drop / "unit-b" / "disabled").touch()
            report = host.hot_swap_cycle()
            assert report.deactivated == (("unit-b", "1.0.0"),)
            assert report.activated == ()
            assert host.registry.active_version("unit-a") == "1.1.0"
            assert host.dispatch(EP, {"log": ""}) == {"log": "a"}
            assert "ERROR" not in stream.getvalue()
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

    def _tick_then(self, monkeypatch, host, change):
        """One tick that runs ``change`` right after its scan."""
        import scpa_host.host as host_mod

        real_scan = host_mod.scan

        def scan_then_change(*args, **kwargs):
            result = real_scan(*args, **kwargs)
            change()
            return result

        with monkeypatch.context() as m:
            m.setattr(host_mod, "scan", scan_then_change)
            return host.hot_swap_cycle()

    def test_payload_changed_after_scan_runs_the_scanned_bytes_until_the_next_scan(
        self, tmp_path, monkeypatch
    ):
        host = make_host(tmp_path).start()
        bundle = write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        try:
            report = self._tick_then(
                monkeypatch, host, lambda: (bundle / "payload.py").write_text(APPEND.format(stamp="evil"))
            )
            assert (report.activated, report.rejects) == ((("unit-a", "1.0.0"),), ())
            assert host.dispatch(EP, {})["log"] == "a"
            report = host.hot_swap_cycle()
            assert [(r.path, r.code) for r in report.rejects] == [(str(bundle), "checksum-mismatch")]
            assert report.deactivated == (("unit-a", "1.0.0"),)
        finally:
            host.stop()

    def test_payload_deleted_after_scan_activates_and_the_next_scan_deactivates(
        self, tmp_path, monkeypatch
    ):
        host = make_host(tmp_path).start()
        bundle = write_bundle(
            host.config.drop_dir, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")]
        )
        try:
            report = self._tick_then(monkeypatch, host, (bundle / "payload.py").unlink)
            assert (report.activated, report.rejects) == ((("unit-a", "1.0.0"),), ())
            assert host.registry.record_state("unit-a", "1.0.0") is UnitState.ACTIVE
            assert host.dispatch(EP, {})["log"] == "a"
            report = host.hot_swap_cycle()
            assert [(r.path, r.code) for r in report.rejects] == [(str(bundle), "missing-payload")]
            assert report.deactivated == (("unit-a", "1.0.0"),)
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

    def test_timed_out_call_keeps_its_version_draining_until_it_returns(self, tmp_path):
        host = make_host(tmp_path, error_policy=ErrorPolicy.FAIL_OPEN, unit_timeout_ms=50)
        logging = (
            "import time\n"
            "from pathlib import Path\n"
            "MARKS = None\n"
            "def mark(event):\n"
            "    with MARKS.open('a') as fh:\n"
            "        fh.write(f'{{event}} {version}\\n')\n"
            "def load(context):\n"
            "    global MARKS\n"
            "    MARKS = Path(context.data_dir) / 'marks.txt'\n"
            "def handle(payload, context):\n"
            "    mark('exec-start')\n"
            "    time.sleep(0.6)\n"
            "    mark('exec-end')\n"
            "    return dict(payload)\n"
            "def unload():\n"
            "    mark('unload')\n"
        )
        drop = host.config.drop_dir
        marks = drop / ".scpa" / "data" / "slow-unit" / "marks.txt"
        write_bundle(drop, "slow-unit", "1.0.0", logging.format(version="1.0.0"), [("business", EP, "handle")])
        host.start()
        try:
            host.dispatch(EP, {})  # gives up on the call after 50 ms; the handler runs on
            write_bundle(drop, "slow-unit", "1.0.1", logging.format(version="1.0.1"), [("business", EP, "handle")])
            assert host.hot_swap_cycle().activated == (("slow-unit", "1.0.1"),)
            states = {(row.name, row.version): row.state for row in host.status().units}
            assert states[("slow-unit", "1.0.0")] == "draining"
            assert marks.read_text().splitlines() == ["exec-start 1.0.0"]

            deadline = time.monotonic() + 5
            while host.registry.record_state("slow-unit", "1.0.0") is UnitState.DRAINING:
                assert time.monotonic() < deadline, "the abandoned call never let its version retire"
                time.sleep(0.02)
                host.hot_swap_cycle()
            assert marks.read_text().splitlines() == [
                "exec-start 1.0.0",
                "exec-end 1.0.0",
                "unload 1.0.0",
            ]
            assert host.registry.record_state("slow-unit", "1.0.0") is UnitState.RETIRED
        finally:
            host.stop()

    def test_a_dispatch_holds_each_routed_version_until_it_ends(self, tmp_path):
        host = make_host(tmp_path, unit_timeout_ms=10_000)
        drop = host.config.drop_dir
        entered, release = tmp_path / "entered", tmp_path / "release"
        waiting = (
            "import time\n"
            "from pathlib import Path\n"
            "def handle(payload, context):\n"
            f"    Path({str(entered)!r}).touch()\n"
            "    deadline = time.monotonic() + 10\n"
            f"    while not Path({str(release)!r}).exists() and time.monotonic() < deadline:\n"
            "        time.sleep(0.01)\n"
            "    return dict(payload)\n"
        )
        marking = (
            "from pathlib import Path\n"
            "MARKS = None\n"
            "def mark(event):\n"
            "    with MARKS.open('a') as fh:\n"
            "        fh.write(f'{{event}} {version}\\n')\n"
            "def load(context):\n"
            "    global MARKS\n"
            "    MARKS = Path(context.data_dir) / 'marks.txt'\n"
            "def handle(payload, context):\n"
            "    mark('execute')\n"
            "    return dict(payload, by={version!r})\n"
            "def unload():\n"
            "    mark('unload')\n"
        )
        bindings = [("business", EP, "handle")]
        write_bundle(drop, "unit-a", "1.0.0", waiting, bindings, priority=10)
        write_bundle(drop, "unit-b", "1.0.0", marking.format(version="1.0.0"), bindings, priority=20)
        host.start()
        results = []
        worker = threading.Thread(target=lambda: results.append(host.dispatch(EP, {})))
        try:
            worker.start()
            deadline = time.monotonic() + 5
            while not entered.exists():
                assert time.monotonic() < deadline, "the dispatch never reached unit-a"
                time.sleep(0.01)
            write_bundle(drop, "unit-b", "1.0.1", marking.format(version="1.0.1"), bindings, priority=20)
            assert host.hot_swap_cycle().activated == (("unit-b", "1.0.1"),)
            host.hot_swap_cycle()
            assert host.registry.record_state("unit-b", "1.0.0") is UnitState.DRAINING

            release.touch()
            worker.join(timeout=5)
            assert not worker.is_alive()
            assert results == [{"by": "1.0.0"}]
            marks = drop / ".scpa" / "data" / "unit-b" / "marks.txt"
            assert marks.read_text().splitlines() == ["execute 1.0.0", "unload 1.0.0"]
            # retired by the dispatch's own end, with no further tick
            assert host.registry.record_state("unit-b", "1.0.0") is UnitState.RETIRED
        finally:
            release.touch()
            worker.join(timeout=5)
            host.stop()

    def test_under_concurrent_dispatch_each_version_unloads_after_its_last_call(self, tmp_path):
        host = make_host(tmp_path, unit_timeout_ms=10_000)
        drop = host.config.drop_dir
        marking = (
            "from pathlib import Path\n"
            "MARKS = None\n"
            "def mark(event):\n"
            "    with MARKS.open('a') as fh:\n"
            "        fh.write(f'{{event}} {version}\\n')\n"
            "def load(context):\n"
            "    global MARKS\n"
            "    MARKS = Path(context.data_dir) / 'marks.txt'\n"
            "def handle(payload, context):\n"
            "    mark('start')\n"
            "    mark('end')\n"
            "    return dict(payload)\n"
            "def unload():\n"
            "    mark('unload')\n"
        )
        bindings = [("business", EP, "handle")]
        write_bundle(drop, "unit-a", "1.0.0", APPEND.format(stamp="a"), bindings, priority=10)
        versions = [f"1.0.{i}" for i in range(12)]
        write_bundle(drop, "unit-b", versions[0], marking.format(version=versions[0]), bindings, priority=20)
        host.start()
        stop = threading.Event()
        errors = []

        def client():
            while not stop.is_set():
                try:
                    host.dispatch(EP, {})
                except Exception as exc:  # reported below
                    errors.append(exc)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        clients = [threading.Thread(target=client) for _ in range(6)]
        try:
            for t in clients:
                t.start()
            for version in versions[1:]:
                time.sleep(0.02)
                write_bundle(drop, "unit-b", version, marking.format(version=version), bindings, priority=20)
                assert host.hot_swap_cycle().activated == (("unit-b", version),)
        finally:
            stop.set()
            for t in clients:
                t.join(timeout=10)
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in clients)
            assert errors == []
            host.hot_swap_cycle()
            assert [host.registry.record_state("unit-b", v) for v in versions] == [
                UnitState.RETIRED
            ] * 11 + [UnitState.ACTIVE]
            assert all(bound.running == set() for bound in host.registry.snapshot.bound.values())
            marks = [line.split() for line in (drop / ".scpa" / "data" / "unit-b" / "marks.txt").read_text().splitlines()]
            for version in versions[:-1]:
                events = [event for event, v in marks if v == version]
                assert events.count("unload") == 1
                assert events[-1] == "unload", f"{version} ran after its unload"
                assert events.count("start") == events.count("end")
        finally:
            host.stop()


class TestIncrementalPublish:
    def test_bound_units_follow_the_active_entries_and_untouched_ones_are_kept(self, tmp_path):
        rng = random.Random(11)
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        names = ["unit-a", "unit-b", "unit-c", "unit-d"]
        latest = {name: 0 for name in names}

        def deploy(name):
            latest[name] += 1
            write_bundle(
                drop, name, f"1.0.{latest[name]}", APPEND.format(stamp=name[-1]),
                [("business", EP, "handle"), ("ui", "ui.things.show", "handle")],
                priority=rng.choice([10, 20]), reentrant=rng.random() < 0.5,
            )

        for name in names:
            deploy(name)
        host.start()
        try:
            touched_total = 0
            for _ in range(40):
                before = dict(host.registry.snapshot.bound)
                name = rng.choice(names)
                versions = sorted(p.name for p in (drop / name).iterdir() if p.is_dir())
                op = rng.choice(["deploy", "remove", "disable", "enable", "pin", "unpin"])
                if op == "deploy" or not versions:
                    deploy(name)
                elif op == "remove":
                    shutil.rmtree(drop / name / rng.choice(versions))
                elif op == "disable":
                    (drop / name / "disabled").touch()
                elif op == "enable":
                    (drop / name / "disabled").unlink(missing_ok=True)
                elif op == "pin":
                    write_pin(drop / name, rng.choice(versions))
                else:
                    (drop / name / "pin").unlink(missing_ok=True)
                report = host.hot_swap_cycle()

                world = host.registry.snapshot
                entries = host.registry.active_entries()
                touched = {n for n, _ in report.activated + report.deactivated}
                touched_total += len(touched)
                assert world.epoch == report.end_epoch
                assert world.bound.keys() == entries.keys()
                for n, bound in world.bound.items():
                    assert bound.unit is entries[n].unit
                    assert bound.gate is entries[n].gate
                    if n not in touched:
                        assert bound is before[n]
            assert touched_total > 10
        finally:
            host.stop()

    def test_starting_over_n_bundles_builds_n_handler_refs_and_n_bound_units(
        self, tmp_path, monkeypatch
    ):
        import scpa_host.registry as registry_mod

        made = {"HandlerRef": 0, "BoundUnit": 0}

        class CountingRef(registry_mod.HandlerRef):
            def __init__(self, *args, **kwargs):
                made["HandlerRef"] += 1
                super().__init__(*args, **kwargs)

        class CountingBound(registry_mod.BoundUnit):
            def __init__(self, *args, **kwargs):
                made["BoundUnit"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(registry_mod, "HandlerRef", CountingRef)
        monkeypatch.setattr(registry_mod, "BoundUnit", CountingBound)
        host = make_host(tmp_path)
        for i in range(100):
            write_bundle(
                host.config.drop_dir, f"unit-{i:03d}", "1.0.0", APPEND.format(stamp=str(i)),
                [("business", f"business.unit{i}.run", "handle")],
            )
        host.start()
        try:
            assert len(host.registry.active_entries()) == 100
            # one epoch per activation, each costing only its own unit's work
            assert host.registry.snapshot.epoch == 100
            assert made == {"HandlerRef": 100, "BoundUnit": 100}
        finally:
            host.stop()



class TestIdleTick:
    """Ticks over a tree whose scan results are cached (racy window 0)."""

    @pytest.fixture(autouse=True)
    def no_racy_window(self, monkeypatch):
        import scpa_host.registry as registry_mod

        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)

    def test_idle_ticks_resolve_no_version(self, tmp_path, monkeypatch):
        import scpa_host.host as host_mod
        import scpa_host.registry as registry_mod

        host = make_host(tmp_path)
        drop = host.config.drop_dir
        for name, version in [("unit-a", "1.0.0"), ("unit-b", "1.0.0"), ("unit-b", "1.2.0"), ("unit-c", "2.0.0")]:
            write_bundle(drop, name, version, APPEND.format(stamp=name[-1]), [("business", EP, "handle")])
        (drop / "unit-c" / "disabled").touch()
        host.start()
        calls = {"resolve_active": 0, "parse_version": 0}
        for module, name in [(host_mod, "resolve_active"), (registry_mod, "parse_version")]:
            def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        try:
            for _ in range(20):
                assert not host.hot_swap_cycle().changed
            assert calls == {"resolve_active": 0, "parse_version": 0}
            assert host.dispatch(EP, {"log": ""}) == {"log": "ab"}
            # the memo follows the files: a new version is resolved and activated
            write_bundle(drop, "unit-a", "1.1.0", APPEND.format(stamp="A"), [("business", EP, "handle")])
            assert host.hot_swap_cycle().activated == (("unit-a", "1.1.0"),)
            assert calls["resolve_active"] == 1
        finally:
            host.stop()

    def test_only_a_tick_that_sees_the_disk_change_forgets(self, tmp_path, monkeypatch):
        seen = []
        real_forget = Registry.forget
        monkeypatch.setattr(Registry, "forget", lambda self, on_disk: seen.append(on_disk) or real_forget(self, on_disk))
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        for name in ("unit-a", "unit-b"):
            write_bundle(drop, name, "1.0.0", APPEND.format(stamp=name), [("business", EP, "handle")])
        host.start()
        try:
            assert seen == [{("unit-a", "1.0.0"), ("unit-b", "1.0.0")}]
            for _ in range(5):
                assert not host.hot_swap_cycle().changed
            assert len(seen) == 1
            time.sleep(0.05)  # let directory timestamps move on
            shutil.rmtree(drop / "unit-b")
            assert host.hot_swap_cycle().deactivated == (("unit-b", "1.0.0"),)
            assert seen[1:] == [{("unit-a", "1.0.0")}]
            # retired after its bundle left the disk: forgotten at the next change
            assert host.registry.record_state("unit-b", "1.0.0") is UnitState.RETIRED
            time.sleep(0.05)
            write_bundle(drop, "unit-a", "1.1.0", APPEND.format(stamp="A"), [("business", EP, "handle")])
            assert host.hot_swap_cycle().activated == (("unit-a", "1.1.0"),)
            assert host.registry.record_state("unit-b", "1.0.0") is None
        finally:
            host.stop()

    def test_missing_pin_is_reported_on_every_tick_and_the_active_version_runs_on(self, tmp_path):
        stream = io.StringIO()
        host = make_host(tmp_path, diagnostics=stream)
        drop = host.config.drop_dir
        write_bundle(drop, "unit-a", "1.0.0", APPEND.format(stamp="a"), [("business", EP, "handle")])
        host.start()
        try:
            write_pin(drop / "unit-a", "9.0.0")
            for tick in range(1, 4):
                report = host.hot_swap_cycle()
                assert (report.activated, report.deactivated) == ((), ())
                lines = [l for l in stream.getvalue().splitlines() if " pin-missing " in l]
                assert len(lines) == tick
                assert lines[-1].startswith(f"REJECT {drop / 'unit-a'} pin-missing ")
                assert host.registry.active_version("unit-a") == "1.0.0"
                assert host.dispatch(EP, {"log": ""}) == {"log": "a"}
        finally:
            host.stop()

    def test_flip_back_to_a_draining_version_activates_on_the_first_tick_after_it_retires(self, tmp_path):
        stream = io.StringIO()
        host = make_host(tmp_path, diagnostics=stream, error_policy=ErrorPolicy.FAIL_OPEN, unit_timeout_ms=10_000)
        drop = host.config.drop_dir
        entered, release = tmp_path / "entered", tmp_path / "release"
        held = (
            "import time\n"
            "from pathlib import Path\n"
            "def handle(payload, context):\n"
            f"    Path({str(entered)!r}).touch()\n"
            "    deadline = time.monotonic() + 10\n"
            f"    while not Path({str(release)!r}).exists() and time.monotonic() < deadline:\n"
            "        time.sleep(0.01)\n"
            "    return dict(payload, log='old')\n"
        )
        write_bundle(drop, "unit-a", "1.0.0", held, [("business", EP, "handle")])
        host.start()
        worker = threading.Thread(target=lambda: host.dispatch(EP, {}))
        try:
            worker.start()
            deadline = time.monotonic() + 5
            while not entered.exists():
                assert time.monotonic() < deadline, "the dispatch never reached the handler"
                time.sleep(0.01)
            write_bundle(drop, "unit-a", "1.1.0", APPEND.format(stamp="new"), [("business", EP, "handle")])
            assert host.hot_swap_cycle().activated == (("unit-a", "1.1.0"),)
            write_pin(drop / "unit-a", "1.0.0")
            for _ in range(2):
                assert host.hot_swap_cycle().activated == ()
                assert host.registry.record_state("unit-a", "1.0.0") is UnitState.DRAINING
            assert stream.getvalue().count(" still-draining ") == 2

            release.touch()
            worker.join(timeout=5)
            assert not worker.is_alive()
            assert host.registry.record_state("unit-a", "1.0.0") is UnitState.RETIRED
            report = host.hot_swap_cycle()
            assert report.activated == (("unit-a", "1.0.0"),)
            assert report.deactivated == (("unit-a", "1.1.0"),)
            assert host.dispatch(EP, {})["log"] == "old"
        finally:
            release.touch()
            worker.join(timeout=5)
            host.stop()

    def test_unchanged_failed_version_is_never_retried(self, tmp_path, monkeypatch):
        import scpa_host.host as host_mod

        loads = []
        real_factory = host_mod.payload_unit_factory

        def counting_factory(discovery, context):
            loads.append((discovery.name, discovery.version))
            return real_factory(discovery, context)

        monkeypatch.setattr(host_mod, "payload_unit_factory", counting_factory)
        stream = io.StringIO()
        host = make_host(tmp_path, diagnostics=stream)
        write_bundle(host.config.drop_dir, "unit-a", "1.0.0", "raise ImportError('no such thing')\n", [("business", EP, "handle")])
        host.start()
        try:
            for _ in range(10):
                assert not host.hot_swap_cycle().changed
            assert loads == [("unit-a", "1.0.0")]
            assert host.registry.record_state("unit-a", "1.0.0") is UnitState.FAILED
            assert stream.getvalue().count(" load-failed ") == 1
        finally:
            host.stop()


class TestRacyTick:
    def test_a_racy_unchanged_tree_keeps_its_memo_and_forgets_nothing(self, tmp_path, monkeypatch):
        import scpa_host.registry as registry_mod

        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 10**18)  # every file stays racy
        seen = []
        real_forget = Registry.forget
        monkeypatch.setattr(Registry, "forget", lambda self, on_disk: seen.append(on_disk) or real_forget(self, on_disk))
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        for name, version in [("unit-a", "1.0.0"), ("unit-a", "1.1.0"), ("unit-b", "1.0.0")]:
            write_bundle(drop, name, version, APPEND.format(stamp=name[-1]), [("business", EP, "handle")])
        host.start()
        try:
            memos = dict(host._resolved)
            seen.clear()
            for _ in range(3):
                assert not host.hot_swap_cycle().changed
                assert all(host._resolved[name] is memo for name, memo in memos.items())
            assert seen == []
            assert host.dispatch(EP, {"log": ""}) == {"log": "ab"}
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


STATEFUL = (
    "calls = []\n"
    "def load(context):\n"
    "    calls.append(1)\n"
    "    with open(context.data_dir / 'loads', 'a') as fh:\n"
    "        fh.write({stamp!r} + ' ')\n"
    "def handle(payload, context):\n"
    "    return dict(payload, stamp={stamp!r}, calls=len(calls))\n"
)


def stored(host: Host) -> int:
    """How many compiled payloads the host keeps, over every unit's memo."""
    return sum(len(memo.codes) for memo in host._resolved.values())


class TestCodeReuse:
    """A host runs the code it compiled earlier from the same verified bytes
    at the same path, in a fresh module, and compiles nothing else twice."""

    BINDING = [("business", EP, "handle")]

    @pytest.fixture
    def compiles(self, monkeypatch):
        import builtins

        import scpa_host.loading as loading_mod

        seen = []

        def counting_compile(source, filename, *args, **kwargs):
            path = Path(filename)
            seen.append((path.parent.parent.name, path.parent.name))
            return builtins.compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(loading_mod, "compile", counting_compile, raising=False)
        return seen

    def deploy(self, drop, version, stamp, name="unit-a"):
        write_bundle(drop, name, version, STATEFUL.format(stamp=stamp), self.BINDING)

    def loads(self, host, name="unit-a"):
        return (host.config.drop_dir / ".scpa" / "data" / name / "loads").read_text().split()

    def test_pin_back_compiles_nothing_and_starts_fresh(self, tmp_path, compiles):
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        self.deploy(drop, "1.0.0", "a1")
        host.start()
        try:
            self.deploy(drop, "1.1.0", "a2")
            assert host.hot_swap_cycle().activated == (("unit-a", "1.1.0"),)
            assert compiles == [("unit-a", "1.0.0"), ("unit-a", "1.1.0")]
            for version, stamp in (("1.0.0", "a1"), ("1.1.0", "a2"), ("1.0.0", "a1")):
                write_pin(drop / "unit-a", version)
                assert host.hot_swap_cycle().activated == (("unit-a", version),)
                # a new module: its list holds only this activation's load()
                assert host.dispatch(EP, {}) == {"stamp": stamp, "calls": 1}
            assert compiles == [("unit-a", "1.0.0"), ("unit-a", "1.1.0")]
            assert self.loads(host) == ["a1", "a2", "a1", "a2", "a1"]
        finally:
            host.stop()

    def test_reenable_compiles_nothing_and_starts_fresh(self, tmp_path, compiles):
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        self.deploy(drop, "1.0.0", "a1")
        host.start()
        try:
            for _ in range(3):
                (drop / "unit-a" / "disabled").touch()
                assert host.hot_swap_cycle().deactivated == (("unit-a", "1.0.0"),)
                (drop / "unit-a" / "disabled").unlink()
                assert host.hot_swap_cycle().activated == (("unit-a", "1.0.0"),)
                assert host.dispatch(EP, {}) == {"stamp": "a1", "calls": 1}
            assert compiles == [("unit-a", "1.0.0")]
            assert self.loads(host) == ["a1"] * 4
        finally:
            host.stop()

    def test_bytes_changed_after_scan_never_run_and_the_stored_code_does(
        self, tmp_path, compiles, monkeypatch
    ):
        import scpa_host.host as host_mod

        host = make_host(tmp_path)
        drop = host.config.drop_dir
        self.deploy(drop, "1.0.0", "a1")
        host.start()
        self.deploy(drop, "1.1.0", "a2")
        host.hot_swap_cycle()
        payload = drop / "unit-a" / "1.0.0" / "payload.py"
        marker = tmp_path / "forged-ran"
        real_scan = host_mod.scan

        def scan_then_tamper(*args, **kwargs):
            result = real_scan(*args, **kwargs)
            payload.write_text(f"open({str(marker)!r}, 'w').close()\n" + STATEFUL.format(stamp="f"))
            return result

        monkeypatch.setattr(host_mod, "scan", scan_then_tamper)
        try:
            write_pin(drop / "unit-a", "1.0.0")
            report = host.hot_swap_cycle()
            assert (report.activated, report.rejects) == ((("unit-a", "1.0.0"),), ())
            assert not marker.exists()
            assert self.loads(host) == ["a1", "a2", "a1"]  # the stored 1.0.0 code ran
            assert host.dispatch(EP, {})["stamp"] == "a1"
            assert compiles == [("unit-a", "1.0.0"), ("unit-a", "1.1.0")]
        finally:
            host.stop()

    def test_version_rewritten_in_place_compiles_its_new_bytes(self, tmp_path, compiles):
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        self.deploy(drop, "1.0.0", "a1")
        host.start()
        try:
            self.deploy(drop, "1.1.0", "a2")
            host.hot_swap_cycle()
            self.deploy(drop, "1.0.0", "b1")
            assert not host.hot_swap_cycle().changed
            assert stored(host) == 1  # the old 1.0.0 bytes are gone from disk
            write_pin(drop / "unit-a", "1.0.0")
            assert host.hot_swap_cycle().activated == (("unit-a", "1.0.0"),)
            assert host.dispatch(EP, {}) == {"stamp": "b1", "calls": 1}
            assert compiles == [("unit-a", "1.0.0"), ("unit-a", "1.1.0"), ("unit-a", "1.0.0")]
        finally:
            host.stop()

    def test_store_holds_only_versions_on_disk(self, tmp_path, compiles):
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        self.deploy(drop, "1.0.0", "v0")
        self.deploy(drop, "1.0.0", "b0", name="unit-b")
        host.start()
        try:
            for patch in range(1, 21):
                self.deploy(drop, f"1.0.{patch}", f"v{patch}")
                if patch >= 2:
                    shutil.rmtree(drop / "unit-a" / f"1.0.{patch - 2}")
                assert host.hot_swap_cycle().activated == (("unit-a", f"1.0.{patch}"),)
                assert len(host._resolved["unit-a"].codes) <= 2
            assert len(compiles) == 22
            shutil.rmtree(drop / "unit-a")
            assert host.hot_swap_cycle().deactivated == (("unit-a", "1.0.20"),)
            assert [n for n, memo in host._resolved.items() if memo.codes] == ["unit-b"]
        finally:
            host.stop()

    def test_idle_ticks_leave_the_store_unchanged(self, tmp_path, compiles):
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        for name in ("unit-a", "unit-b", "unit-c"):
            self.deploy(drop, "1.0.0", name, name=name)
        host.start()
        try:
            self.deploy(drop, "1.1.0", "a2")
            host.hot_swap_cycle()
            (drop / "unit-c" / "disabled").touch()
            host.hot_swap_cycle()

            def entries():
                return {(n, k): code for n, m in host._resolved.items() for k, code in m.codes.items()}

            before = entries()
            assert len(before) == 4
            for _ in range(20):
                assert not host.hot_swap_cycle().changed
            after = entries()
            assert after.keys() == before.keys()
            assert all(after[k] is before[k] for k in before)
            assert len(compiles) == 4
        finally:
            host.stop()

    def test_each_host_compiles_for_itself(self, tmp_path, compiles):
        drop = tmp_path / "drop"
        drop.mkdir()
        for name in ("unit-a", "unit-b", "unit-c"):
            self.deploy(drop, "1.0.0", name, name=name)
        for _ in range(2):
            host = make_host(tmp_path)
            host.start()
            assert stored(host) == 3
            host.stop()
        assert sorted(compiles) == sorted([(n, "1.0.0") for n in ("unit-a", "unit-b", "unit-c")] * 2)

    def test_failed_activation_stores_nothing(self, tmp_path, compiles):
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        write_bundle(drop, "unit-a", "1.0.0", "def load(context):\n    return False\n", self.BINDING)
        host.start()
        try:
            assert host.registry.record_state("unit-a", "1.0.0") is UnitState.FAILED
            assert stored(host) == 0
        finally:
            host.stop()


class TestSystemExitInPayload:
    """A payload that calls sys.exit() while it loads or unloads fails only
    itself: the watcher lives on and activates what is deployed next."""

    @staticmethod
    def wait_for(condition, what):
        deadline = time.monotonic() + 5
        while not condition():
            assert time.monotonic() < deadline, what
            time.sleep(0.02)

    def deploy_good_unit_and_wait(self, host):
        deploy_bundle(host.config.drop_dir, "good", "1.0.0", APPEND.format(stamp="g"), [("business", EP, "handle")])
        self.wait_for(lambda: host.registry.active_version("good") == "1.0.0", "the watcher stopped activating")
        assert host._watcher.is_alive()

    @pytest.mark.parametrize(
        "source",
        [
            "import sys\nsys.exit(2)\n",
            "import sys\ndef load(context):\n    sys.exit(2)\ndef handle(payload, context):\n    return payload\n",
        ],
        ids=["module-body", "load"],
    )
    def test_sys_exit_while_loading_fails_the_version(self, tmp_path, source):
        stream = io.StringIO()
        host = make_host(tmp_path, scan_interval_ms=20, diagnostics=stream).start()
        try:
            # renamed into place whole: the 20-ms watcher must not list a bundle
            # without its manifest, which would add a missing-manifest reject
            deploy_bundle(host.config.drop_dir, "quitter", "1.0.0", source, [("business", EP, "handle")])
            self.wait_for(
                lambda: host.registry.record_state("quitter", "1.0.0") is UnitState.FAILED,
                "the version never became Failed",
            )
            self.deploy_good_unit_and_wait(host)
        finally:
            host.stop()
        rejects = [line for line in stream.getvalue().splitlines() if line.startswith("REJECT ")]
        assert [line.split(" ", 2)[2] for line in rejects] == ["load-failed SystemExit: 2"]

    def test_sys_exit_in_unload_is_reported(self, tmp_path):
        stream = io.StringIO()
        host = make_host(tmp_path, scan_interval_ms=20, diagnostics=stream)
        quitting = "import sys\ndef handle(payload, context):\n    return payload\ndef unload():\n    sys.exit(3)\n"
        write_bundle(host.config.drop_dir, "quitter", "1.0.0", quitting, [("business", EP, "handle")])
        host.start()
        try:
            write_bundle(
                host.config.drop_dir, "quitter", "1.0.1", APPEND.format(stamp="q"), [("business", EP, "handle")]
            )
            self.wait_for(
                lambda: host.registry.record_state("quitter", "1.0.0") is UnitState.RETIRED,
                "the replaced version never retired",
            )
            self.deploy_good_unit_and_wait(host)
        finally:
            host.stop()
        assert "ERROR unload quitter@1.0.0 failed: SystemExit: 3" in stream.getvalue().splitlines()


class _Discard(io.StringIO):
    """A diagnostics stream that keeps nothing, so memory use shows the host."""

    def write(self, text):
        return len(text)


class TestForgetting:
    """The registry keeps facts only for versions on disk, Active or Draining."""

    BINDING = [("business", EP, "handle")]

    def test_a_failed_version_redeployed_after_leaving_the_disk_loads_again(self, tmp_path):
        needs_data = (
            "from pathlib import Path\n"
            "def load(context):\n"
            "    if not (Path(context.data_dir) / 'ready').exists():\n"
            "        raise RuntimeError('data file missing')\n"
            "def handle(payload, context):\n"
            "    return dict(payload, ready=True)\n"
        )
        host = make_host(tmp_path)
        drop = host.config.drop_dir
        write_bundle(drop, "unit-a", "1.0.0", needs_data, self.BINDING)
        host.start()
        try:
            assert host.registry.record_state("unit-a", "1.0.0") is UnitState.FAILED
            assert host.dispatch(EP, {}) == {}
            (drop / ".scpa" / "data" / "unit-a" / "ready").touch()
            assert not host.hot_swap_cycle().changed  # the same bytes on disk: never retried
            shutil.rmtree(drop / "unit-a")
            assert not host.hot_swap_cycle().changed
            assert host.registry.record_state("unit-a", "1.0.0") is None
            assert host.status().units == ()
            write_bundle(drop, "unit-a", "1.0.0", needs_data, self.BINDING)
            assert host.hot_swap_cycle().activated == (("unit-a", "1.0.0"),)
            assert host.dispatch(EP, {}) == {"ready": True}
        finally:
            host.stop()

    def test_a_thousand_deploy_and_delete_cycles_keep_the_state_flat(self, tmp_path):
        def retained() -> int:
            # CPython's table of interned strings, which keeps every file name
            # it compiles, grows by doubling: one block of up to 1 MB, allocated
            # wherever a string is interned.  That is the interpreter's memory.
            gc.collect()
            return sum(t.size for t in tracemalloc.take_snapshot().traces if t.size < 64 * 1024)

        host = make_host(tmp_path, diagnostics=_Discard())
        drop = host.config.drop_dir
        write_bundle(drop, "unit-a", "1.0.0", APPEND.format(stamp="0"), self.BINDING)
        host.start()
        tracemalloc.start()
        try:
            for i in range(1, 1001):
                write_bundle(drop, "unit-a", f"1.0.{i}", APPEND.format(stamp=str(i)), self.BINDING)
                shutil.rmtree(drop / "unit-a" / f"1.0.{i - 1}")
                assert host.hot_swap_cycle().activated == (("unit-a", f"1.0.{i}"),)
                assert host.dispatch(EP, {"log": ""}) == {"log": str(i)}
                states = {r.version: r.state for r in host.status().units}
                assert states == {f"1.0.{i - 1}": "retired", f"1.0.{i}": "active"}
                assert len(host.registry._versions) == 2
                assert list(host._resolved) == ["unit-a"]
                assert len(host._scan_cache) <= 3  # drop dir, unit dir, one settled version
                if i == 100:
                    at_100 = retained()
            growth = retained() - at_100
        finally:
            tracemalloc.stop()
            host.stop()
        assert growth < 512 * 1024, f"{growth} bytes more after cycle 1000 than after cycle 100"
