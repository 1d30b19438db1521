"""Dynamic payload modules: isolation, load hooks, handler dispatch."""

import importlib.util
import marshal
import sys
from pathlib import Path

import pytest

from scpa_host.contract import (
    CONTINUE,
    Divert,
    HostContext,
    Stop,
    UnitExecutionError,
    make_envelope,
)
from scpa_host.loading import PayloadError, load_payload_module, payload_unit_factory
from scpa_host.registry import Discovery, Registry, scan

from _util import write_bundle

EP = "business.things.do"
CTX = HostContext(host_version="0.1.0", unit_name="unit-a")


def make_unit(tmp_path, source, name="unit-a", version="1.0.0", bindings=None):
    write_bundle(tmp_path, name, version, source, bindings or [("business", EP, "handle")])
    discovery = scan(tmp_path).discoveries
    picked = next(d for d in discovery if d.name == name and d.version == version)
    return payload_unit_factory(picked, CTX)


class TestPayloadUnit:
    def test_execute_and_default_continue(self, tmp_path):
        unit = make_unit(
            tmp_path,
            "def handle(payload, context):\n"
            "    out = dict(payload)\n"
            "    out['seen'] = True\n"
            "    return out\n",
        )
        assert unit.load(CTX).ok
        out = unit.execute(make_envelope(EP, {"seen": False}))
        assert out.payload["seen"] is True
        assert unit.next(out) == CONTINUE

    def test_next_hook_strings(self, tmp_path):
        unit = make_unit(
            tmp_path,
            "def handle(payload, context):\n"
            "    return dict(payload)\n"
            "def handle_next(payload, context):\n"
            "    return 'stop' if payload.get('halt') else 'divert:unit-b'\n",
        )
        env = make_envelope(EP, {"halt": True})
        assert isinstance(unit.next(env), Stop)
        env2 = make_envelope(EP, {"halt": False})
        assert unit.next(env2) == Divert("unit-b")

    def test_missing_handler_is_unit_error(self, tmp_path):
        unit = make_unit(tmp_path, "x = 1\n")
        with pytest.raises(UnitExecutionError, match="does not define handler"):
            unit.execute(make_envelope(EP, {}))

    def test_handler_returning_non_mapping_is_unit_error(self, tmp_path):
        unit = make_unit(tmp_path, "def handle(payload, context):\n    return 42\n")
        with pytest.raises(UnitExecutionError, match="expected a payload mapping"):
            unit.execute(make_envelope(EP, {}))

    def test_unbound_extension_point_is_unit_error(self, tmp_path):
        unit = make_unit(tmp_path, "def handle(payload, context):\n    return dict(payload)\n")
        with pytest.raises(UnitExecutionError, match="not bound"):
            unit.execute(make_envelope("ui.other.place", {}))

    def test_load_hook_runs_once_with_context(self, tmp_path):
        unit = make_unit(
            tmp_path,
            "CALLS = []\n"
            "def load(context):\n"
            "    CALLS.append(context.unit_name)\n"
            "def handle(payload, context):\n"
            "    return dict(payload, calls=list(CALLS))\n",
        )
        report = unit.load(CTX)
        assert report.ok
        out = unit.execute(make_envelope(EP, {}))
        assert out.payload["calls"] == ["unit-a"]

    def test_load_hook_false_fails_activation(self, tmp_path):
        write_bundle(
            tmp_path,
            "unit-a",
            "1.0.0",
            "def load(context):\n    return False\ndef handle(payload, context):\n    return dict(payload)\n",
            [("business", EP, "handle")],
        )
        discovery = scan(tmp_path).discoveries[0]
        registry = Registry(payload_unit_factory)
        from scpa_host.registry import LoadFailed, UnitState

        with pytest.raises(LoadFailed):
            registry.activate(discovery)
        assert registry.record_state("unit-a", "1.0.0") is UnitState.FAILED

    def test_payload_syntax_error_fails_activation(self, tmp_path):
        write_bundle(tmp_path, "unit-a", "1.0.0", "def broken(:\n", [("business", EP, "handle")])
        discovery = scan(tmp_path).discoveries[0]
        registry = Registry(payload_unit_factory)
        from scpa_host.registry import LoadFailed

        with pytest.raises(LoadFailed):
            registry.activate(discovery)


class TestIsolation:
    def test_same_symbols_do_not_collide(self, tmp_path):
        unit_a = make_unit(
            tmp_path,
            "VALUE = 'from-a'\ndef handle(payload, context):\n    return dict(payload, v=VALUE)\n",
            name="unit-a",
        )
        unit_b = make_unit(
            tmp_path,
            "VALUE = 'from-b'\ndef handle(payload, context):\n    return dict(payload, v=VALUE)\n",
            name="unit-b",
        )
        out_a = unit_a.execute(make_envelope(EP, {}))
        out_b = unit_b.execute(make_envelope(EP, {}))
        assert out_a.payload["v"] == "from-a"
        assert out_b.payload["v"] == "from-b"

    def test_modules_not_registered_in_sys_modules(self, tmp_path):
        before = set(sys.modules)
        (tmp_path / "payload.py").write_text("x = 1\n")
        module = load_payload_module(tmp_path / "payload.py", "unit-a", "1.0.0")
        assert module.x == 1
        assert set(sys.modules) == before

    def test_fresh_module_per_activation(self, tmp_path):
        (tmp_path / "payload.py").write_text("counter = []\n")
        m1 = load_payload_module(tmp_path / "payload.py", "unit-a", "1.0.0")
        m2 = load_payload_module(tmp_path / "payload.py", "unit-a", "1.0.0")
        m1.counter.append(1)
        assert m2.counter == []

    def test_missing_bundle_path(self):
        from _util import reference_manifest

        discovery = Discovery("unit-a", "1.0.0", reference_manifest("unit-a", "1.0.0", 10, [EP]))
        with pytest.raises(PayloadError):
            payload_unit_factory(discovery, CTX)


class TestVerifiedBytes:
    SOURCE = "def handle(payload, context):\n    return dict(payload, by='source')\n"

    def test_no_pycache_written_and_forged_pyc_never_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", False)
        write_bundle(tmp_path, "unit-a", "1.0.0", self.SOURCE, [("business", EP, "handle")])
        discovery = scan(tmp_path).discoveries[0]
        unit = payload_unit_factory(discovery, CTX)
        assert unit.execute(make_envelope(EP, {})).payload["by"] == "source"
        assert not list(tmp_path.rglob("__pycache__"))

        # a .pyc whose header claims the source's mtime and size
        payload = discovery.path / "payload.py"
        st = payload.stat()
        forged = compile(self.SOURCE.replace("source", "forged"), str(payload), "exec")
        pyc = Path(importlib.util.cache_from_source(str(payload)))
        pyc.parent.mkdir()
        pyc.write_bytes(
            importlib.util.MAGIC_NUMBER
            + (0).to_bytes(4, "little")
            + (int(st.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
            + (st.st_size & 0xFFFFFFFF).to_bytes(4, "little")
            + marshal.dumps(forged)
        )
        unit = payload_unit_factory(discovery, CTX)
        assert unit.execute(make_envelope(EP, {})).payload["by"] == "source"

    def test_payload_altered_after_scan_never_runs(self, tmp_path):
        from scpa_host.registry import PayloadChanged, UnitState

        write_bundle(tmp_path, "unit-a", "1.0.0", self.SOURCE, [("business", EP, "handle")])
        discovery = scan(tmp_path).discoveries[0]
        payload = discovery.path / "payload.py"
        marker = tmp_path / "ran"
        payload.write_text(f"open({str(marker)!r}, 'w').close()\n" + self.SOURCE)
        registry = Registry(payload_unit_factory)
        with pytest.raises(PayloadChanged, match="checksum"):
            registry.activate(discovery)
        assert not marker.exists()
        assert registry.record_state("unit-a", "1.0.0") is UnitState.VALIDATED

        payload.write_text(self.SOURCE)
        registry.activate(scan(tmp_path).discoveries[0])
        assert registry.record_state("unit-a", "1.0.0") is UnitState.ACTIVE
