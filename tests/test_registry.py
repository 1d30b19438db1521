"""Registry: scan, lifecycle state machine, snapshots, pins, rollback."""

import itertools
import os
import random
import shutil
import time

import pytest

import scpa_host.registry as registry_mod
from scpa_host.contract import Behavior, LoadReport, payload_checksum, reference_unit
from scpa_host.registry import (
    Discovery,
    DropDirUnreadable,
    LoadFailed,
    MemoryPinStore,
    NoPriorVersion,
    NotActive,
    PinMissing,
    Registry,
    UnitState,
    LEGAL_TRANSITIONS,
    VersionPin,
    read_pin,
    resolve_active,
    scan,
    write_pin,
)

from _util import MemoryRegistry, reference_manifest, write_bundle

EP = "business.things.do"

OK_PAYLOAD = "def handle(payload, context):\n    return dict(payload)\n"
BINDINGS = [("business", EP, "handle")]


class TestScan:
    def test_empty_directory(self, tmp_path):
        result = scan(tmp_path)
        assert result.discoveries == []
        assert result.rejects == []

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DropDirUnreadable):
            scan(tmp_path / "nope")

    def test_valid_bundle_discovered(self, tmp_path):
        write_bundle(tmp_path, "sales-by-product", "1.0.0", OK_PAYLOAD, BINDINGS)
        result = scan(tmp_path)
        assert len(result.discoveries) == 1
        d = result.discoveries[0]
        assert (d.name, d.version) == ("sales-by-product", "1.0.0")
        assert d.path == tmp_path / "sales-by-product" / "1.0.0"
        assert result.rejects == []

    def test_name_version_mismatch_rejected(self, tmp_path):
        bundle = write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        moved = tmp_path / "unit-a" / "1.0.1"
        bundle.rename(moved)
        result = scan(tmp_path)
        assert result.discoveries == []
        assert [r.code for r in result.rejects] == ["name-version-mismatch"]

    def test_checksum_mismatch_rejected(self, tmp_path):
        bundle = write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        (bundle / "payload.py").write_text(OK_PAYLOAD + "# tampered\n")
        result = scan(tmp_path)
        assert [r.code for r in result.rejects] == ["checksum-mismatch"]

    def test_missing_manifest_and_payload_rejected(self, tmp_path):
        (tmp_path / "unit-a" / "1.0.0").mkdir(parents=True)
        bundle = write_bundle(tmp_path, "unit-b", "1.0.0", OK_PAYLOAD, BINDINGS)
        (bundle / "payload.py").unlink()
        result = scan(tmp_path)
        assert sorted(r.code for r in result.rejects) == ["missing-manifest", "missing-payload"]

    def test_bad_manifest_rejected_and_diag_emitted(self, tmp_path):
        bundle = write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        (bundle / "manifest.scpa").write_text("name: unit-a\n")
        lines = []
        result = scan(tmp_path, diag=lines.append)
        assert [r.code for r in result.rejects] == ["bad-manifest"]
        assert len(lines) == 1 and lines[0].startswith("REJECT ")
        assert "bad-manifest" in lines[0]

    def test_scan_never_throws_on_malformed_bundles(self, tmp_path):
        (tmp_path / "stray-file").write_text("junk")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / "unit-a").mkdir()
        (tmp_path / "unit-a" / "not-a-version").mkdir()
        (tmp_path / "unit-a" / "not-a-version" / "manifest.scpa").write_text("x")
        write_bundle(tmp_path, "unit-b", "2.3.4", OK_PAYLOAD, BINDINGS)
        result = scan(tmp_path)
        assert [d.name for d in result.discoveries] == ["unit-b"]

    def test_disabled_marker_and_pin_seen(self, tmp_path):
        write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        write_bundle(tmp_path, "unit-a", "1.1.0", OK_PAYLOAD, BINDINGS)
        (tmp_path / "unit-a" / "disabled").touch()
        write_pin(tmp_path / "unit-a", "1.0.0")
        result = scan(tmp_path)
        assert result.disabled == {"unit-a"}
        assert result.pins == {"unit-a": "1.0.0"}
        assert len(result.discoveries) == 2

    def test_malformed_pin_ignored(self, tmp_path):
        unit_dir = tmp_path / "unit-a"
        write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        (unit_dir / "pin").write_text("pinned to the wall\n")
        assert read_pin(unit_dir) is None
        assert scan(tmp_path).pins == {}


    def test_non_utf8_manifest_is_a_reject(self, tmp_path):
        bundle = write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        (bundle / "manifest.scpa").write_bytes(b"name: unit-\xff\n")
        write_bundle(tmp_path, "unit-b", "1.0.0", OK_PAYLOAD, BINDINGS)
        result = scan(tmp_path)
        assert [d.name for d in result.discoveries] == ["unit-b"]
        assert [(r.code, r.detail) for r in result.rejects] == [("bad-manifest", "not UTF-8 text at byte 11")]

    def test_unreadable_manifest_is_a_reject(self, tmp_path, monkeypatch):
        bundle = write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        real_read = registry_mod._read

        def read(path):
            if path == str(bundle / "manifest.scpa"):
                raise PermissionError(13, "Permission denied")
            return real_read(path)

        monkeypatch.setattr(registry_mod, "_read", read)
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)
        cache = {}
        result = scan(tmp_path, cache=cache)
        assert [(r.code, r.detail) for r in result.rejects] == [
            ("unreadable", "cannot read manifest.scpa: Permission denied")
        ]
        assert cache == {}  # a read error may be transient: the next scan retries

    def test_unit_directory_removed_after_listing_is_a_reject(self, tmp_path, monkeypatch):
        write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        write_bundle(tmp_path, "unit-b", "1.0.0", OK_PAYLOAD, BINDINGS)
        real_scandir = os.scandir

        class Listing(list):
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def scandir(path):
            with real_scandir(path) as entries:
                listing = Listing(entries)
            if path == str(tmp_path):
                shutil.rmtree(tmp_path / "unit-a")
            return listing

        monkeypatch.setattr(os, "scandir", scandir)
        result = scan(tmp_path)
        assert [d.name for d in result.discoveries] == ["unit-b"]
        assert [(r.path, r.code) for r in result.rejects] == [(str(tmp_path / "unit-a"), "unreadable")]


def _wait_for_next_timestamp_tick():
    """Let file timestamps move on, so the next write changes a fingerprint."""
    time.sleep(0.05)


class TestScanCache:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts reads, manifest parses and payload hashes inside scan."""
        counts = {}
        for name in ("_read", "parse_manifest", "verify_payload"):
            real = getattr(registry_mod, name)

            def counting(*args, _real=real, _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args)

            monkeypatch.setattr(registry_mod, name, counting)
        return counts

    def test_unchanged_tree_costs_one_listing_per_unit_and_two_stats_per_version(
        self, tmp_path, monkeypatch, calls
    ):
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)
        for name in ("unit-a", "unit-b", "unit-c"):
            write_bundle(tmp_path, name, "1.0.0", OK_PAYLOAD, BINDINGS)
        write_bundle(tmp_path, "unit-c", "1.1.0", OK_PAYLOAD, BINDINGS)
        (tmp_path / "unit-a" / "1.0.0" / "payload.py").write_text(OK_PAYLOAD + "# tampered\n")
        (tmp_path / "unit-b" / "disabled").touch()
        cache = {}
        first = scan(tmp_path, cache=cache)
        assert calls == {"_read": 8, "parse_manifest": 4, "verify_payload": 4}

        calls.clear()
        stats, listings = [], []
        real_stat, real_scandir = os.stat, os.scandir
        with monkeypatch.context() as m:
            m.setattr(os, "stat", lambda path, *a, **k: stats.append(path) or real_stat(path, *a, **k))
            m.setattr(os, "scandir", lambda path: listings.append(path) or real_scandir(path))
            second = scan(tmp_path, cache=cache)
        assert calls == {}
        assert len(listings) == 1 + 3
        assert len(stats) == 2 * 4
        assert second == first

    def test_same_size_rewrite_right_after_a_scan_is_caught(self, tmp_path, monkeypatch):
        bundle = write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        payload = bundle / "payload.py"
        real_stat = os.stat

        def scan_rewrite_scan(cache):
            assert len(scan(tmp_path, cache=cache).discoveries) == 1
            before = real_stat(payload)
            with open(payload, "r+b") as fh:
                fh.write(b"#")
            # a rewrite within one timestamp tick leaves the fingerprint as it was
            with monkeypatch.context() as m:
                m.setattr(
                    os, "stat",
                    lambda path, *a, **k: before if path == str(payload) else real_stat(path, *a, **k),
                )
                return scan(tmp_path, cache=cache)

        assert [r.code for r in scan_rewrite_scan({}).rejects] == ["checksum-mismatch"]

        # what the racy window guards against: with none, the stale result is served
        payload.write_text(OK_PAYLOAD)
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)
        assert scan_rewrite_scan({}).rejects == []

    def test_replaced_manifest_is_caught(self, tmp_path, monkeypatch):
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)
        write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS, priority=100)
        elsewhere = write_bundle(tmp_path / ".staging", "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS, priority=7)
        cache = {}
        assert scan(tmp_path, cache=cache).discoveries[0].manifest.priority == 100
        os.replace(elsewhere / "manifest.scpa", tmp_path / "unit-a" / "1.0.0" / "manifest.scpa")
        assert scan(tmp_path, cache=cache).discoveries[0].manifest.priority == 7

    def test_deleted_version_directory_is_pruned(self, tmp_path, monkeypatch):
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)
        write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        newer = write_bundle(tmp_path, "unit-a", "1.1.0", OK_PAYLOAD, BINDINGS)
        cache = {}
        scan(tmp_path, cache=cache)
        assert sorted(cache) == [str(tmp_path / "unit-a" / v) for v in ("1.0.0", "1.1.0")]
        shutil.rmtree(newer)
        assert [d.version for d in scan(tmp_path, cache=cache).discoveries] == ["1.0.0"]
        assert sorted(cache) == [str(tmp_path / "unit-a" / "1.0.0")]

    def test_cached_reject_is_reported_on_every_scan(self, tmp_path, monkeypatch, calls):
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)
        bundle = write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        (bundle / "manifest.scpa").write_text("name: unit-a\n")
        cache, lines = {}, []
        for _ in range(3):
            assert [r.code for r in scan(tmp_path, diag=lines.append, cache=cache).rejects] == ["bad-manifest"]
        assert calls["parse_manifest"] == 1
        assert len(lines) == 3 and len(set(lines)) == 1 and lines[0].startswith("REJECT ")

    def test_cached_scan_equals_uncached_scan_after_each_edit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)
        unit_dir = tmp_path / "unit-a"
        bundle = unit_dir / "1.0.0"
        other = "def handle(payload, context):\n    return dict(payload, x=1)\n"

        def rewrite_in_place(text):
            with open(bundle / "payload.py", "r+b") as fh:
                fh.write(text.encode())
                fh.truncate()

        edits = [
            lambda: write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS),
            lambda: write_bundle(tmp_path, "unit-b", "2.0.0", other, BINDINGS),
            lambda: rewrite_in_place("#" + OK_PAYLOAD[1:]),
            lambda: rewrite_in_place(OK_PAYLOAD),
            lambda: write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS, priority=5),
            lambda: (bundle / "payload.py").unlink(),
            lambda: (bundle / "payload.py").write_text(OK_PAYLOAD),
            lambda: (unit_dir / "disabled").touch(),
            lambda: write_pin(unit_dir, "1.0.0"),
            lambda: (bundle / "manifest.scpa").write_bytes(b"\xff"),
            lambda: shutil.rmtree(tmp_path / "unit-b"),
            lambda: shutil.rmtree(bundle),
        ]
        cache = {}
        for edit in edits:
            _wait_for_next_timestamp_tick()
            edit()
            assert scan(tmp_path, cache=cache) == scan(tmp_path)


class TestResolveActive:
    def test_singleton(self):
        assert resolve_active("u", ["1.0.0"]) == "1.0.0"

    def test_numeric_not_lexicographic(self):
        assert resolve_active("u", ["1.0.0", "1.1.0", "1.10.0"]) == "1.10.0"

    def test_pin_wins(self):
        assert resolve_active("u", ["1.0.0", "1.1.0"], VersionPin("u", "1.0.0")) == "1.0.0"

    def test_pin_missing(self):
        with pytest.raises(PinMissing):
            resolve_active("u", ["1.0.0"], VersionPin("u", "2.0.0"))

    def test_pairwise_comparator_oracle(self):
        def oracle_less(a, b):
            return tuple(int(x) for x in a.split(".")) < tuple(int(x) for x in b.split("."))

        versions = ["0.0.1", "0.9.9", "1.0.0", "1.0.10", "1.0.2", "1.2.0", "2.0.0", "10.0.0"]
        for a, b in itertools.permutations(versions, 2):
            picked = resolve_active("u", [a, b])
            expected = b if oracle_less(a, b) else a
            assert picked == expected, (a, b)


class TestActivateDeactivate:
    def test_activate_into_empty_registry(self):
        reg = MemoryRegistry()
        snap = reg.add(reference_unit("u1", "1.0.0", {EP: Behavior(("set", "k", 1))}))
        assert snap.epoch == 1
        assert [h.unit for h in snap.handlers_for(EP)] == ["u1"]

    def test_priority_insertion_order(self):
        reg = MemoryRegistry()
        reg.add(reference_unit("u1", "1.0.0", {EP: Behavior(("set", "k", 1))}), priority=100)
        snap = reg.add(reference_unit("u2", "1.0.0", {EP: Behavior(("set", "k", 2))}), priority=50)
        assert [h.unit for h in snap.handlers_for(EP)] == ["u2", "u1"]

    def test_version_upgrade_swaps_in_one_epoch(self):
        reg = MemoryRegistry()
        listener_states = {}
        s1 = reg.add(reference_unit("u1", "1.0.0", {EP: Behavior(("set", "k", 1))}))
        s2 = reg.add(reference_unit("u1", "1.1.0", {EP: Behavior(("set", "k", 2))}))
        assert s2.epoch == s1.epoch + 1
        assert {(h.unit, h.version) for h in s2.handlers_for(EP)} == {("u1", "1.1.0")}
        assert reg.registry.record_state("u1", "1.0.0") is UnitState.DRAINING
        assert reg.registry.record_state("u1", "1.1.0") is UnitState.ACTIVE

    def test_load_failure_marks_failed_and_keeps_snapshot(self):
        calls = []

        def factory(discovery, context):
            calls.append(discovery.name)
            raise RuntimeError("import exploded")

        registry = Registry(factory)
        before = registry.snapshot
        discovery = Discovery("bad", "1.0.0", reference_manifest("bad", "1.0.0", 10, [EP]))
        with pytest.raises(LoadFailed):
            registry.activate(discovery)
        assert registry.snapshot is before
        assert registry.record_state("bad", "1.0.0") is UnitState.FAILED

    def test_load_report_not_ok_fails(self):
        class RefusesToLoad:
            def load(self, context):
                return LoadReport(ok=False, message="missing dependency")

            def execute(self, envelope):
                return envelope

            def next(self, envelope):
                from scpa_host.contract import CONTINUE

                return CONTINUE

        registry = Registry(lambda d, c: RefusesToLoad())
        with pytest.raises(LoadFailed, match="missing dependency"):
            registry.activate(Discovery("bad", "1.0.0", reference_manifest("bad", "1.0.0", 10, [EP])))
        assert registry.record_state("bad", "1.0.0") is UnitState.FAILED

    def test_failed_version_never_auto_retries(self):
        attempts = []

        def factory(discovery, context):
            attempts.append(discovery.version)
            raise RuntimeError("boom")

        registry = Registry(factory)
        discovery = Discovery("bad", "1.0.0", reference_manifest("bad", "1.0.0", 10, [EP]))
        with pytest.raises(LoadFailed):
            registry.activate(discovery)
        with pytest.raises(LoadFailed):
            registry.activate(discovery)
        assert attempts == ["1.0.0"]

    def test_failed_version_retries_with_new_checksum(self):
        outcomes = iter([RuntimeError("boom"), None])

        def factory(discovery, context):
            outcome = next(outcomes)
            if outcome is not None:
                raise outcome
            return reference_unit("bad", "1.0.0", {EP: Behavior(("set", "k", 1))})

        registry = Registry(factory)
        m1 = reference_manifest("bad", "1.0.0", 10, [EP])
        with pytest.raises(LoadFailed):
            registry.activate(Discovery("bad", "1.0.0", m1))
        from dataclasses import replace

        m2 = replace(m1, checksum=payload_checksum(b"new bytes"))
        snap = registry.activate(Discovery("bad", "1.0.0", m2))
        assert {(h.unit, h.version) for h in snap.handlers_for(EP)} == {("bad", "1.0.0")}

    def test_deactivate_sole_unit(self):
        reg = MemoryRegistry()
        reg.add(reference_unit("u1", "1.0.0", {EP: Behavior(("set", "k", 1))}))
        snap = reg.registry.deactivate("u1")
        assert snap.handlers_for(EP) == ()

    def test_deactivate_one_of_two(self):
        reg = MemoryRegistry()
        reg.add(reference_unit("u1", "1.0.0", {EP: Behavior(("set", "k", 1))}), priority=100)
        reg.add(reference_unit("u2", "1.0.0", {EP: Behavior(("set", "k", 2))}), priority=50)
        snap = reg.registry.deactivate("u2")
        assert [h.unit for h in snap.handlers_for(EP)] == ["u1"]

    def test_deactivate_unknown(self):
        reg = MemoryRegistry()
        with pytest.raises(NotActive):
            reg.registry.deactivate("ghost")

    def test_retire_calls_unload_once(self):
        unit = reference_unit("u1", "1.0.0", {EP: Behavior(("set", "k", 1))})
        reg = MemoryRegistry()
        reg.add(unit)
        reg.registry.deactivate("u1")
        assert reg.registry.retire_if_drained("u1", "1.0.0") is True
        assert reg.registry.retire_if_drained("u1", "1.0.0") is False
        assert unit.method_sequence().count("unload") == 1
        assert reg.registry.record_state("u1", "1.0.0") is UnitState.RETIRED


class TestRollback:
    def _registry_with_versions(self, versions):
        units = {
            v: reference_unit("u1", v, {EP: Behavior(("set", "k", v))}) for v in versions
        }
        registry = Registry(
            lambda d, c: units[d.version], pin_store=MemoryPinStore()
        )
        discoveries = [
            Discovery("u1", v, reference_manifest("u1", v, 100, [EP])) for v in versions
        ]
        registry.activate(discoveries[-1])
        return registry, discoveries

    def test_rollback_activates_prior_and_pins(self):
        registry, discoveries = self._registry_with_versions(["1.0.0", "1.1.0"])
        before = registry.snapshot.epoch
        snap = registry.rollback("u1", discoveries)
        assert snap.epoch == before + 1  # single epoch covers the swap
        assert {(h.unit, h.version) for h in snap.handlers_for(EP)} == {("u1", "1.0.0")}
        assert registry.pin_store.get("u1") == "1.0.0"
        assert registry.record_state("u1", "1.1.0") is UnitState.DRAINING

    def test_rollback_picks_next_highest_below(self):
        registry, discoveries = self._registry_with_versions(["1.0.0", "1.5.0", "2.0.0"])
        registry.rollback("u1", discoveries)
        assert registry.active_version("u1") == "1.5.0"

    def test_rollback_without_prior_version(self):
        registry, discoveries = self._registry_with_versions(["1.0.0"])
        with pytest.raises(NoPriorVersion):
            registry.rollback("u1", discoveries)

    def test_rollback_not_active(self):
        registry = Registry(lambda d, c: None)
        with pytest.raises(NotActive):
            registry.rollback("u1", [])

    def test_pin_survives_on_disk(self, tmp_path):
        write_pin(tmp_path / "u1", "1.0.0")
        assert read_pin(tmp_path / "u1") == "1.0.0"
        assert (tmp_path / "u1" / "pin").read_text() == "pin: 1.0.0\n"


class TestSnapshotInvariants:
    def test_epoch_monotonicity_over_random_ops(self):
        rng = random.Random(42)
        reg = MemoryRegistry()
        epochs = [reg.snapshot.epoch]
        names = ["aa", "bb", "cc"]
        versions = ["1.0.0", "1.1.0"]
        for _ in range(60):
            op = rng.choice(["activate", "deactivate"])
            name = rng.choice(names)
            try:
                if op == "activate":
                    version = rng.choice(versions)
                    current = reg.registry.record_state(name, version)
                    if current in (UnitState.ACTIVE, UnitState.DRAINING, UnitState.FAILED):
                        continue
                    reg.add(reference_unit(name, version, {EP: Behavior(("set", "k", 1))}))
                else:
                    reg.registry.deactivate(name)
            except NotActive:
                continue
            epochs.append(reg.snapshot.epoch)
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)

    def test_snapshot_purity(self):
        reg = MemoryRegistry()
        snap = reg.add(reference_unit("u1", "1.0.0", {EP: Behavior(("set", "k", 1))}))
        frozen = {ep: tuple(refs) for ep, refs in snap.routes.items()}
        epoch = snap.epoch
        reg.add(reference_unit("u2", "1.0.0", {EP: Behavior(("set", "k", 2))}))
        reg.registry.deactivate("u1")
        assert snap.epoch == epoch
        assert {ep: tuple(refs) for ep, refs in snap.routes.items()} == frozen
        with pytest.raises(TypeError):
            snap.routes["new.ep"] = ()

    def test_presence_semantics_matches_rebuild_from_scratch(self):
        rng = random.Random(99)
        eps = ["business.a.b", "ui.c.d", "data.e.f"]
        for _ in range(25):
            count = rng.randint(1, 5)
            spec = []
            for i in range(count):
                name = f"unit-{chr(97 + i)}"
                priority = rng.randint(0, 100)
                bound_eps = rng.sample(eps, rng.randint(1, len(eps)))
                spec.append((name, priority, bound_eps))
            removed = rng.choice(spec)[0]

            with_all = MemoryRegistry()
            for name, priority, bound_eps in spec:
                behaviors = {ep: Behavior(("set", "k", name)) for ep in bound_eps}
                with_all.add(reference_unit(name, "1.0.0", behaviors), priority=priority)
            with_all.registry.deactivate(removed)

            without = MemoryRegistry()
            for name, priority, bound_eps in spec:
                if name == removed:
                    continue
                behaviors = {ep: Behavior(("set", "k", name)) for ep in bound_eps}
                without.add(reference_unit(name, "1.0.0", behaviors), priority=priority)

            assert dict(with_all.snapshot.routes) == dict(without.snapshot.routes)

    def test_at_most_one_version_exhaustive(self):
        ops = ["act-1.0.0", "act-1.1.0", "deactivate", "rollback"]
        for length in range(1, 5):
            for sequence in itertools.product(ops, repeat=length):
                units = {
                    v: reference_unit("u1", v, {EP: Behavior(("set", "k", 1))})
                    for v in ("1.0.0", "1.1.0")
                }
                registry = Registry(lambda d, c: units[d.version])
                discoveries = [
                    Discovery("u1", v, reference_manifest("u1", v, 100, [EP]))
                    for v in ("1.0.0", "1.1.0")
                ]
                for op in sequence:
                    try:
                        if op.startswith("act-"):
                            version = op[4:]
                            discovery = next(d for d in discoveries if d.version == version)
                            registry.note_discovery(discovery)
                            if registry.record_state("u1", version) is UnitState.VALIDATED:
                                registry.activate(discovery)
                        elif op == "deactivate":
                            registry.deactivate("u1")
                        else:
                            registry.rollback("u1", discoveries)
                    except (NotActive, NoPriorVersion, LoadFailed):
                        pass
                    versions_in_snapshot = [
                        v for (u, v) in registry.snapshot.units() if u == "u1"
                    ]
                    assert len(versions_in_snapshot) <= 1, sequence

    def test_lifecycle_legality_randomized(self):
        rng = random.Random(7)
        for round_no in range(20):
            transitions = []
            units = {}

            def factory(discovery, context):
                return units[(discovery.name, discovery.version)]

            registry = Registry(
                factory,
                transition_listener=lambda n, v, old, new: transitions.append((n, v, old, new)),
            )
            names = ["aa", "bb"]
            versions = ["1.0.0", "1.1.0"]
            discoveries = {}
            for name in names:
                for version in versions:
                    units[(name, version)] = reference_unit(
                        name, version, {EP: Behavior(("set", "k", 1))}
                    )
                    discoveries[(name, version)] = Discovery(
                        name, version, reference_manifest(name, version, 100, [EP])
                    )
            for _ in range(30):
                op = rng.choice(["activate", "deactivate", "rollback", "retire"])
                name = rng.choice(names)
                version = rng.choice(versions)
                try:
                    if op == "activate":
                        state = registry.record_state(name, version)
                        if state in (UnitState.ACTIVE, UnitState.DRAINING, UnitState.FAILED):
                            continue
                        registry.activate(discoveries[(name, version)])
                    elif op == "deactivate":
                        registry.deactivate(name)
                    elif op == "rollback":
                        registry.rollback(name, list(discoveries.values()))
                    else:
                        registry.retire_if_drained(name, version)
                except (NotActive, NoPriorVersion, LoadFailed):
                    continue
            for name, version, old, new in transitions:
                if old is None:
                    assert new is UnitState.DISCOVERED
                else:
                    assert (old, new) in LEGAL_TRANSITIONS, (name, version, old, new)
