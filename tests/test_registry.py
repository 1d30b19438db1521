"""Registry: scan, derived lifecycle states, snapshots, pins, rollback targets."""

import argparse
import errno
import itertools
import os
import random
import shutil
import time
import types

from types import MappingProxyType

import pytest

import scpa_host.cli as cli
import scpa_host.registry as registry_mod
from scpa_host.contract import (
    Behavior,
    ChecksumMismatch,
    Layer,
    LayerBinding,
    LoadReport,
    Manifest,
    parse_version,
    payload_checksum,
    reference_unit,
)
from scpa_host.registry import (
    Discovery,
    DropDirUnreadable,
    HandlerRef,
    LoadFailed,
    NoPriorVersion,
    NotActive,
    PinMissing,
    Registry,
    UnitState,
    previous_version,
    read_pin,
    resolve_active,
    scan,
    write_pin,
)

from _util import ZERO_CHECKSUM, MemoryRegistry, reference_manifest, write_bundle

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
        assert _version_entries(cache) == []  # a read error may be transient: the next scan retries

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


def _version_entries(cache):
    """The version directories a scan cache holds a bundle result for."""
    return sorted(path for path, entry in cache.items() if isinstance(entry, registry_mod._CachedBundle))


# No racy window, so settled fingerprints are reused; and the real one, inside
# which every entry of these quick tests is racy and is reused only by bytes.
RACY_WINDOWS = [0, registry_mod.RACY_WINDOW_NS]


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

    def test_unchanged_tree_costs_one_stat_per_directory_and_two_per_version(
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
        assert listings == []
        assert len(stats) == 1 + 3 + 2 * 4  # drop dir, unit dirs, manifest and payload per version
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

    def test_racy_byte_identical_bundle_is_read_but_neither_parsed_nor_hashed(
        self, tmp_path, monkeypatch, calls
    ):
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 10**18)  # every file stays racy
        bundle = write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        cache = {}
        first = scan(tmp_path, cache=cache).discoveries[0]
        for _ in range(2):
            calls.clear()
            assert scan(tmp_path, cache=cache).discoveries[0] is first
            assert calls == {"_read": 2}  # the manifest and the payload, compared with the cached bytes

        # a settled bundle whose fingerprints changed but whose bytes did not
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)
        _wait_for_next_timestamp_tick()
        os.utime(bundle / "payload.py")
        calls.clear()
        assert scan(tmp_path, cache=cache).discoveries[0] is first
        assert calls == {"_read": 2}
        calls.clear()
        assert scan(tmp_path, cache=cache).discoveries[0] is first
        assert calls == {}

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
        assert _version_entries(cache) == [str(tmp_path / "unit-a" / v) for v in ("1.0.0", "1.1.0")]
        shutil.rmtree(newer)
        assert [d.version for d in scan(tmp_path, cache=cache).discoveries] == ["1.0.0"]
        assert _version_entries(cache) == [str(tmp_path / "unit-a" / "1.0.0")]

    def test_cached_reject_is_reported_on_every_scan(self, tmp_path, monkeypatch, calls):
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)
        bundle = write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        (bundle / "manifest.scpa").write_text("name: unit-a\n")
        cache, lines = {}, []
        for _ in range(3):
            assert [r.code for r in scan(tmp_path, diag=lines.append, cache=cache).rejects] == ["bad-manifest"]
        assert calls["parse_manifest"] == 1
        assert len(lines) == 3 and len(set(lines)) == 1 and lines[0].startswith("REJECT ")

    @pytest.mark.parametrize("racy_window_ns", RACY_WINDOWS)
    def test_cached_scan_equals_uncached_scan_after_each_edit(self, tmp_path, monkeypatch, racy_window_ns):
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", racy_window_ns)
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

    def test_version_added_right_after_a_scan_is_caught(self, tmp_path, monkeypatch):
        write_bundle(tmp_path, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        unit_dir = tmp_path / "unit-a"
        real_stat = os.stat

        def scan_add_scan(cache):
            assert [d.version for d in scan(tmp_path, cache=cache).discoveries] == ["1.0.0"]
            before = real_stat(unit_dir)
            write_bundle(tmp_path, "unit-a", "1.1.0", OK_PAYLOAD, BINDINGS)
            # an entry added within one timestamp tick leaves the directory's fingerprint as it was
            with monkeypatch.context() as m:
                m.setattr(
                    os, "stat",
                    lambda path, *a, **k: before if path == str(unit_dir) else real_stat(path, *a, **k),
                )
                return [d.version for d in scan(tmp_path, cache=cache).discoveries]

        assert scan_add_scan({}) == ["1.0.0", "1.1.0"]

        # what the racy window guards against: with none, the stale listing is served
        shutil.rmtree(unit_dir / "1.1.0")
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", 0)
        assert scan_add_scan({}) == ["1.0.0"]

    @pytest.mark.parametrize("racy_window_ns", RACY_WINDOWS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_cached_scan_equals_uncached_scan_after_random_edits(
        self, tmp_path, monkeypatch, seed, racy_window_ns
    ):
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", racy_window_ns)
        rng = random.Random(seed)
        drop = tmp_path / "drop"
        sources = tmp_path / "sources"  # bundles to deploy and symlink targets live outside the drop dir
        drop.mkdir()
        sources.mkdir()
        names = ["unit-a", "unit-b", "unit-c"]
        counter = itertools.count(1)

        def payload():
            return f"def handle(payload, context):\n    return dict(payload, n={next(counter)})\n"

        def versions(name):
            if not (drop / name).is_dir():
                return []
            return sorted(p.name for p in (drop / name).iterdir() if p.is_dir() and not p.name.startswith("."))

        def add_version(name):
            write_bundle(drop, name, f"1.{next(counter)}.0", payload(), BINDINGS)

        def remove_version(name):
            if versions(name):
                target = drop / name / rng.choice(versions(name))
                if target.is_symlink():
                    target.unlink()
                else:
                    shutil.rmtree(target)

        def replace_unit_dir(name):
            staged = write_bundle(sources / "staged", name, f"2.{next(counter)}.0", payload(), BINDINGS).parent
            (staged / f"2.{next(counter)}.0").mkdir()  # a version directory without a manifest
            if (drop / name).exists():
                os.rename(drop / name, sources / "old")
                shutil.rmtree(sources / "old")
            os.rename(staged, drop / name)

        def toggle_disabled(name):
            marker = drop / name / "disabled"
            if marker.exists():
                marker.unlink()
            elif marker.parent.is_dir():
                marker.touch()

        def pin_via_write_pin(name):
            if versions(name):
                write_pin(drop / name, rng.choice(versions(name) + ["9.9.9"]))

        def pin_in_place(name):
            pin = drop / name / "pin"
            if pin.exists():
                with open(pin, "r+") as fh:  # same directory, same inode
                    fh.write(f"pin: {rng.choice(versions(name) + ['9.9.9'])}\n")
                    fh.truncate()

        def rewrite_payload_in_place(name):
            bundles = [v for v in versions(name) if (drop / name / v / "payload.py").exists()]
            if bundles:
                with open(drop / name / rng.choice(bundles) / "payload.py", "r+b") as fh:
                    fh.write(payload().encode())
                    fh.truncate()

        def deploy_with_cli(name):
            bundle = write_bundle(sources / "deploy", name, f"3.{next(counter)}.0", payload(), BINDINGS)
            assert cli.cmd_deploy(argparse.Namespace(bundle=bundle, drop_dir=drop)) == 0

        def add_symlinked_version(name):
            version = f"4.{next(counter)}.0"
            target = write_bundle(sources / "linked", name, version, payload(), BINDINGS)
            (drop / name).mkdir(exist_ok=True)
            os.symlink(target, drop / name / version)

        def delete_a_symlink_target(name):
            linked = sources / "linked" / name
            if linked.is_dir() and any(linked.iterdir()):
                shutil.rmtree(rng.choice(sorted(linked.iterdir())))

        edits = [
            add_version, remove_version, replace_unit_dir, toggle_disabled, pin_via_write_pin,
            pin_in_place, rewrite_payload_in_place, deploy_with_cli, add_symlinked_version,
            delete_a_symlink_target,
        ]
        cache = {}
        for name in names:
            add_version(name)
        assert scan(drop, cache=cache) == scan(drop)
        for _ in range(60):
            _wait_for_next_timestamp_tick()
            rng.choice(edits)(rng.choice(names))
            assert scan(drop, cache=cache) == scan(drop)


class TestScanFaults:
    """A failed ``os.stat``, ``os.scandir`` or file read at any point of a
    scan: the scan reports what it could, and learns nothing from it that a
    later scan would reuse."""

    ERRNOS = [errno.EACCES, errno.ENOENT, errno.EIO]

    @pytest.fixture
    def tree(self, tmp_path, monkeypatch):
        """A drop dir with a settled bundle whose unit directory holds a
        ``pin`` and a ``disabled`` marker, and a racy bundle written later;
        the scan clock is stopped between the two."""
        drop = tmp_path / "drop"
        settled = write_bundle(drop, "unit-a", "1.0.0", OK_PAYLOAD, BINDINGS)
        write_pin(drop / "unit-a", "1.0.0")
        (drop / "unit-a" / "disabled").touch()
        time.sleep(0.05)  # past a timestamp tick
        racy = write_bundle(drop, "unit-b", "1.0.0", OK_PAYLOAD, BINDINGS)
        ctimes = lambda paths: [os.stat(p).st_ctime_ns for p in paths]
        settled_at = max(ctimes([settled, *settled.iterdir(), *(drop / "unit-a").iterdir(), drop / "unit-a"]))
        racy_from = min(ctimes([racy / "manifest.scpa", racy / "payload.py"]))
        assert settled_at < racy_from
        now = max(ctimes([drop, *drop.iterdir(), racy, *racy.iterdir()])) + 1
        monkeypatch.setattr(registry_mod, "time", types.SimpleNamespace(time_ns=lambda: now))
        monkeypatch.setattr(registry_mod, "RACY_WINDOW_NS", now - (settled_at + racy_from) // 2)
        is_settled = lambda path: registry_mod._settled(registry_mod._fingerprint(os.stat(path)), now)
        assert all(is_settled(p) for p in settled.iterdir())
        assert not any(is_settled(p) for p in racy.iterdir())
        return drop

    @staticmethod
    def failing(monkeypatch, module, name, k, code):
        """Make the k-th call of ``module.name`` raise OSError ``code``;
        returns the list the failed call's path is put in."""
        real, count, failed = getattr(module, name), itertools.count(1), []

        def call(path, *args, **kwargs):
            if next(count) == k:
                failed.append(os.fspath(path))
                raise OSError(code, os.strerror(code), path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(module, name, call)
        return failed

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "module, name", [(os, "stat"), (os, "scandir"), (registry_mod, "_read")], ids=["stat", "scandir", "read"]
    )
    def test_every_failed_call_leaves_a_scan_that_equals_an_uncached_one(
        self, tree, monkeypatch, module, name, warm
    ):
        cache = {}
        scan(tree, cache=cache)
        calls = []
        with monkeypatch.context() as m:
            real = getattr(module, name)
            m.setattr(module, name, lambda path, *a, **k: calls.append(path) or real(path, *a, **k))
            scan(tree, cache=dict(cache) if warm else {})
        assert calls
        for code in self.ERRNOS:
            for k in range(1, len(calls) + 1):
                faulty = dict(cache) if warm else {}
                with monkeypatch.context() as m:
                    failed = self.failing(m, module, name, k, code)
                    try:
                        scan(tree, cache=faulty)
                    except DropDirUnreadable:
                        assert failed == [str(tree)]
                assert failed, k
                assert scan(tree, cache=faulty) == scan(tree), (code, k, failed)


class TestResolveActive:
    def test_singleton(self):
        assert resolve_active("u", ["1.0.0"]) == "1.0.0"

    def test_numeric_not_lexicographic(self):
        assert resolve_active("u", ["1.0.0", "1.1.0", "1.10.0"]) == "1.10.0"

    def test_pin_wins(self):
        assert resolve_active("u", ["1.0.0", "1.1.0"], "1.0.0") == "1.0.0"

    def test_pin_missing(self):
        with pytest.raises(PinMissing):
            resolve_active("u", ["1.0.0"], "2.0.0")

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


def _rollback(registry, name, discoveries):
    """Activate what ``scpa-host rollback`` would pin ``name`` to: the
    next-highest of its ``discoveries`` below the active version."""
    current = registry.active_version(name)
    if current is None:
        raise NotActive(name)
    own = [d for d in discoveries if d.name == name]
    target = previous_version(name, current, [d.version for d in own])
    return registry.activate(next(d for d in own if d.version == target))


class TestRollback:
    def test_previous_version_is_the_next_highest_below_the_current_one(self):
        assert previous_version("u1", "2.0.0", ["1.0.0", "2.0.0", "1.5.0", "3.0.0"]) == "1.5.0"
        assert previous_version("u1", "1.5.0", ["1.5.0", "1.0.0", "2.0.0"]) == "1.0.0"

    def test_previous_version_orders_numerically(self):
        assert previous_version("u1", "1.11.0", ["1.9.0", "1.10.0", "1.11.0"]) == "1.10.0"
        assert previous_version("u1", "2.0.0", ["1.9.0", "1.10.0"]) == "1.10.0"

    def test_previous_version_without_a_lower_version(self):
        with pytest.raises(NoPriorVersion) as info:
            previous_version("u1", "1.0.0", ["1.0.0", "1.1.0"])
        assert info.value.name == "u1"
        with pytest.raises(NoPriorVersion):
            previous_version("u1", "1.0.0", [])

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
                            if registry.record_state("u1", version) not in (UnitState.ACTIVE, UnitState.DRAINING):
                                registry.activate(discovery)
                        elif op == "deactivate":
                            registry.deactivate("u1")
                        else:
                            _rollback(registry, "u1", discoveries)
                    except (NotActive, NoPriorVersion, LoadFailed):
                        pass
                    versions_in_snapshot = [
                        v for (u, v) in registry.snapshot.units() if u == "u1"
                    ]
                    assert len(versions_in_snapshot) <= 1, sequence

    # Each change of one version's state that one activate, deactivate or
    # retire can make.  A Retired version, or a Failed one with new bytes,
    # loads again.
    LEGAL_STEPS = {
        (None, UnitState.ACTIVE),
        (None, UnitState.FAILED),
        (UnitState.ACTIVE, UnitState.DRAINING),
        (UnitState.DRAINING, UnitState.RETIRED),
        (UnitState.RETIRED, UnitState.ACTIVE),
        (UnitState.RETIRED, UnitState.FAILED),
        (UnitState.FAILED, UnitState.ACTIVE),
    }

    def test_lifecycle_legality_randomized(self):
        rng = random.Random(7)
        steps = []
        for round_no in range(20):
            units = {}

            def factory(discovery, context):
                return units[(discovery.name, discovery.version)]

            registry = Registry(factory)
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

            def states():
                return {key: registry.record_state(*key) for key in discoveries}

            before = states()
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
                        _rollback(registry, name, list(discoveries.values()))
                    else:
                        registry.retire_if_drained(name, version)
                except (NotActive, NoPriorVersion, LoadFailed):
                    continue
                finally:
                    after = states()
                    for key in discoveries:
                        if before[key] is not after[key]:
                            steps.append((key, before[key], after[key]))
                    before = after
        assert steps
        for key, old, new in steps:
            assert (old, new) in self.LEGAL_STEPS, (key, old, new)


class _IdleUnit:
    def load(self, context):
        return None


def _random_manifest(rng: random.Random, name: str, version: str) -> Manifest:
    """Several bindings over a few shared extension points; a point may be
    bound in two layers, and priorities often tie."""
    bindings = []
    for ep in rng.sample(["business.a.run", "business.b.run", "ui.c.show", "data.d.load"], rng.randint(1, 3)):
        for layer in rng.sample(list(Layer), rng.choice([1, 1, 2])):
            bindings.append(LayerBinding(layer, ep, rng.choice(["handle", "alt", "zeta"])))
    return Manifest(
        name=name,
        version=version,
        priority=rng.choice([10, 20, 20]),
        reentrant=rng.random() < 0.5,
        bindings=tuple(bindings),
        payload_ref="payload.py",
        checksum=ZERO_CHECKSUM,
    )


def _routes_from_scratch(manifests) -> dict[str, tuple[HandlerRef, ...]]:
    """Every binding of every active manifest, sorted once by (extension
    point, priority, unit, handler) and then split by extension point."""
    rows = sorted(
        (b.extension_point, m.priority, m.name, b.handler, m.version, m.reentrant)
        for m in manifests
        for b in m.bindings
    )
    routes: dict[str, list[HandlerRef]] = {}
    for ep, priority, unit, handler, version, reentrant in rows:
        routes.setdefault(ep, []).append(HandlerRef(unit, version, handler, priority, reentrant))
    return {ep: tuple(refs) for ep, refs in routes.items()}


class TestIncrementalCommit:
    @pytest.mark.parametrize("seed", range(6))
    def test_routes_equal_a_rebuild_from_scratch_after_every_step(self, seed):
        rng = random.Random(seed)
        names = ["aa", "bb", "cc", "dd", "ee"]
        versions = ["1.0.0", "1.1.0", "2.0.0"]
        discoveries = {
            (n, v): Discovery(n, v, _random_manifest(rng, n, v)) for n in names for v in versions
        }
        broken = set(rng.sample(sorted(discoveries), 3))  # load raises: Failed
        tampered = set(rng.sample(sorted(discoveries), 3))  # first load sees changed bytes

        def factory(discovery, context):
            key = (discovery.name, discovery.version)
            outcomes["load"] += 1
            if key in broken:
                raise RuntimeError("import exploded")
            if key in tampered:
                tampered.discard(key)
                raise ChecksumMismatch(expected=ZERO_CHECKSUM, actual="1" * 64)
            return _IdleUnit()

        registry = Registry(factory)
        active: dict[str, Manifest] = {}  # the test's own model of what is active
        history = []
        outcomes = {"load": 0, "commit": 0, "failed-load": 0, "rollback": 0}
        for _ in range(150):
            before, loads = registry.snapshot, outcomes["load"]
            op = rng.choice(["activate"] * 3 + ["deactivate"] + ["rollback", "retire"] * 2)
            name = rng.choice(names)
            try:
                if op == "activate":
                    discovery = discoveries[(name, rng.choice(versions))]
                    registry.activate(discovery)
                    active[name] = discovery.manifest
                elif op == "deactivate":
                    registry.deactivate(name)
                    del active[name]
                elif op == "rollback":
                    current = parse_version(active[name].version) if name in active else None
                    _rollback(registry, name, [discoveries[(name, v)] for v in versions])
                    target = max((v for v in versions if parse_version(v) < current), key=parse_version)
                    active[name] = discoveries[(name, target)].manifest
                    outcomes["rollback"] += 1
                else:
                    for version in versions:
                        registry.retire_if_drained(name, version)
            except (LoadFailed, NotActive, NoPriorVersion):
                committed = False
            else:
                committed = op != "retire"

            snapshot = registry.snapshot
            if outcomes["load"] > loads and not committed:
                outcomes["failed-load"] += 1
            if committed:
                outcomes["commit"] += 1
                assert snapshot.epoch == before.epoch + 1
            else:
                assert snapshot is before
            assert isinstance(snapshot.routes, MappingProxyType)
            assert dict(snapshot.routes) == _routes_from_scratch(active.values())
            history.append((snapshot, dict(snapshot.routes)))

        for snapshot, routes in history:  # no later commit touched an earlier snapshot
            assert dict(snapshot.routes) == routes
        assert all(outcomes.values()), outcomes


class TestHold:
    V1 = reference_unit("u1", "1.0.0", {EP: Behavior(("set", "k", 1))})
    V2 = reference_unit("u1", "1.1.0", {EP: Behavior(("set", "k", 2))})

    def test_a_token_held_before_a_swap_keeps_the_old_version_draining(self):
        reg = MemoryRegistry()
        reg.add(self.V1)
        token = object()
        held = reg.registry.hold(EP, token)
        reg.add(self.V2)
        assert reg.registry.record_state("u1", "1.0.0") is UnitState.DRAINING
        assert reg.registry.retire_if_drained("u1", "1.0.0") is False
        held.bound["u1"].running.discard(token)
        assert reg.registry.retire_if_drained("u1", "1.0.0") is True
        assert reg.registry.record_state("u1", "1.0.0") is UnitState.RETIRED

    def test_a_hold_after_a_swap_holds_only_the_new_version(self):
        reg = MemoryRegistry()
        reg.add(self.V1)
        old = reg.snapshot.bound["u1"]
        reg.add(self.V2)
        token = object()
        held = reg.registry.hold(EP, token)
        assert held is reg.snapshot
        assert held.bound["u1"].manifest.version == "1.1.0"
        assert held.bound["u1"].running == {token}
        assert old.running == set()
        assert reg.registry.hold("business.other.run", object()).bound["u1"].running == {token}

    @pytest.mark.parametrize("seed", range(3))
    def test_bound_units_are_the_routed_units_after_every_step(self, seed):
        rng = random.Random(seed)
        names = ["aa", "bb", "cc", "dd"]
        versions = ["1.0.0", "1.1.0"]
        registry = Registry(lambda discovery, context: _IdleUnit())
        for _ in range(60):
            name = rng.choice(names)
            try:
                if rng.random() < 0.6:
                    version = rng.choice(versions)
                    if registry.record_state(name, version) not in (None, UnitState.RETIRED):
                        continue
                    registry.activate(Discovery(name, version, _random_manifest(rng, name, version)))
                else:
                    registry.deactivate(name)
            except NotActive:
                continue
            registry.retire_drained()
            snapshot = registry.snapshot
            assert isinstance(snapshot.bound, MappingProxyType)
            assert {(n, b.manifest.version) for n, b in snapshot.bound.items()} == snapshot.units()
            assert snapshot.bound.keys() == {h.unit for refs in snapshot.routes.values() for h in refs}
