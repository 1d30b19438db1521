"""Unit registry: drop-folder discovery, lifecycle state machine, version
resolution, and immutable epoch snapshots supporting hot-swap and rollback.

Drop-folder layout: ``<drop>/<name>/<version>/manifest.scpa`` plus payload
files.  A ``pin`` file in the unit directory pins the active version; an
empty ``disabled`` marker switches the unit off without deleting it.
"""

from __future__ import annotations

import os
import stat
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Protocol

from .contract import (
    HOST_VERSION,
    MANIFEST_FILENAME,
    HostContext,
    LoadReport,
    Manifest,
    ManifestError,
    ChecksumMismatch,
    PipelineUnit,
    parse_manifest,
    parse_version,
    verify_payload,
)

PIN_FILENAME = "pin"
DISABLED_FILENAME = "disabled"


class RegistryError(Exception):
    pass


class DropDirUnreadable(RegistryError):
    def __init__(self, path: Path):
        super().__init__(f"drop directory unreadable: {path}")
        self.path = path


class LoadFailed(RegistryError):
    def __init__(self, unit: str, reason: str):
        super().__init__(f"load failed for {unit}: {reason}")
        self.unit = unit
        self.reason = reason


class PayloadChanged(LoadFailed):
    """The payload no longer has the checksum the scan verified.

    The version stays Validated: a later scan sees the new bytes."""


class NotActive(RegistryError):
    def __init__(self, name: str):
        super().__init__(f"unit not active: {name}")
        self.name = name


class PinMissing(RegistryError):
    def __init__(self, name: str, version: str):
        super().__init__(f"pinned version {version} of {name} is not on disk")
        self.name = name
        self.version = version


class NoPriorVersion(RegistryError):
    def __init__(self, name: str):
        super().__init__(f"no prior version of {name} to roll back to")
        self.name = name


class IllegalTransition(RegistryError):
    def __init__(self, name: str, version: str, old: "UnitState", new: "UnitState"):
        super().__init__(f"{name}@{version}: illegal transition {old.name} -> {new.name}")
        self.old = old
        self.new = new


class UnitState(Enum):
    DISCOVERED = "discovered"
    VALIDATED = "validated"
    ACTIVE = "active"
    DRAINING = "draining"
    RETIRED = "retired"
    FAILED = "failed"


_FORWARD_TRANSITIONS = {
    (UnitState.DISCOVERED, UnitState.VALIDATED),
    (UnitState.VALIDATED, UnitState.ACTIVE),
    (UnitState.ACTIVE, UnitState.DRAINING),
    (UnitState.DRAINING, UnitState.RETIRED),
}

LEGAL_TRANSITIONS = _FORWARD_TRANSITIONS | {
    (state, UnitState.FAILED) for state in UnitState if state is not UnitState.FAILED
}


@dataclass(frozen=True)
class HandlerRef:
    """One handler's position in a route: enough to order, call, and trace it."""

    unit: str
    version: str
    handler: str
    priority: int
    reentrant: bool


@dataclass(frozen=True)
class RegistrySnapshot:
    """Immutable per-epoch view: extension point -> ordered active handlers."""

    epoch: int
    routes: Mapping[str, tuple[HandlerRef, ...]]

    def handlers_for(self, extension_point: str) -> tuple[HandlerRef, ...]:
        return self.routes.get(extension_point, ())

    def units(self) -> set[tuple[str, str]]:
        return {(h.unit, h.version) for refs in self.routes.values() for h in refs}


def _build_snapshot(epoch: int, manifests: Iterable[Manifest]) -> RegistrySnapshot:
    routes: dict[str, list[HandlerRef]] = {}
    names: set[str] = set()
    for manifest in manifests:
        if manifest.name in names:
            raise RegistryError(f"two versions of {manifest.name} in one snapshot")
        names.add(manifest.name)
        for binding in manifest.bindings:
            routes.setdefault(binding.extension_point, []).append(
                HandlerRef(
                    unit=manifest.name,
                    version=manifest.version,
                    handler=binding.handler,
                    priority=manifest.priority,
                    reentrant=manifest.reentrant,
                )
            )
    frozen = {
        ep: tuple(sorted(refs, key=lambda h: (h.priority, h.unit, h.handler)))
        for ep, refs in routes.items()
    }
    return RegistrySnapshot(epoch=epoch, routes=MappingProxyType(frozen))


EMPTY_SNAPSHOT = _build_snapshot(0, ())


@dataclass(frozen=True)
class VersionPin:
    unit: str
    version: str | None = None


@dataclass(frozen=True)
class Discovery:
    """A valid bundle found on disk (or constructed in memory for tests)."""

    name: str
    version: str
    manifest: Manifest
    path: Path | None = None


@dataclass(frozen=True)
class Reject:
    path: str
    code: str
    detail: str


@dataclass
class ScanResult:
    discoveries: list[Discovery] = field(default_factory=list)
    rejects: list[Reject] = field(default_factory=list)
    disabled: set[str] = field(default_factory=set)
    pins: dict[str, str] = field(default_factory=dict)


def read_pin(unit_dir: Path) -> str | None:
    """Read the one-line ``pin: <version>`` file; None when absent or malformed."""
    pin_path = unit_dir / PIN_FILENAME
    try:
        text = pin_path.read_text(encoding="utf-8")
    except OSError:
        return None
    line = text.strip()
    if not line.startswith("pin:"):
        return None
    version = line[len("pin:"):].strip()
    try:
        parse_version(version)
    except ValueError:
        return None
    return version


def write_pin(unit_dir: Path, version: str) -> None:
    parse_version(version)
    unit_dir.mkdir(parents=True, exist_ok=True)
    tmp = unit_dir / f".{PIN_FILENAME}.tmp"
    tmp.write_text(f"pin: {version}\n", encoding="utf-8")
    os.replace(tmp, unit_dir / PIN_FILENAME)


RACY_WINDOW_NS = 2_000_000_000
"""A cached fingerprint is trusted only when the file's ctime is at least this
much older than the start of the scan that cached it (git's racy-clean rule).
File timestamps advance once per kernel tick, so a same-size rewrite within
one tick of the previous write leaves the fingerprint unchanged."""

Fingerprint = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class _CachedBundle:
    """What one scan learned about a version directory, and the stat
    fingerprints (None: no such file) it learned it from."""

    manifest: Fingerprint | None
    payload_ref: str | None
    payload: Fingerprint | None
    outcome: Discovery | Reject


ScanCache = dict[str, _CachedBundle]
"""Version directory path -> the cached result of examining it."""


def _stat(path: str) -> os.stat_result | None:
    try:
        return os.stat(path)
    except OSError:
        return None


def _fingerprint(st: os.stat_result | None) -> Fingerprint | None:
    if st is None:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _list_dir(path: str) -> tuple[list[os.DirEntry], set[str]]:
    """The non-hidden subdirectories of ``path`` in name order, and the names
    of all its entries."""
    names: set[str] = set()
    subdirs: list[os.DirEntry] = []
    with os.scandir(path) as entries:
        for entry in entries:
            names.add(entry.name)
            if entry.name.startswith("."):
                continue
            try:
                is_dir = entry.is_dir()
            except OSError:
                continue
            if is_dir:
                subdirs.append(entry)
    subdirs.sort(key=lambda e: e.name)
    return subdirs, names


def _examine(
    unit_name: str, version_dir: os.DirEntry, manifest_st: os.stat_result | None
) -> _CachedBundle:
    """Read, parse and verify one version directory."""
    path = version_dir.path
    manifest_fp = _fingerprint(manifest_st)

    def rejected(code: str, detail: str, payload_ref=None, payload_fp=None) -> _CachedBundle:
        return _CachedBundle(manifest_fp, payload_ref, payload_fp, Reject(path, code, detail))

    if manifest_st is None or not stat.S_ISREG(manifest_st.st_mode):
        return rejected("missing-manifest", f"no {MANIFEST_FILENAME}")
    try:
        text = _read(f"{path}/{MANIFEST_FILENAME}").decode("utf-8")
    except OSError as exc:
        return rejected("unreadable", f"cannot read {MANIFEST_FILENAME}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        return rejected("bad-manifest", f"not UTF-8 text at byte {exc.start}")
    try:
        manifest = parse_manifest(text)
    except ManifestError as exc:
        return rejected("bad-manifest", str(exc))
    if manifest.name != unit_name or manifest.version != version_dir.name:
        return rejected(
            "name-version-mismatch",
            f"directory says {unit_name}/{version_dir.name}, "
            f"manifest says {manifest.name}/{manifest.version}",
        )
    payload_path = f"{path}/{manifest.payload_ref}"
    payload_fp = _fingerprint(_stat(payload_path))
    try:
        payload = _read(payload_path)
    except OSError:
        return rejected(
            "missing-payload", f"cannot read {manifest.payload_ref}", manifest.payload_ref, payload_fp
        )
    try:
        verify_payload(manifest, payload)
    except ChecksumMismatch as exc:
        return rejected("checksum-mismatch", str(exc), manifest.payload_ref, payload_fp)
    discovery = Discovery(
        name=manifest.name, version=manifest.version, manifest=manifest, path=Path(path)
    )
    return _CachedBundle(manifest_fp, manifest.payload_ref, payload_fp, discovery)


def _unchanged(
    cached: _CachedBundle | None, version_path: str, manifest_fp: Fingerprint | None
) -> bool:
    if cached is None or cached.manifest != manifest_fp:
        return False
    if cached.payload_ref is None:
        return True
    return _fingerprint(_stat(f"{version_path}/{cached.payload_ref}")) == cached.payload


def _trusted(cached: _CachedBundle, scan_started_ns: int) -> bool:
    """Whether a later scan may reuse ``cached`` on an equal fingerprint."""
    if isinstance(cached.outcome, Reject) and cached.outcome.code == "unreadable":
        return False  # a read error may be transient: retry it on the next scan
    newest_trusted = scan_started_ns - RACY_WINDOW_NS
    return all(  # fp[4] is st_ctime_ns
        fp is None or fp[4] <= newest_trusted for fp in (cached.manifest, cached.payload)
    )


def scan(
    drop_dir: Path,
    diag: Callable[[str], None] | None = None,
    cache: ScanCache | None = None,
) -> ScanResult:
    """Discover valid bundles under the drop folder.

    Never raises on a malformed bundle: every invalid or unreadable one lands
    in rejects with a reason code.  Only an unreadable drop dir is an error.

    With a ``cache`` (kept by the caller from one scan to the next), a
    version directory whose manifest and payload have the stat fingerprints
    seen before costs two ``stat`` calls: its earlier discovery or reject is
    reused without reading, parsing or hashing.  Entries of directories that
    are gone are dropped from the cache.
    """
    base = os.fspath(Path(drop_dir))
    try:
        unit_dirs, _ = _list_dir(base)
    except OSError:
        raise DropDirUnreadable(Path(drop_dir)) from None
    prefix = "" if base == "." else os.path.join(base, "")
    started_ns = time.time_ns()
    seen: set[str] = set()
    result = ScanResult()

    def reject(found: Reject) -> None:
        result.rejects.append(found)
        if diag is not None:
            diag(f"REJECT {found.path} {found.code} {found.detail}")

    for unit_entry in unit_dirs:
        unit_name = unit_entry.name
        unit_path = prefix + unit_name
        try:
            version_dirs, names = _list_dir(unit_path)
        except OSError as exc:
            reject(Reject(unit_path, "unreadable", f"cannot list unit directory: {exc.strerror}"))
            continue
        if DISABLED_FILENAME in names:
            result.disabled.add(unit_name)
        if PIN_FILENAME in names:
            pin = read_pin(Path(unit_path))
            if pin is not None:
                result.pins[unit_name] = pin
        for version_dir in version_dirs:
            path = version_dir.path
            manifest_st = _stat(f"{path}/{MANIFEST_FILENAME}")
            cached = cache.get(path) if cache is not None else None
            if not _unchanged(cached, path, _fingerprint(manifest_st)):
                cached = _examine(unit_name, version_dir, manifest_st)
                if cache is not None:
                    if _trusted(cached, started_ns):
                        cache[path] = cached
                    else:
                        cache.pop(path, None)
            seen.add(path)
            if isinstance(cached.outcome, Reject):
                reject(cached.outcome)
            else:
                result.discoveries.append(cached.outcome)
    if cache is not None:
        for gone in cache.keys() - seen:
            del cache[gone]
    return result


def resolve_active(
    name: str, versions: Iterable[str], pin: VersionPin | None = None
) -> str:
    """Pick the version to activate: the pin when set, else the highest."""
    available = list(versions)
    if not available:
        raise RegistryError(f"no versions available for {name}")
    if pin is not None and pin.version is not None:
        if pin.version not in available:
            raise PinMissing(name, pin.version)
        return pin.version
    return max(available, key=parse_version)


class PinStore(Protocol):
    def get(self, name: str) -> str | None: ...

    def set(self, name: str, version: str) -> None: ...


class MemoryPinStore:
    def __init__(self):
        self._pins: dict[str, str] = {}

    def get(self, name: str) -> str | None:
        return self._pins.get(name)

    def set(self, name: str, version: str) -> None:
        self._pins[name] = version


class FilePinStore:
    """Pins persisted as ``<drop>/<name>/pin`` files."""

    def __init__(self, drop_dir: Path):
        self._drop_dir = Path(drop_dir)

    def get(self, name: str) -> str | None:
        return read_pin(self._drop_dir / name)

    def set(self, name: str, version: str) -> None:
        write_pin(self._drop_dir / name, version)


@dataclass
class _VersionRecord:
    manifest: Manifest
    state: UnitState
    reason: str = ""


@dataclass
class _ActiveEntry:
    version: str
    manifest: Manifest
    unit: PipelineUnit
    gate: threading.Lock | None


UnitFactory = Callable[[Discovery, HostContext], PipelineUnit]
ContextFactory = Callable[[str], HostContext]
TransitionListener = Callable[[str, str, UnitState | None, UnitState], None]


def _default_context_factory(name: str) -> HostContext:
    return HostContext(host_version=HOST_VERSION, unit_name=name)


class Registry:
    """Single-writer unit registry producing immutable epoch snapshots.

    All mutations must come from one coordinator sequence; readers may grab
    ``snapshot`` at any time without blocking the writer.
    """

    def __init__(
        self,
        unit_factory: UnitFactory,
        *,
        context_factory: ContextFactory | None = None,
        pin_store: PinStore | None = None,
        diag: Callable[[str], None] | None = None,
        transition_listener: TransitionListener | None = None,
    ):
        self._unit_factory = unit_factory
        self._context_factory = context_factory or _default_context_factory
        self._pin_store: PinStore = pin_store if pin_store is not None else MemoryPinStore()
        self._diag = diag
        self._listener = transition_listener
        self._records: dict[tuple[str, str], _VersionRecord] = {}
        self._active: dict[str, _ActiveEntry] = {}
        self._draining: dict[tuple[str, str], PipelineUnit] = {}
        self._snapshot = EMPTY_SNAPSHOT

    @property
    def snapshot(self) -> RegistrySnapshot:
        return self._snapshot

    @property
    def pin_store(self) -> PinStore:
        return self._pin_store

    def active_version(self, name: str) -> str | None:
        entry = self._active.get(name)
        return entry.version if entry else None

    def active_entries(self) -> dict[str, _ActiveEntry]:
        return dict(self._active)

    def record_state(self, name: str, version: str) -> UnitState | None:
        record = self._records.get((name, version))
        return record.state if record else None

    def records(self) -> dict[tuple[str, str], tuple[UnitState, str]]:
        return {key: (rec.state, rec.reason) for key, rec in self._records.items()}

    def draining_versions(self) -> set[tuple[str, str]]:
        return set(self._draining)

    # -- state machine -------------------------------------------------

    def _transition(self, name: str, version: str, new: UnitState, reason: str = "") -> None:
        record = self._records[(name, version)]
        if (record.state, new) not in LEGAL_TRANSITIONS:
            raise IllegalTransition(name, version, record.state, new)
        old = record.state
        record.state = new
        record.reason = reason
        if self._listener is not None:
            self._listener(name, version, old, new)

    def _new_record(self, discovery: Discovery) -> None:
        key = (discovery.name, discovery.version)
        self._records[key] = _VersionRecord(
            manifest=discovery.manifest, state=UnitState.DISCOVERED
        )
        if self._listener is not None:
            self._listener(discovery.name, discovery.version, None, UnitState.DISCOVERED)
        self._transition(discovery.name, discovery.version, UnitState.VALIDATED)

    def note_discovery(self, discovery: Discovery) -> None:
        """Record a scanned bundle.

        A Retired version rediscovered on disk starts a fresh lifecycle (the
        rollback path re-activates it).  A Failed record is replaced only
        when the payload changed; otherwise it never auto-retries.
        """
        key = (discovery.name, discovery.version)
        record = self._records.get(key)
        if record is None or record.state is UnitState.RETIRED:
            self._new_record(discovery)
            return
        if (
            record.state is UnitState.FAILED
            and record.manifest.checksum != discovery.manifest.checksum
        ):
            self._new_record(discovery)

    def _commit(self, reason: str) -> RegistrySnapshot:
        manifests = [entry.manifest for entry in self._active.values()]
        snapshot = _build_snapshot(self._snapshot.epoch + 1, manifests)
        self._snapshot = snapshot
        if self._diag is not None:
            self._diag(f"EPOCH {snapshot.epoch} {reason}")
        return snapshot

    # -- operations ------------------------------------------------------

    def activate(self, discovery: Discovery, *, reason: str | None = None) -> RegistrySnapshot:
        """Load and activate a validated version; one new epoch.

        If another version of the unit is active it transitions to Draining
        and is absent from the new snapshot.  A load failure marks the
        version Failed and leaves the snapshot unchanged; a payload whose
        bytes no longer match the manifest raises PayloadChanged and leaves
        the version Validated.
        """
        key = (discovery.name, discovery.version)
        self.note_discovery(discovery)
        record = self._records[key]
        if record.state is UnitState.FAILED:
            raise LoadFailed(discovery.name, f"version {discovery.version} previously failed")
        if record.state is not UnitState.VALIDATED:
            raise LoadFailed(
                discovery.name,
                f"version {discovery.version} is {record.state.value}, expected validated",
            )

        context = self._context_factory(discovery.name)
        try:
            unit = self._unit_factory(discovery, context)
            report = unit.load(context)
        except ChecksumMismatch as exc:
            raise PayloadChanged(discovery.name, str(exc)) from exc
        except Exception as exc:
            self._transition(discovery.name, discovery.version, UnitState.FAILED, str(exc))
            raise LoadFailed(discovery.name, str(exc)) from exc
        if isinstance(report, LoadReport) and not report.ok:
            self._transition(discovery.name, discovery.version, UnitState.FAILED, report.message)
            raise LoadFailed(discovery.name, report.message or "load reported failure")

        previous = self._active.get(discovery.name)
        if previous is not None:
            self._transition(discovery.name, previous.version, UnitState.DRAINING, "replaced")
            self._draining[(discovery.name, previous.version)] = previous.unit
        self._transition(discovery.name, discovery.version, UnitState.ACTIVE)
        self._active[discovery.name] = _ActiveEntry(
            version=discovery.version,
            manifest=discovery.manifest,
            unit=unit,
            gate=None if discovery.manifest.reentrant else threading.Lock(),
        )
        return self._commit(reason or f"activate {discovery.name}@{discovery.version}")

    def deactivate(self, name: str, *, reason: str | None = None) -> RegistrySnapshot:
        """Remove the unit from the routes; its version drains until retired."""
        entry = self._active.pop(name, None)
        if entry is None:
            raise NotActive(name)
        self._transition(name, entry.version, UnitState.DRAINING, "deactivated")
        self._draining[(name, entry.version)] = entry.unit
        return self._commit(reason or f"deactivate {name}@{entry.version}")

    def rollback(self, name: str, candidates: Iterable[Discovery]) -> RegistrySnapshot:
        """Pin and activate the next-highest version below the active one.

        The swap is a single new epoch: the current version drains, the
        pinned one takes its place, and the pin persists for future scans.
        """
        entry = self._active.get(name)
        if entry is None:
            raise NotActive(name)
        current = parse_version(entry.version)
        older = [
            d for d in candidates
            if d.name == name and parse_version(d.version) < current
        ]
        if not older:
            raise NoPriorVersion(name)
        target = max(older, key=lambda d: parse_version(d.version))
        self._pin_store.set(name, target.version)
        return self.activate(
            target, reason=f"rollback {name} {entry.version}->{target.version}"
        )

    def retire_if_drained(self, name: str, version: str) -> bool:
        """Finish draining: transition to Retired and call unload() once."""
        unit = self._draining.pop((name, version), None)
        if unit is None:
            return False
        self._transition(name, version, UnitState.RETIRED, "drained")
        unload = getattr(unit, "unload", None)
        if callable(unload):
            try:
                unload()
            except Exception:
                pass
        return True
