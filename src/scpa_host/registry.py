"""Unit registry: drop-folder discovery, derived lifecycle states, version
resolution, and immutable epoch snapshots supporting hot-swap and rollback.

Drop-folder layout: ``<drop>/<name>/<version>/manifest.scpa`` plus payload
files.  A ``pin`` file in the unit directory pins the active version (it
is how a unit is rolled back); an empty ``disabled`` marker switches the
unit off without deleting it.
"""

from __future__ import annotations

import os
import stat
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import CodeType, MappingProxyType
from typing import Callable, Iterable, Mapping

from .contract import (
    HOST_VERSION,
    MANIFEST_FILENAME,
    ExecutionRecord,
    HostContext,
    LoadReport,
    Manifest,
    ManifestError,
    ChecksumMismatch,
    Outcome,
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


class UnitState(Enum):
    ACTIVE = "active"
    DRAINING = "draining"
    RETIRED = "retired"
    FAILED = "failed"


@dataclass(frozen=True)
class HandlerRef:
    """One handler's position in a route: enough to order, call, and trace it."""

    unit: str
    version: str
    handler: str
    priority: int
    reentrant: bool


@dataclass
class BoundUnit:
    """One loaded unit@version until it retires: its instance, its
    reentrancy gate (None when reentrant) and its holders.

    ``running`` holds one token per holder: each started call not yet
    returned (its ``done`` Event), abandoned ones included, and in a host
    each dispatch whose snapshot routes to it.  A draining version retires
    once it is empty.  ``manifest`` is set on the ones a Registry loads.
    """

    unit: PipelineUnit
    gate: threading.Lock | None = None
    running: set[object] = field(default_factory=set, compare=False, repr=False)
    manifest: Manifest | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RegistrySnapshot:
    """Immutable per-epoch view: extension point -> ordered active handlers,
    and unit name -> the BoundUnit those handlers run on.  The registry
    publishes each epoch as one such value, swapped in by one reference."""

    epoch: int
    routes: Mapping[str, tuple[HandlerRef, ...]]
    bound: Mapping[str, BoundUnit]

    def handlers_for(self, extension_point: str) -> tuple[HandlerRef, ...]:
        return self.routes.get(extension_point, ())

    def bound_for(self, extension_point: str) -> list[BoundUnit]:
        """The distinct units the routes of ``extension_point`` run on."""
        return [self.bound[name] for name in {h.unit for h in self.handlers_for(extension_point)}]

    def units(self) -> set[tuple[str, str]]:
        return {(h.unit, h.version) for refs in self.routes.values() for h in refs}


EMPTY_SNAPSHOT = RegistrySnapshot(epoch=0, routes=MappingProxyType({}), bound=MappingProxyType({}))


def order_units(handlers: Iterable[HandlerRef]) -> list[HandlerRef]:
    """Ascending (priority, unit name); handler name breaks ties when one
    unit binds several handlers to the same extension point."""
    return sorted(handlers, key=lambda h: (h.priority, h.unit, h.handler))


@dataclass(frozen=True)
class Discovery:
    """A valid bundle found on disk (or constructed in memory for tests).

    ``source`` is the payload buffer the scan verified against the manifest
    checksum: the only bytes of it that are ever compiled.  ``code``, set by
    a host on the discovery it activates, is the code that host compiled
    from equal bytes at the same path earlier.  Neither takes part in
    equality: the manifest checksum already names the bytes."""

    name: str
    version: str
    manifest: Manifest
    path: Path | None = None
    source: bytes | None = field(default=None, compare=False, repr=False)
    code: CodeType | None = field(default=None, compare=False, repr=False)


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


def read_pin(unit_dir: str | Path) -> str | None:
    """Read the one-line ``pin: <version>`` file of ``unit_dir`` as bytes
    and decode it; None when it is absent, unreadable, not UTF-8 text or
    malformed: such a pin is ignored."""
    try:
        text = _read(f"{os.fspath(unit_dir)}/{PIN_FILENAME}").decode("utf-8")
    except (OSError, UnicodeDecodeError):
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
"""A cached fingerprint is trusted only when the file's or directory's ctime
is at least this much older than the start of the scan that cached it (git's
racy-clean rule).  Timestamps advance once per kernel tick, so a same-size
rewrite, or a directory entry added, within one tick of the previous change
leaves the fingerprint unchanged."""

Fingerprint = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class _CachedListing:
    """What one scan learned by listing a directory: its non-hidden
    subdirectories in name order and the names of all its entries, and the
    directory's stat fingerprint, taken before the listing."""

    directory: Fingerprint
    subdirs: tuple[str, ...]
    names: frozenset[str]


@dataclass(frozen=True)
class _CachedBundle:
    """What one scan learned about a version directory, the stat
    fingerprints (None: no such file) it learned it from, and for a
    discovery the manifest bytes it was parsed from (its payload bytes are
    its ``source``).  ``settled``: both fingerprints were outside the racy
    window of that scan, so an equal fingerprint means equal bytes."""

    manifest: Fingerprint | None
    payload_ref: str | None
    payload: Fingerprint | None
    outcome: Discovery | Reject
    settled: bool
    manifest_bytes: bytes | None


ScanCache = dict[str, "_CachedListing | _CachedBundle"]
"""Path -> what a scan learned there: the listing of the drop directory and
of each unit directory, the examined bundle of each version directory."""


def _stat(path: str) -> os.stat_result | None:
    try:
        return os.stat(path)
    except OSError:
        return None


def _fingerprint(st: os.stat_result | None) -> Fingerprint | None:
    if st is None:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _settled(fp: Fingerprint | None, scan_started_ns: int) -> bool:
    """Whether any later change to what ``fp`` describes must change its
    fingerprint: its ctime is outside the racy window of the scan."""
    return fp is None or fp[4] <= scan_started_ns - RACY_WINDOW_NS  # fp[4] is st_ctime_ns


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _list_dir(path: str, cache: ScanCache, started_ns: int) -> _CachedListing:
    """The listing of directory ``path``, reused from ``cache`` while the
    directory keeps the stat fingerprint it had when it was listed.  Raises
    OSError when the directory cannot be listed."""
    fingerprint = _fingerprint(os.stat(path))
    cached = cache.get(path)
    if isinstance(cached, _CachedListing) and cached.directory == fingerprint:
        return cached
    names: list[str] = []
    subdirs: list[str] = []
    trusted = _settled(fingerprint, started_ns)
    with os.scandir(path) as entries:
        for entry in entries:
            names.append(entry.name)
            try:
                if entry.is_symlink():
                    trusted = False  # its target can change without touching this directory
                if not entry.name.startswith(".") and entry.is_dir():
                    subdirs.append(entry.name)
            except OSError:
                trusted = False
    subdirs.sort()
    listing = _CachedListing(fingerprint, tuple(subdirs), frozenset(names))
    if trusted:
        cache[path] = listing
    else:
        cache.pop(path, None)
    return listing


def _examine(
    unit_name: str,
    path: str,
    version: str,
    manifest_st: os.stat_result | None,
    known: _CachedBundle | None,
    scan_started_ns: int,
) -> _CachedBundle:
    """Read the version directory ``path``.  When both files hold the bytes
    ``known``'s discovery was learned from, that very discovery is kept;
    otherwise they are parsed and verified.  A reject from a read that
    failed on a file that is there is never settled: the failure may be
    transient, so the next scan reads again."""
    manifest_fp = _fingerprint(manifest_st)

    def learned(outcome, payload_ref=None, payload_fp=None, raw=None, transient=False) -> _CachedBundle:
        settled = not transient and all(_settled(fp, scan_started_ns) for fp in (manifest_fp, payload_fp))
        return _CachedBundle(manifest_fp, payload_ref, payload_fp, outcome, settled, raw)

    def rejected(code: str, detail: str, payload_ref=None, payload_fp=None, transient=False) -> _CachedBundle:
        return learned(Reject(path, code, detail), payload_ref, payload_fp, transient=transient)

    if manifest_st is None or not stat.S_ISREG(manifest_st.st_mode):
        return rejected("missing-manifest", f"no {MANIFEST_FILENAME}")
    try:
        raw = _read(f"{path}/{MANIFEST_FILENAME}")
    except OSError as exc:
        return rejected("unreadable", f"cannot read {MANIFEST_FILENAME}: {exc.strerror}", transient=True)
    reuse = known is not None and known.manifest_bytes == raw
    if reuse:
        manifest = known.outcome.manifest
    else:
        try:
            manifest = parse_manifest(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            return rejected("bad-manifest", f"not UTF-8 text at byte {exc.start}")
        except ManifestError as exc:
            return rejected("bad-manifest", str(exc))
        if manifest.name != unit_name or manifest.version != version:
            return rejected(
                "name-version-mismatch",
                f"directory says {unit_name}/{version}, "
                f"manifest says {manifest.name}/{manifest.version}",
            )
    payload_path = f"{path}/{manifest.payload_ref}"
    payload_fp = _fingerprint(_stat(payload_path))
    try:
        payload = _read(payload_path)
    except OSError:
        return rejected(
            "missing-payload", f"cannot read {manifest.payload_ref}", manifest.payload_ref, payload_fp,
            transient=payload_fp is not None,
        )
    if reuse and payload == known.outcome.source:
        return learned(known.outcome, manifest.payload_ref, payload_fp, raw)
    try:
        verify_payload(manifest, payload)
    except ChecksumMismatch as exc:
        return rejected("checksum-mismatch", str(exc), manifest.payload_ref, payload_fp)
    discovery = Discovery(manifest.name, manifest.version, manifest, Path(path), source=payload)
    return learned(discovery, manifest.payload_ref, payload_fp, raw)


def _unchanged(cached: _CachedBundle | None, version_path: str, manifest_fp: Fingerprint | None) -> bool:
    """Whether ``cached`` is settled and its files keep their fingerprints."""
    if cached is None or not cached.settled or cached.manifest != manifest_fp:
        return False
    if cached.payload_ref is None:
        return True
    return _fingerprint(_stat(f"{version_path}/{cached.payload_ref}")) == cached.payload


def scan(
    drop_dir: Path,
    diag: Callable[[str], None] | None = None,
    cache: ScanCache | None = None,
) -> ScanResult:
    """Discover valid bundles under the drop folder.

    Never raises on a malformed bundle: every invalid or unreadable one lands
    in rejects with a reason code.  Only an unreadable drop dir is an error.

    ``cache`` is what earlier scans learned, kept by the caller from one
    scan to the next; without one, the scan starts from an empty cache and
    reads everything.  A directory whose stat fingerprint is the one seen
    when it was last listed is not listed again, and a version directory
    whose manifest and payload have the settled fingerprints seen before
    reuses its earlier discovery or reject without reading, parsing or
    hashing.  An unchanged tree thus costs one ``stat`` per directory and
    two per version; a ``pin`` file is still read on every scan, since
    rewriting it in place leaves its directory as it was.  Any other version
    directory is read again; when both its files hold the bytes of its
    cached discovery, that same Discovery object is returned without parsing
    or hashing, so equal bytes yield an identical result.  Entries of paths
    that are gone are dropped from the cache.
    """
    if cache is None:
        cache = {}
    base = os.fspath(Path(drop_dir))
    started_ns = time.time_ns()
    try:
        unit_names = _list_dir(base, cache, started_ns).subdirs
    except OSError:
        raise DropDirUnreadable(Path(drop_dir)) from None
    prefix = "" if base == "." else os.path.join(base, "")
    seen = {base}
    result = ScanResult()

    def reject(found: Reject) -> None:
        result.rejects.append(found)
        if diag is not None:
            diag(f"REJECT {found.path} {found.code} {found.detail}")

    for unit_name in unit_names:
        unit_path = prefix + unit_name
        try:
            listing = _list_dir(unit_path, cache, started_ns)
        except OSError as exc:
            reject(Reject(unit_path, "unreadable", f"cannot list unit directory: {exc.strerror}"))
            continue
        seen.add(unit_path)
        if DISABLED_FILENAME in listing.names:
            result.disabled.add(unit_name)
        if PIN_FILENAME in listing.names:
            pin = read_pin(unit_path)
            if pin is not None:
                result.pins[unit_name] = pin
        for version in listing.subdirs:
            path = f"{unit_path}/{version}"
            manifest_st = _stat(f"{path}/{MANIFEST_FILENAME}")
            cached = cache.get(path)  # a version directory's path holds only a _CachedBundle
            if not _unchanged(cached, path, _fingerprint(manifest_st)):
                cached = _examine(unit_name, path, version, manifest_st, cached, started_ns)
                if cached.settled or isinstance(cached.outcome, Discovery):
                    cache[path] = cached  # an unsettled discovery is kept for its bytes
                else:
                    cache.pop(path, None)
            seen.add(path)
            if isinstance(cached.outcome, Reject):
                reject(cached.outcome)
            else:
                result.discoveries.append(cached.outcome)
    for gone in cache.keys() - seen:
        del cache[gone]
    return result


def resolve_active(name: str, versions: Iterable[str], pin: str | None = None) -> str:
    """Pick the version to activate: ``pin`` (the version a unit's ``pin``
    file names, as ``read_pin`` returns it) when set, else the highest.
    Raises PinMissing when the pinned version is not among ``versions``."""
    available = list(versions)
    if not available:
        raise RegistryError(f"no versions available for {name}")
    if pin is not None:
        if pin not in available:
            raise PinMissing(name, pin)
        return pin
    return max(available, key=parse_version)


def previous_version(name: str, current: str, versions: Iterable[str]) -> str:
    """The version a rollback of ``name`` from ``current`` goes to: the
    highest of ``versions`` below it.  Raises NoPriorVersion."""
    below = parse_version(current)
    older = [v for v in versions if parse_version(v) < below]
    if not older:
        raise NoPriorVersion(name)
    return max(older, key=parse_version)


@dataclass
class _Version:
    """The facts about one unit@version that only the registry knows: the
    checksum of the bytes it last tried to load, why that load failed (None
    when it did not), and the calls dispatches counted for it (calls,
    errors, total µs).  Whether it is Active or Draining is not kept here:
    the snapshot and ``_draining`` say so."""

    checksum: str
    failure: str | None = None
    calls: int = 0
    errors: int = 0
    total_us: int = 0


UnitFactory = Callable[[Discovery, HostContext], PipelineUnit]
ContextFactory = Callable[[str], HostContext]


def _default_context_factory(name: str) -> HostContext:
    return HostContext(host_version=HOST_VERSION, unit_name=name)


class Registry:
    """Single-writer unit registry producing immutable epoch snapshots.

    All mutations must come from one coordinator sequence.  The current
    snapshot is the only record of what is active: its ``bound`` map holds
    the one BoundUnit of each active unit@version.  Readers may grab
    ``snapshot`` at any time; ``hold`` also registers a holder, under the
    lock each new snapshot is swapped in under.

    A version's lifecycle state is derived, never stored: Active from the
    snapshot, Draining from ``_draining``, and Failed or Retired from the
    ``_Version`` facts the registry keeps for each version it has
    tried to load, until ``forget`` drops them.

    The registry keeps no pins and has no rollback of its own: a rollback
    is a ``pin`` file, and the caller activates the version it resolves to.
    """

    def __init__(
        self,
        unit_factory: UnitFactory,
        *,
        context_factory: ContextFactory | None = None,
        diag: Callable[[str], None] | None = None,
    ):
        self._unit_factory = unit_factory
        self._context_factory = context_factory or _default_context_factory
        self._diag = diag
        self._versions: dict[tuple[str, str], _Version] = {}
        self._draining: dict[tuple[str, str], BoundUnit] = {}
        self._snapshot = EMPTY_SNAPSHOT
        self._publish_lock = threading.Lock()

    @property
    def snapshot(self) -> RegistrySnapshot:
        return self._snapshot

    def hold(self, extension_point: str, token: object) -> RegistrySnapshot:
        """The current snapshot, with ``token`` added to the holders of each
        unit it routes ``extension_point`` to.  Taken under the lock that
        ``_commit`` swaps the snapshot under: once a version is out of the
        published snapshot no holder can join it, so a retire sees them all."""
        with self._publish_lock:
            snapshot = self._snapshot
            for bound in snapshot.bound_for(extension_point):
                bound.running.add(token)
        return snapshot

    def active_version(self, name: str) -> str | None:
        entry = self._snapshot.bound.get(name)
        return entry.manifest.version if entry else None

    def active_entries(self) -> dict[str, BoundUnit]:
        return dict(self._snapshot.bound)

    def record_state(self, name: str, version: str) -> UnitState | None:
        """The state of ``name``@``version``: Active while the snapshot binds
        it, Draining while ``_draining`` holds it; otherwise Failed when its
        last load failed, else Retired.  None for a version the registry
        never tried to load, or has forgotten."""
        if self.active_version(name) == version:
            return UnitState.ACTIVE
        if (name, version) in self._draining:
            return UnitState.DRAINING
        facts = self._versions.get((name, version))
        if facts is None:
            return None
        return UnitState.FAILED if facts.failure is not None else UnitState.RETIRED

    def failed(self, discovery: Discovery) -> bool:
        """Whether the load of these very bytes of ``discovery`` failed.  Such
        a version is never retried: only new bytes (a new checksum), or its
        bundle leaving the disk until ``forget`` drops it, allow another try."""
        facts = self._versions.get((discovery.name, discovery.version))
        if facts is None or facts.failure is None:
            return False
        return facts.checksum == discovery.manifest.checksum

    def forget(self, on_disk: set[tuple[str, str]]) -> None:
        """Drop the facts of every version that is neither among ``on_disk``
        (the (name, version) of each bundle on disk), Active nor Draining.
        Its state reads None again, its call counts go, and a redeploy of the
        same bytes loads afresh.  Coordinator only, like every mutation."""
        for key in [key for key in self._versions if key not in on_disk]:
            if self.record_state(*key) not in (UnitState.ACTIVE, UnitState.DRAINING):
                del self._versions[key]

    def count_calls(self, trace: Iterable[ExecutionRecord]) -> None:
        """Add one dispatch's execution records to their versions' call
        counts, under one lock.  A version a dispatch ran is held by it, so
        it is Active or Draining and never forgotten meanwhile."""
        with self._publish_lock:
            for record in trace:
                facts = self._versions.get((record.unit, record.version))
                if facts is not None:
                    facts.calls += 1
                    if record.outcome is Outcome.ERROR:
                        facts.errors += 1
                    facts.total_us += record.duration_us

    def versions(self) -> list[tuple[str, str, UnitState, int, int, int]]:
        """``(name, version, state, calls, errors, total_us)`` for every
        version the registry knows, by name and then by version number.
        Read it from the coordinator sequence, so no mutation runs meanwhile;
        the counts are read under the lock ``count_calls`` adds them under."""
        with self._publish_lock:
            return [
                (name, version, self.record_state(name, version), f.calls, f.errors, f.total_us)
                for (name, version), f in sorted(
                    self._versions.items(), key=lambda kv: (kv[0][0], parse_version(kv[0][1]))
                )
            ]

    def _commit(
        self, name: str, old: Manifest | None, entry: BoundUnit | None, reason: str
    ) -> RegistrySnapshot:
        """Publish the next epoch with ``name``'s routes moved from manifest
        ``old`` to ``entry``'s, and ``name`` bound to ``entry`` (either may be
        None).  Only the extension points they bind are rebuilt; every other
        route and BoundUnit is kept as is.  The EPOCH line is written
        once the epoch is live."""
        new = entry.manifest if entry is not None else None
        added: dict[str, list[HandlerRef]] = {}
        if new is not None:
            for b in new.bindings:
                added.setdefault(b.extension_point, []).append(
                    HandlerRef(name, new.version, b.handler, new.priority, new.reentrant)
                )
        touched = {b.extension_point for m in (old, new) if m is not None for b in m.bindings}
        routes = dict(self._snapshot.routes)
        for ep in touched:
            refs = [h for h in routes.get(ep, ()) if h.unit != name] + added.get(ep, [])
            if refs:
                routes[ep] = tuple(order_units(refs))
            else:
                routes.pop(ep, None)
        bound = dict(self._snapshot.bound)
        if entry is None:
            bound.pop(name, None)
        else:
            bound[name] = entry
        snapshot = RegistrySnapshot(
            self._snapshot.epoch + 1, MappingProxyType(routes), MappingProxyType(bound)
        )
        with self._publish_lock:
            self._snapshot = snapshot
        if self._diag is not None:
            self._diag(f"EPOCH {snapshot.epoch} {reason}")
        return snapshot

    # -- operations ------------------------------------------------------

    def activate(self, discovery: Discovery) -> RegistrySnapshot:
        """Load and activate a version; one new epoch.

        If another version of the unit is active it starts Draining and is
        absent from the new snapshot.  A version that is Active or Draining,
        or whose load failed on these same bytes, is refused.  A load
        failure marks the version Failed and leaves the snapshot unchanged.
        A payload unit is built from the bytes the scan verified
        (``Discovery.source``), so a payload file rewritten or deleted since
        is never read.
        """
        name, version = discovery.name, discovery.version
        if self.failed(discovery):
            raise LoadFailed(name, f"version {version} previously failed")
        state = self.record_state(name, version)
        if state in (UnitState.ACTIVE, UnitState.DRAINING):
            raise LoadFailed(name, f"version {version} is {state.value}")
        facts = self._versions.setdefault((name, version), _Version(discovery.manifest.checksum))
        facts.checksum, facts.failure = discovery.manifest.checksum, None

        try:
            context = self._context_factory(name)
            unit = self._unit_factory(discovery, context)
            report = unit.load(context)
        except (Exception, SystemExit) as exc:  # sys.exit() in the module body or load() too
            facts.failure = f"{type(exc).__name__}: {exc}"
            raise LoadFailed(name, facts.failure) from exc
        if isinstance(report, LoadReport) and not report.ok:
            facts.failure = report.message or "load reported failure"
            raise LoadFailed(name, facts.failure)

        previous = self._snapshot.bound.get(name)
        old = previous.manifest if previous is not None else None
        if previous is not None:
            self._draining[(name, old.version)] = previous
        entry = BoundUnit(
            unit=unit,
            gate=None if discovery.manifest.reentrant else threading.Lock(),
            manifest=discovery.manifest,
        )
        return self._commit(name, old, entry, f"activate {name}@{version}")

    def deactivate(self, name: str) -> RegistrySnapshot:
        """Remove the unit from the routes; its version drains until retired."""
        entry = self._snapshot.bound.get(name)
        if entry is None:
            raise NotActive(name)
        version = entry.manifest.version
        self._draining[(name, version)] = entry
        return self._commit(name, entry.manifest, None, f"deactivate {name}@{version}")

    def retire_if_drained(self, name: str, version: str) -> bool:
        """Finish draining a version nothing holds any more: it is Retired
        and its unload() is called once.  False while it still has holders."""
        entry = self._draining.get((name, version))
        if entry is None or entry.running:
            return False
        del self._draining[(name, version)]
        unload = getattr(entry.unit, "unload", None)
        if callable(unload):
            try:
                unload()
            except (Exception, SystemExit) as exc:  # sys.exit() in unload() too
                if self._diag is not None:
                    self._diag(f"ERROR unload {name}@{version} failed: {type(exc).__name__}: {exc}")
        return True

    def retire_drained(self) -> None:
        """Retire every draining version that nothing holds any more."""
        for name, version in sorted(self._draining):
            self.retire_if_drained(name, version)
