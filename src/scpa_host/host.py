"""Long-running host runtime: drop-folder watcher, epoch-based hot swap with
draining, concurrent dispatch against pinned snapshots, and per-unit stats.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, TextIO

from .chain import BoundUnit, ChainError, DEFAULT_TIMEOUT_MS, ErrorPolicy, run_chain
from .contract import (
    HOST_VERSION,
    ExecutionRecord,
    HostContext,
    Outcome,
    make_envelope,
)
from .diagnostics import DiagnosticLog
from .loading import payload_unit_factory
from .registry import (
    Discovery,
    DropDirUnreadable,
    EMPTY_SNAPSHOT,
    FilePinStore,
    LoadFailed,
    PayloadChanged,
    PinMissing,
    Registry,
    RegistrySnapshot,
    Reject,
    ScanCache,
    UnitState,
    VersionPin,
    resolve_active,
    scan,
)

DEFAULT_SCAN_INTERVAL_MS = 1000
MIN_SCAN_INTERVAL_MS = 10
MIN_TIMEOUT_MS = 1


class HostConfigError(ValueError):
    pass


@dataclass
class HostConfig:
    drop_dir: Path
    scan_interval_ms: int = DEFAULT_SCAN_INTERVAL_MS
    error_policy: ErrorPolicy = ErrorPolicy.FAIL_CLOSED
    unit_timeout_ms: int = DEFAULT_TIMEOUT_MS
    diagnostics: TextIO | None = None

    def __post_init__(self):
        self.drop_dir = Path(self.drop_dir)
        if self.scan_interval_ms < MIN_SCAN_INTERVAL_MS:
            raise HostConfigError(f"scan interval must be >= {MIN_SCAN_INTERVAL_MS} ms")
        if self.unit_timeout_ms < MIN_TIMEOUT_MS:
            raise HostConfigError(f"unit timeout must be >= {MIN_TIMEOUT_MS} ms")


_POLICY_NAMES = {
    "fail_open": ErrorPolicy.FAIL_OPEN,
    "fail_closed": ErrorPolicy.FAIL_CLOSED,
}


def load_host_config(path: Path, drop_dir: Path | None = None) -> HostConfig:
    """Parse a ``key: value`` config file mirroring the HostConfig fields."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise HostConfigError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        values[key.strip()] = value.strip()

    kwargs: dict[str, Any] = {}
    if "drop_dir" in values:
        kwargs["drop_dir"] = Path(values["drop_dir"])
    if drop_dir is not None:
        kwargs["drop_dir"] = Path(drop_dir)
    if "drop_dir" not in kwargs:
        raise HostConfigError("drop_dir is required")
    for key in ("scan_interval_ms", "unit_timeout_ms"):
        if key in values:
            try:
                kwargs[key] = int(values[key], 10)
            except ValueError:
                raise HostConfigError(f"{key}: not an integer") from None
    if "error_policy" in values:
        policy = _POLICY_NAMES.get(values["error_policy"])
        if policy is None:
            raise HostConfigError("error_policy must be fail_open or fail_closed")
        kwargs["error_policy"] = policy
    if "diagnostics" in values and values["diagnostics"] != "stderr":
        try:
            kwargs["diagnostics"] = open(values["diagnostics"], "a", buffering=1, encoding="utf-8")
        except OSError as exc:
            raise HostConfigError(f"diagnostics: cannot open {values['diagnostics']}: {exc}") from None
    return HostConfig(**kwargs)


@dataclass(frozen=True)
class UnitStatusRow:
    name: str
    version: str
    state: str
    dispatches: int
    errors: int
    mean_duration_us: float


@dataclass(frozen=True)
class HostStatus:
    epoch: int
    units: tuple[UnitStatusRow, ...]
    drop_dir: Path
    uptime_seconds: float


@dataclass(frozen=True)
class SwapReport:
    """Epoch delta produced by one watcher tick."""

    start_epoch: int
    end_epoch: int
    activated: tuple[tuple[str, str], ...] = ()
    deactivated: tuple[tuple[str, str], ...] = ()
    rejects: tuple[Reject, ...] = ()

    @property
    def changed(self) -> bool:
        return self.end_epoch != self.start_epoch


@dataclass(frozen=True)
class _World:
    """What one dispatch sees: a snapshot and the instances backing it."""

    snapshot: RegistrySnapshot
    bound: Mapping[str, BoundUnit]


@dataclass
class _UnitStats:
    dispatches: int = 0
    errors: int = 0
    total_us: int = 0


class Host:
    """Ties registry and chain together over one drop folder.

    One coordinator (the watcher tick or explicit calls) owns registry
    mutation; dispatch may be called concurrently from any thread and pins
    one immutable snapshot for its whole run.
    """

    def __init__(self, config: HostConfig):
        self.config = config
        self.diag = DiagnosticLog(config.diagnostics)
        self._registry = Registry(
            payload_unit_factory,
            context_factory=self._make_context,
            pin_store=FilePinStore(config.drop_dir),
            diag=self.diag,
        )
        self._scan_cache: ScanCache = {}
        self._writer_lock = threading.RLock()
        self._gate_lock = threading.Lock()
        self._world = _World(snapshot=EMPTY_SNAPSHOT, bound={})
        self._inflight: dict[tuple[str, str], int] = {}
        self._stats: dict[tuple[str, str], _UnitStats] = {}
        self._stats_lock = threading.Lock()
        self._epoch_listeners: list[Callable[[SwapReport], None]] = []
        self._watcher: threading.Thread | None = None
        self._stop = threading.Event()
        self._started_at = 0.0
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Host":
        """Run the initial scan and activations, then start the watcher."""
        drop = self.config.drop_dir
        if not drop.is_dir():
            raise DropDirUnreadable(drop)
        self._started_at = time.monotonic()
        self._started = True
        self.hot_swap_cycle()
        self._stop.clear()
        self._watcher = threading.Thread(
            target=self._watch_loop, daemon=True, name="scpa-watcher"
        )
        self._watcher.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5)
            self._watcher = None
        self._started = False

    def __enter__(self) -> "Host":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _watch_loop(self) -> None:
        interval = self.config.scan_interval_ms / 1000.0
        while not self._stop.wait(interval):
            try:
                self.hot_swap_cycle()
            except DropDirUnreadable as exc:
                self.diag(f"REJECT {exc.path} drop-dir-unreadable watcher tick skipped")
            except Exception as exc:  # the watcher must outlive any one tick
                self.diag(f"ERROR watcher tick failed: {type(exc).__name__}: {exc}")

    def on_epoch_change(self, listener: Callable[[SwapReport], None]) -> None:
        self._epoch_listeners.append(listener)

    def _make_context(self, unit_name: str) -> HostContext:
        data_dir = self.config.drop_dir / ".scpa" / "data" / unit_name
        data_dir.mkdir(parents=True, exist_ok=True)
        return HostContext(
            host_version=HOST_VERSION,
            unit_name=unit_name,
            config={},
            data_dir=data_dir,
        )

    # -- hot swap ----------------------------------------------------------

    def hot_swap_cycle(self) -> SwapReport:
        """Diff disk state against the registry and apply the difference.

        Deactivations run before activations; each applied operation is one
        epoch.  Per-bundle problems become rejects, never a failed tick.
        """
        with self._writer_lock:
            start_epoch = self._registry.snapshot.epoch
            result = scan(self.config.drop_dir, diag=self.diag, cache=self._scan_cache)
            rejects = list(result.rejects)

            by_name: dict[str, list[Discovery]] = {}
            for discovery in result.discoveries:
                by_name.setdefault(discovery.name, []).append(discovery)

            desired: dict[str, Discovery] = {}
            blocked: set[str] = set()
            for name, discoveries in by_name.items():
                if name in result.disabled:
                    continue
                pin = result.pins.get(name)
                try:
                    version = resolve_active(
                        name,
                        [d.version for d in discoveries],
                        VersionPin(name, pin) if pin else None,
                    )
                except PinMissing as exc:
                    # keep whatever is active rather than guessing a version
                    self.diag(f"REJECT {self.config.drop_dir / name} pin-missing {exc}")
                    blocked.add(name)
                    continue
                desired[name] = next(d for d in discoveries if d.version == version)

            activated: list[tuple[str, str]] = []
            deactivated: list[tuple[str, str]] = []

            for name in sorted(self._registry.active_entries()):
                if name not in desired and name not in blocked:
                    version = self._registry.active_version(name)
                    self._registry.deactivate(name)
                    deactivated.append((name, version or "?"))
                    self._publish_world()

            for name in sorted(desired):
                discovery = desired[name]
                current = self._registry.active_version(name)
                if current == discovery.version:
                    continue
                state = self._registry.record_state(name, discovery.version)
                if state is UnitState.DRAINING:
                    # a rapid flip back to a version still finishing in-flight
                    # work waits for the next tick
                    self.diag(f"REJECT {discovery.path or name} still-draining retry next tick")
                    continue
                if state is UnitState.FAILED:
                    # note_discovery replaces Failed records when the checksum
                    # changed; an unchanged Failed version never auto-retries.
                    self._registry.note_discovery(discovery)
                    if self._registry.record_state(name, discovery.version) is UnitState.FAILED:
                        continue
                try:
                    self._registry.activate(discovery)
                except PayloadChanged as exc:
                    reject = Reject(str(discovery.path), "checksum-mismatch", exc.reason)
                    rejects.append(reject)
                    self.diag(f"REJECT {reject.path} {reject.code} {reject.detail}")
                    continue
                except LoadFailed as exc:
                    self.diag(
                        f"REJECT {discovery.path or name} load-failed {exc.reason}"
                    )
                    continue
                if current is not None:
                    deactivated.append((name, current))
                activated.append((name, discovery.version))
                self._publish_world()

            self._retire_drained()
            report = SwapReport(
                start_epoch=start_epoch,
                end_epoch=self._registry.snapshot.epoch,
                activated=tuple(activated),
                deactivated=tuple(deactivated),
                rejects=tuple(rejects),
            )
        if report.changed:
            for listener in list(self._epoch_listeners):
                try:
                    listener(report)
                except Exception as exc:  # a listener's fault is not the tick's
                    self.diag(f"ERROR epoch listener failed: {type(exc).__name__}: {exc}")
        return report

    def _publish_world(self) -> None:
        bound = {
            name: BoundUnit(unit=entry.unit, gate=entry.gate)
            for name, entry in self._registry.active_entries().items()
        }
        world = _World(snapshot=self._registry.snapshot, bound=bound)
        with self._gate_lock:
            self._world = world

    def _retire_drained(self) -> None:
        for name, version in sorted(self._registry.draining_versions()):
            with self._gate_lock:
                busy = self._inflight.get((name, version), 0) > 0
            if not busy:
                self._registry.retire_if_drained(name, version)

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, extension_point: str, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Run one envelope through the chain for the extension point.

        The dispatch pins the current snapshot: it never observes units from
        two different epochs, even while a hot swap is in progress.
        """
        if not self._started:
            raise RuntimeError("host is not started")
        with self._gate_lock:
            world = self._world
            keys = {(r.unit, r.version) for r in world.snapshot.handlers_for(extension_point)}
            for key in keys:
                self._inflight[key] = self._inflight.get(key, 0) + 1
        try:
            envelope = make_envelope(extension_point, payload, epoch=world.snapshot.epoch)
            try:
                result = run_chain(
                    world.snapshot,
                    extension_point,
                    envelope,
                    self.config.error_policy,
                    units=world.bound,
                    timeout_ms=self.config.unit_timeout_ms,
                    diag=self.diag,
                )
            except ChainError as exc:
                self._record_stats(exc.trace)
                raise
            self._record_stats(result.trace)
            return result.payload
        finally:
            drained: list[tuple[str, str]] = []
            with self._gate_lock:
                for key in keys:
                    remaining = self._inflight.get(key, 1) - 1
                    if remaining <= 0:
                        self._inflight.pop(key, None)
                        drained.append(key)
                    else:
                        self._inflight[key] = remaining
            if drained:
                with self._writer_lock:
                    for name, version in drained:
                        if (name, version) in self._registry.draining_versions():
                            self._registry.retire_if_drained(name, version)

    def _record_stats(self, trace: tuple[ExecutionRecord, ...]) -> None:
        with self._stats_lock:
            for record in trace:
                stats = self._stats.setdefault((record.unit, record.version), _UnitStats())
                stats.dispatches += 1
                if record.outcome is Outcome.ERROR:
                    stats.errors += 1
                stats.total_us += record.duration_us

    # -- reporting -----------------------------------------------------------

    def status(self) -> HostStatus:
        with self._writer_lock:
            snapshot = self._registry.snapshot
            records = self._registry.records()
        with self._stats_lock:
            stats = {
                key: _UnitStats(s.dispatches, s.errors, s.total_us)
                for key, s in self._stats.items()
            }
        rows = []
        for (name, version), (state, _reason) in sorted(records.items()):
            s = stats.get((name, version), _UnitStats())
            mean = (s.total_us / s.dispatches) if s.dispatches else 0.0
            rows.append(
                UnitStatusRow(
                    name=name,
                    version=version,
                    state=state.value,
                    dispatches=s.dispatches,
                    errors=s.errors,
                    mean_duration_us=mean,
                )
            )
        return HostStatus(
            epoch=snapshot.epoch,
            units=tuple(rows),
            drop_dir=self.config.drop_dir,
            uptime_seconds=time.monotonic() - self._started_at if self._started else 0.0,
        )

    @property
    def registry(self) -> Registry:
        return self._registry


def start(config: HostConfig) -> Host:
    """Start a host: initial scan and activations complete before returning."""
    return Host(config).start()
