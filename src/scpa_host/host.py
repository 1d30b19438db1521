"""Long-running host runtime: drop-folder watcher, epoch-based hot swap with
draining, concurrent dispatch against pinned snapshots, and per-unit status.
"""

from __future__ import annotations

import functools
import operator
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Mapping, TextIO

from .chain import ChainError, DEFAULT_TIMEOUT_MS, ErrorPolicy, run_chain
from .contract import (
    EXTENSION_POINT_RE,
    HOST_VERSION,
    Envelope,
    HostContext,
    make_envelope,  # noqa: F401  unused here; the benchmark's tracer rebinds it
    new_envelope_id,
)
from .diagnostics import DiagnosticLog
from .loading import payload_unit_factory
from .registry import (
    Discovery,
    DropDirUnreadable,
    LoadFailed,
    PinMissing,
    Registry,
    Reject,
    ScanCache,
    UnitState,
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
        try:
            kwargs["error_policy"] = ErrorPolicy(values["error_policy"])
        except ValueError:
            raise HostConfigError("error_policy must be fail_open or fail_closed") from None
    config = HostConfig(**kwargs)  # validated before the file is opened, so a reject leaks none
    if "diagnostics" in values and values["diagnostics"] != "stderr":
        try:
            config.diagnostics = open(values["diagnostics"], "a", buffering=1, encoding="utf-8")
        except OSError as exc:
            raise HostConfigError(f"diagnostics: cannot open {values['diagnostics']}: {exc}") from None
    return config


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
class _Resolved:
    """One unit's version choice on a tick, reused on a later tick that scans
    the identical Discovery objects and pin.  Holding the objects keeps
    their identities from passing to new ones.

    ``codes`` is the code this host compiled for the unit's versions on
    disk, keyed by their Discovery (equal for the same unit, version, path
    and manifest checksum): the only code store there is.  A new memo takes
    over the entries of the discoveries it still holds; a unit with no
    version left on disk has no memo, so its code goes too."""

    discoveries: list[Discovery]
    pin: str | None
    choice: Discovery | PinMissing
    codes: dict[Discovery, CodeType]

    def holds_for(self, discoveries: list[Discovery], pin: str | None) -> bool:
        return (
            self.pin == pin
            and len(self.discoveries) == len(discoveries)
            and all(map(operator.is_, self.discoveries, discoveries))
        )


def _unit_context(drop_dir: Path, unit_name: str) -> HostContext:
    """A unit's context, with its data dir under the drop folder.  The
    Registry holds this bound to ``drop_dir`` alone, not to the Host, so a
    stopped Host is freed by reference counting."""
    data_dir = drop_dir / ".scpa" / "data" / unit_name
    data_dir.mkdir(parents=True, exist_ok=True)
    return HostContext(
        host_version=HOST_VERSION,
        unit_name=unit_name,
        config={},
        data_dir=data_dir,
    )


def _resolve(name: str, discoveries: list[Discovery], pin: str | None) -> Discovery | PinMissing:
    try:
        version = resolve_active(name, [d.version for d in discoveries], pin)
    except PinMissing as exc:
        return exc
    return next(d for d in discoveries if d.version == version)


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
            context_factory=functools.partial(_unit_context, config.drop_dir),
            diag=self.diag,
        )
        self._scan_cache: ScanCache = {}
        self._resolved: dict[str, _Resolved] = {}
        self._writer_lock = threading.RLock()
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

    # -- hot swap ----------------------------------------------------------

    def hot_swap_cycle(self) -> SwapReport:
        """Diff disk state against the registry and apply the difference.

        Deactivations run before activations; each applied operation is one
        epoch.  Per-bundle problems become rejects, never a failed tick.
        """
        with self._writer_lock:
            start_epoch = self._registry.snapshot.epoch
            result = scan(self.config.drop_dir, diag=self.diag, cache=self._scan_cache)

            by_name: dict[str, list[Discovery]] = {}
            for discovery in result.discoveries:
                by_name.setdefault(discovery.name, []).append(discovery)

            desired: dict[str, Discovery] = {}
            blocked: set[str] = set()
            resolved: dict[str, _Resolved] = {}
            missed = False
            for name, discoveries in by_name.items():
                pin = result.pins.get(name)
                memo = self._resolved.get(name)
                if memo is None or not memo.holds_for(discoveries, pin):
                    missed = True
                    codes = {d: memo.codes[d] for d in discoveries if d in memo.codes} if memo else {}
                    memo = _Resolved(discoveries, pin, _resolve(name, discoveries, pin), codes)
                resolved[name] = memo
                if name in result.disabled:
                    continue
                choice = memo.choice
                if isinstance(choice, PinMissing):
                    # keep whatever is active rather than guessing a version
                    self.diag(f"REJECT {self.config.drop_dir / name} pin-missing {choice}")
                    blocked.add(name)
                else:
                    desired[name] = choice
            if missed or len(resolved) != len(self._resolved):  # the versions on disk may differ
                self._registry.forget({(d.name, d.version) for d in result.discoveries})
            self._resolved = resolved

            activated: list[tuple[str, str]] = []
            deactivated: list[tuple[str, str]] = []

            for name in sorted(self._registry.snapshot.bound.keys() - desired.keys() - blocked):
                version = self._registry.active_version(name)
                self._registry.deactivate(name)
                deactivated.append((name, version or "?"))

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
                if self._registry.failed(discovery):
                    continue  # never retried on the bytes whose load failed
                codes = resolved[name].codes
                try:
                    self._registry.activate(replace(discovery, code=codes.get(discovery)))
                except LoadFailed as exc:
                    self.diag(
                        f"REJECT {discovery.path or name} load-failed {exc.reason}"
                    )
                    continue
                code = getattr(self._registry.snapshot.bound[name].unit, "code", None)
                if isinstance(code, CodeType):  # after load() succeeded: a failed one stores nothing
                    codes[discovery] = code
                if current is not None:
                    deactivated.append((name, current))
                activated.append((name, discovery.version))

            self._registry.retire_drained()
            report = SwapReport(
                start_epoch=start_epoch,
                end_epoch=self._registry.snapshot.epoch,
                activated=tuple(activated),
                deactivated=tuple(deactivated),
                rejects=tuple(result.rejects),
            )
        if report.changed:
            for listener in list(self._epoch_listeners):
                try:
                    listener(report)
                except Exception as exc:  # a listener's fault is not the tick's
                    self.diag(f"ERROR epoch listener failed: {type(exc).__name__}: {exc}")
        return report

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, extension_point: str, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Run one envelope through the chain for the extension point.

        The dispatch pins the current snapshot: it never observes units from
        two different epochs, even while a hot swap is in progress.  Its
        TRACE lines are written together when it ends, a ChainError
        included.
        """
        if not self._started:
            raise RuntimeError("host is not started")
        if not EXTENSION_POINT_RE.match(extension_point):
            raise ValueError(f"bad extension point {extension_point!r}")
        token = object()
        snapshot = self._registry.hold(extension_point, token)
        lines: list[str] = []
        try:
            # run_chain validates and copies the payload as it crosses in
            envelope = Envelope(
                new_envelope_id(), extension_point, dict(payload), epoch=snapshot.epoch
            )
            try:
                result = run_chain(
                    snapshot,
                    extension_point,
                    envelope,
                    self.config.error_policy,
                    units=snapshot.bound,
                    timeout_ms=self.config.unit_timeout_ms,
                    diag=lines.append,
                )
            except ChainError as exc:
                self._registry.count_calls(exc.trace)
                raise
            self._registry.count_calls(result.trace)
            return result.payload
        finally:
            for bound in snapshot.bound_for(extension_point):
                bound.running.discard(token)
            self.diag(*lines)
            # On every dispatch, not only replaced snapshots: one ending during a
            # tick waits here, so on one CPU the tick runs without a client
            # taking the GIL (skipping it made deploy_churn tick p50s 80-93% slower).
            with self._writer_lock:
                self._registry.retire_drained()

    # -- reporting -----------------------------------------------------------

    def status(self) -> HostStatus:
        """One row per version the registry knows, with the calls dispatches
        counted for it: the versions on disk, Active or Draining.  One whose
        bundle left the disk goes at the next tick that sees the disk change."""
        with self._writer_lock:
            epoch = self._registry.snapshot.epoch
            versions = self._registry.versions()
        rows = []
        for name, version, state, calls, errors, total_us in versions:
            rows.append(
                UnitStatusRow(
                    name=name,
                    version=version,
                    state=state.value,
                    dispatches=calls,
                    errors=errors,
                    mean_duration_us=(total_us / calls) if calls else 0.0,
                )
            )
        return HostStatus(
            epoch=epoch,
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
