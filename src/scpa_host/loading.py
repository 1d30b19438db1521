"""Dynamic loading of unit payload modules into isolated runtime contexts.

A payload is a single Python source file.  Handler symbols named by the
manifest bindings are module-level callables ``handler(payload, context)``
returning the new payload mapping; an optional ``<handler>_next(payload,
context)`` hook returns ``"continue"``, ``"stop"``, or ``"divert:<unit>"``.
An optional module-level ``load(context)`` runs once at activation and an
optional ``unload()`` runs after draining.
"""

from __future__ import annotations

import itertools
import threading
from pathlib import Path
from types import ModuleType

from .contract import (
    ChainDirective,
    Continue,
    Divert,
    Envelope,
    HostContext,
    LoadReport,
    Manifest,
    Stop,
    UnitExecutionError,
    parse_directive,
    verify_payload,
)
from .registry import Discovery

_module_serial = itertools.count(1)
_load_lock = threading.Lock()


class PayloadError(Exception):
    pass


def load_payload_module(
    path: Path, unit_name: str, version: str, source: bytes | None = None
) -> ModuleType:
    """Execute payload source as a private module, fresh per activation.

    ``source`` is the payload's bytes as the caller read and verified them;
    without it the file at ``path`` is read.  Exactly those bytes are
    compiled: no ``__pycache__`` is written, and no ``.pyc`` beside the file
    is run in their place.  The module gets a unique synthetic name and is
    never registered in sys.modules, so two units (or two versions of one
    unit) defining the same symbols cannot collide.
    """
    if source is None:
        source = Path(path).read_bytes()
    with _load_lock:
        serial = next(_module_serial)
    module = ModuleType(f"_scpa_payload_{unit_name.replace('-', '_')}_{serial}")
    module.__file__ = str(path)
    exec(compile(source, str(path), "exec", dont_inherit=True), module.__dict__)
    return module


class PayloadUnit:
    """Adapts a payload module to the Load/Execute/Next contract."""

    def __init__(self, manifest: Manifest, module: ModuleType, context: HostContext):
        self._manifest = manifest
        self._module = module
        self._context = context
        self._handlers = {b.extension_point: b.handler for b in manifest.bindings}

    def load(self, context: HostContext) -> LoadReport:
        hook = getattr(self._module, "load", None)
        if hook is None:
            return LoadReport(ok=True)
        result = hook(context)
        if result is None:
            return LoadReport(ok=True)
        if isinstance(result, LoadReport):
            return result
        if isinstance(result, bool):
            return LoadReport(ok=result)
        return LoadReport(ok=False, message=f"load returned {result!r}")

    def _handler_for(self, envelope: Envelope):
        handler_name = self._handlers.get(envelope.extension_point)
        if handler_name is None:
            raise UnitExecutionError(
                f"{self._manifest.name} is not bound to {envelope.extension_point}"
            )
        fn = getattr(self._module, handler_name, None)
        if not callable(fn):
            raise UnitExecutionError(
                f"payload of {self._manifest.name} does not define handler {handler_name}"
            )
        return handler_name, fn

    def execute(self, envelope: Envelope) -> Envelope:
        _, fn = self._handler_for(envelope)
        result = fn(envelope.payload, self._context)
        if not isinstance(result, dict):
            raise UnitExecutionError(
                f"handler returned {type(result).__name__}, expected a payload mapping"
            )
        return envelope.with_payload(result)

    def next(self, envelope: Envelope) -> ChainDirective:
        handler_name, _ = self._handler_for(envelope)
        hook = getattr(self._module, f"{handler_name}_next", None)
        if hook is None:
            return Continue()
        raw = hook(envelope.payload, self._context)
        if isinstance(raw, (Continue, Stop, Divert)):
            return raw
        if isinstance(raw, str):
            return parse_directive(raw)
        raise UnitExecutionError(f"next hook returned {raw!r}, expected a directive")

    def unload(self) -> None:
        hook = getattr(self._module, "unload", None)
        if callable(hook):
            hook()


def payload_unit_factory(discovery: Discovery, context: HostContext) -> PayloadUnit:
    """Registry unit factory backed by on-disk payload modules.

    The payload is read once and checked against the manifest checksum
    again: the scan that verified it may be many ticks old.  Raises
    ChecksumMismatch when the bytes changed since.
    """
    if discovery.path is None:
        raise PayloadError(f"discovery of {discovery.name} has no on-disk bundle")
    payload_path = Path(discovery.path) / discovery.manifest.payload_ref
    source = payload_path.read_bytes()
    verify_payload(discovery.manifest, source)
    module = load_payload_module(payload_path, discovery.name, discovery.version, source)
    return PayloadUnit(discovery.manifest, module, context)
