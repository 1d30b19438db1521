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
from types import CodeType, ModuleType

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
)
from .registry import Discovery

_module_serial = itertools.count(1)
_load_lock = threading.Lock()


class PayloadError(Exception):
    pass


def compile_payload(path: Path, source: bytes) -> CodeType:
    """Compile exactly ``source`` as the payload at ``path``.

    No ``__pycache__`` is written, and no ``.pyc`` beside the file is run in
    place of the bytes given."""
    return compile(source, str(path), "exec", dont_inherit=True)


def load_payload_module(path: Path, unit_name: str, code: CodeType) -> ModuleType:
    """Execute payload ``code`` as a private module, fresh per activation.

    ``code`` must be compiled from bytes verified against the manifest
    checksum; ``path`` only names the module's file, which is never read
    here.  The module gets a unique synthetic name and is never registered
    in sys.modules, so two units (or two versions of one unit) defining the
    same symbols cannot collide.
    """
    with _load_lock:
        serial = next(_module_serial)
    module = ModuleType(f"_scpa_payload_{unit_name.replace('-', '_')}_{serial}")
    module.__file__ = str(path)
    exec(code, module.__dict__)
    return module


class PayloadUnit:
    """Adapts a payload module to the Load/Execute/Next contract."""

    def __init__(
        self,
        manifest: Manifest,
        module: ModuleType,
        context: HostContext,
        code: CodeType | None = None,
    ):
        self._manifest = manifest
        self._module = module
        self._context = context
        self.code = code
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
    """Registry unit factory backed by scanned payload modules.

    Runs the discovery's ``code`` when its host stored one, else compiles
    its ``source``: the bytes the scan verified against the manifest
    checksum.  No file is read and nothing is hashed here, so the bytes
    that run are the bytes that were verified, whatever the file holds now.
    Raises PayloadError for a discovery with no scanned bundle.
    """
    if discovery.path is None or discovery.source is None:
        raise PayloadError(f"discovery of {discovery.name} has no scanned bundle")
    payload_path = Path(discovery.path) / discovery.manifest.payload_ref
    code = discovery.code or compile_payload(payload_path, discovery.source)
    module = load_payload_module(payload_path, discovery.name, code)
    return PayloadUnit(discovery.manifest, module, context, code)
