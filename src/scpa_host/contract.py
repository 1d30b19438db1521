"""Pipeline-unit contract shared by the whole runtime.

Defines the manifest format and parser, the envelope that flows through a
processing chain, chain directives, and the Load/Execute/Next behavioral
interface every unit implements.  Also provides an in-memory reference unit
used to exercise the chain engine and registry without dynamic loading.
"""

from __future__ import annotations

import hashlib
import logging
import re
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain as concat, repeat
from typing import Any, Callable, Mapping, Protocol, runtime_checkable

logger = logging.getLogger(__name__)

HOST_VERSION = "0.1.0"

NAME_RE = re.compile(r"^[a-z][a-z0-9-]*$")
EXTENSION_POINT_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
HANDLER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
CHECKSUM_RE = re.compile(r"^[0-9a-f]{64}$")
VERSION_RE = re.compile(r"^(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)$")

MIN_PRIORITY = 0
MAX_PRIORITY = 10000

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

MANIFEST_FILENAME = "manifest.scpa"

_SCALAR_KEYS = (
    "name",
    "version",
    "priority",
    "reentrant",
    "payload_ref",
    "checksum",
    "description",
)
_REQUIRED_KEYS = ("name", "version", "priority", "reentrant", "payload_ref", "checksum")


class ManifestError(ValueError):
    """Base class for manifest parse/validation failures."""


class MissingField(ManifestError):
    def __init__(self, key: str):
        super().__init__(f"missing required field: {key}")
        self.key = key


class BadValue(ManifestError):
    def __init__(self, key: str, reason: str):
        super().__init__(f"bad value for {key}: {reason}")
        self.key = key
        self.reason = reason


class DuplicateBinding(ManifestError):
    def __init__(self, layer: str, extension_point: str):
        super().__init__(f"duplicate binding for ({layer}, {extension_point})")
        self.layer = layer
        self.extension_point = extension_point


class ChecksumMismatch(Exception):
    def __init__(self, expected: str, actual: str):
        super().__init__(f"payload checksum mismatch: expected {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


class ValueMapError(ValueError):
    """Raised when a payload does not fit the value-map data model."""


class UnitExecutionError(Exception):
    """Deliberate failure signalled by a unit's execute handler."""


def parse_version(text: str) -> tuple[int, int, int]:
    """Parse a semantic version triple into a comparable tuple."""
    m = VERSION_RE.match(text)
    if not m:
        raise ValueError(f"not a semantic version: {text!r}")
    return (int(m.group(1)), int(m.group(2)), int(m.group(3)))


class Layer(str, Enum):
    UI = "ui"
    BUSINESS = "business"
    DATA = "data"


@dataclass(frozen=True)
class LayerBinding:
    """Binds one handler symbol of a unit into one extension point of a layer."""

    layer: Layer
    extension_point: str
    handler: str

    def __post_init__(self):
        if not isinstance(self.layer, Layer):
            try:
                object.__setattr__(self, "layer", Layer(self.layer))
            except ValueError:
                raise BadValue("binding", f"unknown layer {self.layer!r}") from None
        if not EXTENSION_POINT_RE.match(self.extension_point):
            raise BadValue("binding", f"bad extension point {self.extension_point!r}")
        if not HANDLER_RE.match(self.handler):
            raise BadValue("binding", f"bad handler name {self.handler!r}")


@dataclass(frozen=True)
class Manifest:
    """Declarative description of a deployable pipeline unit."""

    name: str
    version: str
    priority: int
    reentrant: bool
    bindings: tuple[LayerBinding, ...]
    payload_ref: str
    checksum: str
    description: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "bindings", tuple(self.bindings))
        if not NAME_RE.match(self.name) or not (1 <= len(self.name) <= 64):
            raise BadValue("name", f"{self.name!r} must match [a-z][a-z0-9-]* (1-64 chars)")
        try:
            parse_version(self.version)
        except ValueError:
            raise BadValue("version", f"{self.version!r} is not major.minor.patch") from None
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise BadValue("priority", "not an integer")
        if not MIN_PRIORITY <= self.priority <= MAX_PRIORITY:
            raise BadValue("priority", f"{self.priority} outside {MIN_PRIORITY}..{MAX_PRIORITY}")
        if not isinstance(self.reentrant, bool):
            raise BadValue("reentrant", "must be true or false")
        if not self.bindings:
            raise MissingField("binding")
        seen: set[tuple[Layer, str]] = set()
        for b in self.bindings:
            key = (b.layer, b.extension_point)
            if key in seen:
                raise DuplicateBinding(b.layer.value, b.extension_point)
            seen.add(key)
        _validate_payload_ref(self.payload_ref)
        if not CHECKSUM_RE.match(self.checksum):
            raise BadValue("checksum", "must be 64 lowercase hex characters")
        if self.description is not None and (
            "\n" in self.description or "\r" in self.description
        ):
            raise BadValue("description", "must be a single line")


def _validate_payload_ref(ref: str) -> None:
    if not ref or ref != ref.strip():
        raise BadValue("payload_ref", "must be a non-empty relative path")
    if ref.startswith("/") or "\\" in ref:
        raise BadValue("payload_ref", "must be a relative forward-slash path")
    parts = ref.split("/")
    if any(p in ("", ".", "..") for p in parts):
        raise BadValue("payload_ref", f"bad path component in {ref!r}")


def parse_manifest(
    text: str, on_warning: Callable[[str], None] | None = None
) -> Manifest:
    """Parse manifest text (one ``key: value`` per line) into a Manifest.

    Unknown keys are ignored with a warning for forward compatibility.
    Raises MissingField, BadValue, or DuplicateBinding on invalid input.
    """
    warn = on_warning if on_warning is not None else logger.warning
    scalars: dict[str, str] = {}
    bindings: list[LayerBinding] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise BadValue("line", f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "binding":
            tokens = value.split()
            if len(tokens) != 3:
                raise BadValue("binding", f"line {lineno}: expected '<layer> <extension_point> <handler>'")
            binding = LayerBinding(tokens[0], tokens[1], tokens[2])
            for b in bindings:
                if (b.layer, b.extension_point) == (binding.layer, binding.extension_point):
                    raise DuplicateBinding(binding.layer.value, binding.extension_point)
            bindings.append(binding)
        elif key in _SCALAR_KEYS:
            if key in scalars:
                raise BadValue(key, "duplicate key")
            scalars[key] = value
        else:
            warn(f"ignoring unknown manifest key {key!r} (line {lineno})")

    for key in _REQUIRED_KEYS:
        if key not in scalars:
            raise MissingField(key)
    if not bindings:
        raise MissingField("binding")

    try:
        priority = int(scalars["priority"], 10)
    except ValueError:
        raise BadValue("priority", f"{scalars['priority']!r} is not an integer") from None
    if scalars["reentrant"] == "true":
        reentrant = True
    elif scalars["reentrant"] == "false":
        reentrant = False
    else:
        raise BadValue("reentrant", f"{scalars['reentrant']!r} is not 'true' or 'false'")

    description = scalars.get("description")
    if description == "":
        description = None

    return Manifest(
        name=scalars["name"],
        version=scalars["version"],
        priority=priority,
        reentrant=reentrant,
        bindings=tuple(bindings),
        payload_ref=scalars["payload_ref"],
        checksum=scalars["checksum"],
        description=description,
    )


def serialize_manifest(manifest: Manifest) -> str:
    """Render a Manifest back to its canonical text form."""
    lines = [
        f"name: {manifest.name}",
        f"version: {manifest.version}",
        f"priority: {manifest.priority}",
        f"reentrant: {'true' if manifest.reentrant else 'false'}",
        f"payload_ref: {manifest.payload_ref}",
        f"checksum: {manifest.checksum}",
    ]
    if manifest.description is not None:
        lines.append(f"description: {manifest.description}")
    for b in manifest.bindings:
        lines.append(f"binding: {b.layer.value} {b.extension_point} {b.handler}")
    return "\n".join(lines) + "\n"


def payload_checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def verify_payload(manifest: Manifest, payload: bytes) -> None:
    """Check payload bytes against the manifest checksum; raise ChecksumMismatch."""
    actual = payload_checksum(payload)
    if actual != manifest.checksum:
        raise ChecksumMismatch(expected=manifest.checksum, actual=actual)


# --- value maps -----------------------------------------------------------

def copy_value_map(value: Any, path: str = "payload", *, twin: bool = False) -> Any:
    """Validate the payload data model and return a fresh copy in one pass.

    The data model is text, int64, float, bool, bytes, lists, and nested maps
    with non-empty text keys.  Scalars are immutable and kept as they are;
    every map and list is rebuilt as a plain ``dict`` or ``list``.  A
    container reached twice is copied once and stays shared in the copy, so
    the cost is linear in the number of distinct containers.  Only finished
    copies are remembered: a cycle recurses until ``RecursionError``.

    With ``twin`` the same walk returns a pair of copies that share no list
    or map with each other or with ``value``.
    """
    if not isinstance(value, dict):
        raise ValueMapError(f"{path}: expected a mapping, got {type(value).__name__}")
    try:
        return _copy_map(value, {}, twin)
    except _Invalid as bad:
        raise ValueMapError(f"{path}{''.join(reversed(bad.where))}: {bad.message}") from None


def validate_value_map(value: Any, path: str = "payload") -> None:
    """Raise ValueMapError unless ``value`` fits the value-map data model."""
    copy_value_map(value, path)


class _Invalid(Exception):
    """A rule broken inside a value map; ``where`` collects the path
    segments, innermost first, as the walk unwinds."""

    def __init__(self, message: str):
        self.message = message
        self.where: list[str] = []


_KEEP = frozenset((str, float, bool, bytes))  # exact scalar types, always valid
_FLAT = _KEEP | {int}  # exact scalar types, valid once ints are range-checked
_TEXT = frozenset((str,))

# Exact ``dict``/``list`` containers with at least this many items take the
# C-speed path when flat: a list of scalars, a map of scalars, or a list of
# maps of scalars (rows).  Measured on CPython 3.11, the path copies rows in
# 0.5-0.8 of the item walk's time from about 32 items on, and lists and maps
# of text from about 128; below that its fixed cost outweighs the saving.
FAST_COPY_MIN = 128


def _copy_map(src: dict, memo: dict[int, Any], twin: bool) -> Any:
    if type(src) is dict and len(src) >= FAST_COPY_MIN:
        out = src.copy()
        if _flat_map(out):
            return (out, out.copy()) if twin else out
    out = {}
    spares = []  # (key, second copy) of each container, for a twin
    for key, item in dict.items(src):  # the stored items, whatever a subclass overrides
        if not isinstance(key, str) or not key:
            raise _Invalid(f"keys must be non-empty text, got {key!r}")
        cls = type(item)
        if cls in _KEEP or (cls is int and INT64_MIN <= item <= INT64_MAX):
            out[key] = item
            continue
        try:
            done = _copy_item(item, memo, twin)
        except _Invalid as bad:
            bad.where.append(f".{key}")
            raise
        if twin:
            out[key] = done[0]
            spares.append((key, done[1]))
        else:
            out[key] = done
    if not twin:
        return out
    spare = out.copy()
    spare.update(spares)
    return out, spare


def _copy_list(src: list, memo: dict[int, Any], twin: bool) -> Any:
    if type(src) is list and len(src) >= FAST_COPY_MIN:
        done = _copy_flat_list(src, memo, twin)
        if done is not None:
            return done
    out: list[Any] = []
    append = out.append
    spares = []  # (index, second copy) of each container, for a twin
    for item in list.__iter__(src):
        cls = type(item)
        if cls in _KEEP or (cls is int and INT64_MIN <= item <= INT64_MAX):
            append(item)
            continue
        try:
            done = _copy_item(item, memo, twin)
        except _Invalid as bad:
            bad.where.append(f"[{len(out)}]")  # the items before it are all copied
            raise
        if twin:
            spares.append((len(out), done[1]))
            append(done[0])
        else:
            append(done)
    if not twin:
        return out
    spare = out.copy()
    for i, item in spares:
        spare[i] = item
    return out, spare


def _copy_item(value: Any, memo: dict[int, Any], twin: bool) -> Any:
    """The slow path: containers, out-of-range ints, scalar subclasses.
    With ``twin`` it returns a pair, and ``memo`` holds only pairs."""
    if isinstance(value, (dict, list)):
        done = memo.get(id(value))
        if done is None:
            if isinstance(value, dict):
                done = _copy_map(value, memo, twin)
            else:
                done = _copy_list(value, memo, twin)
            memo[id(value)] = done
        return done
    if isinstance(value, (str, float, bool, bytes)):
        return (value, value) if twin else value
    if isinstance(value, int):
        if not INT64_MIN <= value <= INT64_MAX:
            raise _Invalid("integer outside 64-bit signed range")
        return (value, value) if twin else value
    raise _Invalid(f"unsupported value type {type(value).__name__}")


# The fast path copies first, with the C-level ``dict.copy``/``list.copy``,
# and checks the copies, which no one else holds, so a writer cannot slip a
# value in between the check and its use.  Any shape it does not cover, and
# any broken rule, returns None: the per-item walk then copies the source and
# reports the error with its path.

def _flat(values: list, kinds: set) -> bool:
    """True if ``kinds``, the types in ``values``, are all exact scalar
    types and every int in ``values`` is in range."""
    if not kinds <= _FLAT:
        return False
    if int not in kinds:
        return True
    if len(kinds) > 1:
        values = [v for v in values if type(v) is int]
    return INT64_MIN <= min(values) and max(values) <= INT64_MAX


def _flat_map(out: dict) -> bool:
    """True if the (already copied) map has text keys and scalar values."""
    values = list(out.values())
    return (
        set(map(type, out)) <= _TEXT
        and "" not in out
        and _flat(values, set(map(type, values)))
    )


def _copy_flat_list(src: list, memo: dict[int, Any], twin: bool) -> Any:
    """A list of scalars, or of distinct not-yet-copied flat rows, or None."""
    out = src.copy()
    kinds = set(map(type, out))
    if kinds != {dict}:
        if not _flat(out, kinds):
            return None
        return (out, out.copy()) if twin else out
    ids = list(map(id, out))  # ``out`` keeps the rows alive, so ids stay theirs
    if len(set(ids)) != len(ids) or not memo.keys().isdisjoint(ids):
        return None  # a shared row: the item walk keeps the sharing
    rows = list(map(dict.copy, out))
    if not (
        set(map(type, concat.from_iterable(rows))) <= _TEXT
        and not any(map(dict.__contains__, rows, repeat("")))
    ):
        return None
    values = list(concat.from_iterable(map(dict.values, rows)))
    if not _flat(values, set(map(type, values))):
        return None
    if not twin:
        memo.update(zip(ids, rows))
        return rows
    spare = list(map(dict.copy, rows))
    memo.update(zip(ids, zip(rows, spare)))
    return rows, spare


def value_equal(a: Any, b: Any) -> bool:
    """Deep structural equality that keeps bool, int, and float distinct kinds."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(value_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(value_equal(x, y) for x, y in zip(a, b))
    if type(a) is not type(b):
        return False
    return a == b


# --- chain directives ------------------------------------------------------

@dataclass(frozen=True)
class Continue:
    pass


@dataclass(frozen=True)
class Stop:
    pass


@dataclass(frozen=True)
class Divert:
    target: str

    def __post_init__(self):
        if not NAME_RE.match(self.target):
            raise ValueError(f"divert target must be a unit name, got {self.target!r}")


ChainDirective = Continue | Stop | Divert

CONTINUE = Continue()
STOP = Stop()


def format_directive(directive: ChainDirective) -> str:
    if isinstance(directive, Continue):
        return "continue"
    if isinstance(directive, Stop):
        return "stop"
    if isinstance(directive, Divert):
        return f"divert:{directive.target}"
    raise TypeError(f"not a chain directive: {directive!r}")


def parse_directive(text: str) -> ChainDirective:
    if text == "continue":
        return CONTINUE
    if text == "stop":
        return STOP
    if text.startswith("divert:"):
        return Divert(text[len("divert:"):])
    raise ValueError(f"not a chain directive: {text!r}")


class Outcome(str, Enum):
    OK = "ok"
    ERROR = "error"


@dataclass(frozen=True)
class ExecutionRecord:
    """One unit's turn in a chain run, as recorded in the envelope trace."""

    unit: str
    version: str
    handler: str
    outcome: Outcome
    duration_us: int
    directive: ChainDirective | None = None
    error: str | None = None

    def __post_init__(self):
        if self.duration_us < 0:
            raise ValueError("duration must be >= 0")
        if self.outcome is Outcome.ERROR and not self.error:
            raise ValueError("error outcome requires an error message")


@dataclass(frozen=True)
class Envelope:
    """The message flowing through one chain run."""

    id: str
    extension_point: str
    payload: dict[str, Any]
    epoch: int = 0
    trace: tuple[ExecutionRecord, ...] = ()

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")

    def with_payload(self, payload: dict[str, Any]) -> "Envelope":
        # the constructor, not dataclasses.replace, which inspects the fields per call
        return Envelope(self.id, self.extension_point, payload, self.epoch, self.trace)


_envelope_counter = 0
_envelope_lock = threading.Lock()


def new_envelope_id() -> str:
    global _envelope_counter
    with _envelope_lock:
        _envelope_counter += 1
        n = _envelope_counter
    return f"env-{n:08d}-{threading.get_ident():x}"


def make_envelope(
    extension_point: str,
    payload: Mapping[str, Any],
    epoch: int = 0,
    env_id: str | None = None,
) -> Envelope:
    """Build a fresh envelope for one dispatch from a validated copy of the
    payload, so the dispatch never shares a list or map with its caller."""
    if not EXTENSION_POINT_RE.match(extension_point):
        raise ValueError(f"bad extension point {extension_point!r}")
    payload = copy_value_map(dict(payload))
    return Envelope(
        id=env_id if env_id is not None else new_envelope_id(),
        extension_point=extension_point,
        payload=payload,
        epoch=epoch,
    )


# --- behavioral contract ---------------------------------------------------

@dataclass(frozen=True)
class LoadReport:
    ok: bool
    message: str = ""


@dataclass(frozen=True)
class HostContext:
    """Per-unit runtime context handed to load(); data dirs are unit-private."""

    host_version: str
    unit_name: str
    config: Mapping[str, Any] = field(default_factory=dict)
    data_dir: Any = None


@runtime_checkable
class PipelineUnit(Protocol):
    """The three-method contract every unit implements.

    load is called exactly once per activation before any execute; next is
    called only after a successful execute on the same envelope.  Units may
    additionally expose ``unload()``, invoked after draining completes.
    """

    def load(self, context: HostContext) -> LoadReport: ...

    def execute(self, envelope: Envelope) -> Envelope: ...

    def next(self, envelope: Envelope) -> ChainDirective: ...


# --- reference units -------------------------------------------------------

_ACTIONS = ("append", "set", "fail", "sleep")


@dataclass(frozen=True)
class Behavior:
    """Declarative per-extension-point behavior for a reference unit.

    action forms: ("append", key, text), ("set", key, value),
    ("fail", message), ("sleep", seconds).
    """

    action: tuple
    directive: ChainDirective = CONTINUE

    def __post_init__(self):
        action = tuple(self.action)
        object.__setattr__(self, "action", action)
        if not action or action[0] not in _ACTIONS:
            raise ValueError(f"unknown action {action!r}")
        kind = action[0]
        if kind in ("append", "set") and (len(action) != 3 or not isinstance(action[1], str)):
            raise ValueError(f"{kind} action needs (kind, key, value)")
        if kind == "append" and not isinstance(action[2], str):
            raise ValueError("append action needs text to append")
        if kind == "fail" and (len(action) != 2 or not isinstance(action[1], str)):
            raise ValueError("fail action needs (kind, message)")
        if kind == "sleep" and (len(action) != 2 or not isinstance(action[1], (int, float))):
            raise ValueError("sleep action needs (kind, seconds)")
        if not isinstance(self.directive, (Continue, Stop, Divert)):
            raise ValueError(f"not a chain directive: {self.directive!r}")


class ReferenceUnit:
    """In-memory PipelineUnit driven by a declarative behavior table.

    Records every host call in ``calls`` so tests can assert the call-order
    contract, concurrency gating, and unload-vs-execute ordering.
    """

    def __init__(self, name: str, version: str, behaviors: Mapping[str, Behavior]):
        if not NAME_RE.match(name):
            raise ValueError(f"bad unit name {name!r}")
        parse_version(version)
        table = dict(behaviors)
        for ep, behavior in table.items():
            if not EXTENSION_POINT_RE.match(ep):
                raise ValueError(f"bad extension point {ep!r}")
            if not isinstance(behavior, Behavior):
                raise ValueError(f"behavior for {ep} must be a Behavior")
        self.name = name
        self.version = version
        self.behaviors = table
        self.calls: list[tuple] = []
        self._lock = threading.Lock()
        self._entries = 0
        self.max_concurrent_entries = 0
        self.unloaded_at: float | None = None
        self.last_execute_end: float = 0.0

    def _record(self, *event) -> None:
        with self._lock:
            self.calls.append(event)

    def load(self, context: HostContext) -> LoadReport:
        self._record("load")
        return LoadReport(ok=True)

    def execute(self, envelope: Envelope) -> Envelope:
        self._record("execute", envelope.id)
        with self._lock:
            self._entries += 1
            self.max_concurrent_entries = max(self.max_concurrent_entries, self._entries)
        try:
            behavior = self.behaviors.get(envelope.extension_point)
            if behavior is None:
                raise UnitExecutionError(
                    f"{self.name} has no behavior for {envelope.extension_point}"
                )
            kind = behavior.action[0]
            if kind == "fail":
                raise UnitExecutionError(behavior.action[1])
            if kind == "sleep":
                time.sleep(behavior.action[1])
                return envelope
            payload = dict(envelope.payload)
            key = behavior.action[1]
            if kind == "append":
                prior = payload.get(key, "")
                if not isinstance(prior, str):
                    prior = str(prior)
                payload[key] = prior + behavior.action[2]
            elif kind == "set":
                payload[key] = behavior.action[2]
            return envelope.with_payload(payload)
        finally:
            with self._lock:
                self._entries -= 1
                self.last_execute_end = time.monotonic()

    def next(self, envelope: Envelope) -> ChainDirective:
        self._record("next", envelope.id)
        behavior = self.behaviors.get(envelope.extension_point)
        return behavior.directive if behavior is not None else CONTINUE

    def unload(self) -> None:
        self._record("unload")
        self.unloaded_at = time.monotonic()

    def method_sequence(self) -> list[str]:
        with self._lock:
            return [event[0] for event in self.calls]


def reference_unit(
    name: str, version: str, behaviors: Mapping[str, Behavior]
) -> ReferenceUnit:
    """Build an in-memory unit whose load/execute/next follow the table exactly."""
    return ReferenceUnit(name, version, behaviors)
