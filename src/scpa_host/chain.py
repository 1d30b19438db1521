"""Chain engine: runs an envelope through the ordered units bound to an
extension point, honoring directives, error containment, and trace recording.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Mapping, Sequence

from .contract import (
    ChainDirective,
    Continue,
    Divert,
    Envelope,
    ExecutionRecord,
    Outcome,
    PipelineUnit,
    Stop,
    UnitExecutionError,
    format_directive,
    validate_value_map,
)
from .registry import HandlerRef, RegistrySnapshot

DEFAULT_TIMEOUT_MS = 5000


class ErrorPolicy(Enum):
    """Containment policy for a dispatch: skip erroring units or abort."""

    FAIL_OPEN = "fail_open"
    FAIL_CLOSED = "fail_closed"


class ChainError(Exception):
    """Chain aborted under FailClosed; attributes the failing unit."""

    def __init__(
        self,
        unit: str,
        version: str,
        handler: str,
        message: str,
        trace: tuple[ExecutionRecord, ...] = (),
    ):
        super().__init__(f"chain failed at {unit}@{version} ({handler}): {message}")
        self.unit = unit
        self.version = version
        self.handler = handler
        self.message = message
        self.trace = trace


class DirectiveError(Exception):
    pass


class BackwardDivert(DirectiveError):
    def __init__(self, unit: str, target: str):
        super().__init__(f"{unit} diverted backward to {target}")
        self.unit = unit
        self.target = target


class UnknownDivertTarget(DirectiveError):
    def __init__(self, unit: str, target: str):
        super().__init__(f"{unit} diverted to {target}, which is not bound to this chain")
        self.unit = unit
        self.target = target


@dataclass
class BoundUnit:
    """A loaded unit instance plus its reentrancy gate (None when reentrant)."""

    unit: PipelineUnit
    gate: threading.Lock | None = None


def order_units(handlers: Sequence[HandlerRef]) -> list[HandlerRef]:
    """Ascending (priority, unit name); handler name breaks ties when one
    unit binds several handlers to the same extension point."""
    return sorted(handlers, key=lambda h: (h.priority, h.unit, h.handler))


def apply_directive(
    directive: ChainDirective, position: int, order: Sequence[HandlerRef]
) -> int | None:
    """Resolve a directive to the next position, or None to terminate.

    Divert is forward-only: a target at or before the current position is a
    BackwardDivert; a target absent from the chain is UnknownDivertTarget.
    """
    if not 0 <= position < len(order):
        raise IndexError(f"position {position} outside chain of length {len(order)}")
    if isinstance(directive, Continue):
        nxt = position + 1
        return nxt if nxt < len(order) else None
    if isinstance(directive, Stop):
        return None
    if isinstance(directive, Divert):
        for i in range(position + 1, len(order)):
            if order[i].unit == directive.target:
                return i
        source = order[position].unit
        if any(order[i].unit == directive.target for i in range(position + 1)):
            raise BackwardDivert(source, directive.target)
        raise UnknownDivertTarget(source, directive.target)
    raise TypeError(f"not a chain directive: {directive!r}")


@dataclass
class _CallResult:
    ok: bool
    envelope: Envelope | None = None
    directive: ChainDirective | None = None
    error: str | None = None


def _call_unit(bound: BoundUnit, envelope: Envelope, timeout_s: float) -> _CallResult:
    """Run execute+next in a worker thread so a stuck unit can be abandoned.

    Non-reentrant units are serialized through their gate; the gate is
    acquired inside the worker with the same budget so a stuck holder turns
    later calls into timeouts instead of ghost executions.
    """
    box: dict[str, object] = {}
    done = threading.Event()

    def body() -> None:
        gate = bound.gate
        if gate is not None and not gate.acquire(timeout=timeout_s):
            box["gate_timeout"] = True
            done.set()
            return
        try:
            new_env = bound.unit.execute(envelope)
            if not isinstance(new_env, Envelope):
                raise UnitExecutionError(
                    f"execute returned {type(new_env).__name__}, expected an envelope"
                )
            directive = bound.unit.next(new_env)
            if not isinstance(directive, (Continue, Stop, Divert)):
                raise UnitExecutionError(f"next returned {directive!r}, expected a directive")
            box["result"] = (new_env, directive)
        except (Exception, SystemExit) as exc:  # any unit failure, sys.exit() too, is contained
            if isinstance(exc, UnitExecutionError):
                box["error"] = str(exc)
            else:
                box["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if gate is not None:
                gate.release()
            done.set()

    worker = threading.Thread(target=body, daemon=True, name="scpa-unit-call")
    worker.start()
    finished = done.wait(timeout_s)
    if not finished or "gate_timeout" in box:
        return _CallResult(ok=False, error=f"timed out after {int(timeout_s * 1000)} ms")
    if "result" not in box:
        return _CallResult(ok=False, error=str(box.get("error", "unit call ended without a result")))
    new_env, directive = box["result"]  # type: ignore[misc]
    return _CallResult(ok=True, envelope=new_env, directive=directive)


def run_chain(
    snapshot: RegistrySnapshot,
    extension_point: str,
    envelope: Envelope,
    policy: ErrorPolicy = ErrorPolicy.FAIL_CLOSED,
    *,
    units: Mapping[str, BoundUnit],
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    diag: Callable[[str], None] | None = None,
) -> Envelope:
    """Execute the envelope through every unit bound to the extension point.

    Units run in (priority, name) order within the given snapshot's epoch.
    After each successful execute, next() routes the chain: Continue
    advances, Stop returns the current envelope, Divert jumps strictly
    forward.  An erroring or timed-out unit leaves the envelope unchanged;
    under FAIL_OPEN the chain continues past it, under FAIL_CLOSED the run
    raises ChainError attributed to that unit.
    """
    order = order_units(snapshot.handlers_for(extension_point))
    env = replace(envelope, epoch=snapshot.epoch, extension_point=extension_point)
    timeout_s = timeout_ms / 1000.0
    records: list[ExecutionRecord] = []

    def finish(record: ExecutionRecord) -> None:
        records.append(record)
        if diag is not None:
            directive = format_directive(record.directive) if record.directive else "-"
            diag(
                f"TRACE {env.id} {env.epoch} {record.unit}@{record.version} "
                f"{record.handler} {record.outcome.value} {record.duration_us} {directive}"
            )

    position: int | None = 0
    while position is not None and position < len(order):
        ref = order[position]
        bound = units.get(ref.unit)
        started = time.perf_counter()
        if bound is None:
            result = _CallResult(ok=False, error=f"unit {ref.unit} is not loaded")
        else:
            unit_view = replace(
                env,
                payload=copy.deepcopy(env.payload),
                annotations=copy.deepcopy(env.annotations),
            )
            result = _call_unit(bound, unit_view, timeout_s)
        duration_us = max(0, int((time.perf_counter() - started) * 1_000_000))

        if result.ok:
            assert result.envelope is not None and result.directive is not None
            error: str | None = None
            try:
                validate_value_map(result.envelope.payload)
                validate_value_map(result.envelope.annotations, path="annotations")
                next_position = apply_directive(result.directive, position, order)
            except (DirectiveError, ValueError, RecursionError) as exc:
                error = f"{type(exc).__name__}: {exc}" if not isinstance(exc, DirectiveError) else str(exc)
            if error is None:
                env = replace(
                    env,
                    payload=copy.deepcopy(result.envelope.payload),
                    annotations=copy.deepcopy(result.envelope.annotations),
                )
                finish(
                    ExecutionRecord(
                        unit=ref.unit,
                        version=ref.version,
                        handler=ref.handler,
                        outcome=Outcome.OK,
                        duration_us=duration_us,
                        directive=result.directive,
                    )
                )
                env = replace(env, trace=tuple(records))
                position = next_position
                continue
            result = _CallResult(ok=False, error=error)

        finish(
            ExecutionRecord(
                unit=ref.unit,
                version=ref.version,
                handler=ref.handler,
                outcome=Outcome.ERROR,
                duration_us=duration_us,
                error=result.error,
            )
        )
        if policy is ErrorPolicy.FAIL_CLOSED:
            raise ChainError(
                unit=ref.unit,
                version=ref.version,
                handler=ref.handler,
                message=result.error or "unit error",
                trace=tuple(records),
            )
        position += 1  # FAIL_OPEN: pre-error envelope flows onward

    return replace(env, trace=tuple(records))
