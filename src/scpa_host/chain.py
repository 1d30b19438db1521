"""Chain engine: runs an envelope through the ordered units bound to an
extension point, honoring directives, error containment, and trace recording.
"""

from __future__ import annotations

import copy  # noqa: F401  unused here; the benchmark's tracer rebinds chain.copy
import threading
import time
from _thread import start_new_thread
from enum import Enum
from typing import Callable, Mapping, Sequence

from .contract import (
    ChainDirective,
    Continue,
    Divert,
    Envelope,
    ExecutionRecord,
    Outcome,
    Stop,
    UnitExecutionError,
    copy_value_map,
    format_directive,
    validate_value_map,  # noqa: F401  unused here; the benchmark's tracer rebinds it
)
from .registry import BoundUnit, HandlerRef, RegistrySnapshot, order_units  # noqa: F401  order_units: re-exported

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


def _call_unit(
    bound: BoundUnit, envelope: Envelope, timeout_s: float
) -> tuple[Envelope, ChainDirective] | str:
    """Run execute+next in a worker thread so a stuck unit can be abandoned.

    Returns the unit's envelope and directive, or the error text when the
    unit failed or timed out; the text is never empty.

    Non-reentrant units are serialized through their gate; the gate is
    acquired inside the worker with the same budget so a stuck holder turns
    later calls into timeouts instead of ghost executions.

    The worker is a bare ``_thread`` thread: nothing joins or names it, and
    ``body`` contains every unit failure, so ``threading.Thread``'s start-up
    handshake and bookkeeping would buy nothing here.
    """
    box: dict[str, tuple[Envelope, ChainDirective] | str] = {}
    done = threading.Event()
    timed_out = f"timed out after {int(timeout_s * 1000)} ms"

    def body() -> None:
        gate = bound.gate
        if gate is not None and not gate.acquire(timeout=timeout_s):
            box["result"] = timed_out
            bound.running.discard(done)
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
                box["result"] = str(exc) or type(exc).__name__
            else:
                box["result"] = f"{type(exc).__name__}: {exc}"
        finally:
            if gate is not None:
                gate.release()
            bound.running.discard(done)
            done.set()

    bound.running.add(done)  # before the start: no running call is ever missed
    try:
        start_new_thread(body, ())
    except BaseException:
        bound.running.discard(done)
        raise
    if not done.wait(timeout_s):
        return timed_out
    return box.get("result", "unit call ended without a result")


def _cross(env: Envelope, source: Envelope, twin: bool) -> tuple[Envelope, Envelope]:
    """Walk the payload crossing in from ``source`` once, into the host's
    envelope ``env`` and a view for the next unit.  With ``twin`` the view
    is a second copy made in the same walk; without it the view is the
    host's envelope itself, handed over."""
    if twin:
        payload, view_payload = copy_value_map(source.payload, twin=True)
        return env.with_payload(payload), env.with_payload(view_payload)
    env = env.with_payload(copy_value_map(source.payload))
    return env, env


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
    raises ChainError attributed to that unit.  ``units`` maps each unit
    the snapshot routes to the BoundUnit it runs on.

    The envelope's payload, and each unit's output payload, is validated
    and copied in one walk as it crosses into the chain, so no unit can
    reach the host's envelope or another unit's view.  Under
    FAIL_OPEN the walk also makes the next unit's view; under FAIL_CLOSED
    the next unit gets the host's copy itself, because a failure ends the
    chain and the host never reads that copy again.
    """
    order = snapshot.handlers_for(extension_point)  # sorted by the registry's commit
    fail_open = policy is ErrorPolicy.FAIL_OPEN
    env = Envelope(envelope.id, extension_point, envelope.payload, snapshot.epoch, envelope.trace)
    env, view = _cross(env, env, fail_open and bool(order))
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
        started = time.perf_counter()
        if view is None:  # the last view went to a unit that failed
            _, view = _cross(env, env, False)
        result = _call_unit(units[ref.unit], view, timeout_s)
        view = None
        duration_us = max(0, int((time.perf_counter() - started) * 1_000_000))

        if not isinstance(result, str):
            new_env, directive = result
            try:
                more = fail_open and position + 1 < len(order) and not isinstance(directive, Stop)
                crossed, next_view = _cross(env, new_env, more)
                next_position = apply_directive(directive, position, order)
            except Exception as exc:  # e.g. a dict the handler still mutates elsewhere
                result = str(exc) if isinstance(exc, DirectiveError) else f"{type(exc).__name__}: {exc}"
            else:
                env, view = crossed, next_view
                finish(
                    ExecutionRecord(
                        unit=ref.unit,
                        version=ref.version,
                        handler=ref.handler,
                        outcome=Outcome.OK,
                        duration_us=duration_us,
                        directive=directive,
                    )
                )
                position = next_position
                continue

        finish(
            ExecutionRecord(
                unit=ref.unit,
                version=ref.version,
                handler=ref.handler,
                outcome=Outcome.ERROR,
                duration_us=duration_us,
                error=result,
            )
        )
        if policy is ErrorPolicy.FAIL_CLOSED:
            raise ChainError(
                unit=ref.unit,
                version=ref.version,
                handler=ref.handler,
                message=result,
                trace=tuple(records),
            )
        position += 1  # FAIL_OPEN: pre-error envelope flows onward

    return Envelope(env.id, env.extension_point, env.payload, env.epoch, tuple(records))
