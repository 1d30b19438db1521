"""In-memory span tracer that wraps layer boundaries of ``scpa_host``.

Tracing is installed by rebinding, in this process only, the names each
layer's caller looks up: module globals such as ``scpa_host.host.run_chain``
and class attributes such as ``Registry.activate``.  Nothing under ``src/``
changes.  Each span has a name, start, end and parent; spans of one op hang
under one root span and the spans of one dispatch carry its envelope id.

Spans stay in memory until their root closes.  The root's tree is then
folded into per-name arrays of duration and self time (a span minus the part
of its interval that its children cover), so a long traced run does not keep
every span alive.
"""

from __future__ import annotations

import contextlib
import copy as _copy
import functools
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

import scpa_host.chain as chain_mod
import scpa_host.demo.app as demo_mod
import scpa_host.diagnostics as diag_mod
import scpa_host.host as host_mod
import scpa_host.loading as loading_mod
import scpa_host.registry as registry_mod

# A span is a list for speed: [name, start, end, children, env_id].
_NAME, _START, _END, _CHILDREN, _ENV = range(5)

# Spans whose subtree totals are kept by descendant name, so that a
# layer's time can be split into the layers it calls.
SCOPES = ("chain.run_chain", "app.op")


@dataclass
class Aggregate:
    """What the folded spans of one traced run add up to."""

    dur: dict[str, array] = field(default_factory=lambda: defaultdict(lambda: array("d")))
    self_time: dict[str, array] = field(default_factory=lambda: defaultdict(lambda: array("d")))
    # (scope, descendant name) -> [count, total duration]
    under: dict[tuple[str, str], list] = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))
    # per app.op root: its duration minus the host.dispatch calls inside it
    op_outside_host: array = field(default_factory=lambda: array("d"))
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    min_self: float = float("inf")
    spans: int = 0


class _CopyProxy:
    """Stands in for the ``copy`` module inside ``scpa_host.chain``."""

    def __init__(self, deepcopy):
        self.deepcopy = deepcopy

    def __getattr__(self, name):
        return getattr(_copy, name)


class Tracer:
    def __init__(self):
        self.agg = Aggregate()
        self.enabled = False
        self._local = threading.local()
        self._open_calls: dict[str, list] = {}  # envelope id -> open chain._call_unit span
        self._fold_lock = threading.Lock()
        self._seen_payloads: dict[tuple[str, str], bytes] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._real_factory = host_mod.payload_unit_factory

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, env_id: str | None = None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif env_id is not None:
            # a unit runs on the chain's worker thread: link it to its call
            parent = self._open_calls.get(env_id)
        else:
            parent = None
        if parent is not None and env_id is None:
            env_id = parent[_ENV]
        span = [name, time.perf_counter(), 0.0, [], env_id]
        if parent is not None:
            parent[_CHILDREN].append(span)
        stack.append((span, parent is None))
        return span

    def close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        stack = self._stack()
        top, is_root = stack.pop()
        assert top is span, "spans must close in LIFO order per thread"
        if is_root:
            with self._fold_lock:
                self._fold(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _fold(self, root: list) -> None:
        agg = self.agg
        ancestry: list[str] = []

        def visit(span: list) -> None:
            start, end = span[_START], span[_END]
            covered = 0.0
            last = start
            for child in sorted(span[_CHILDREN], key=lambda c: c[_START]):
                lo = max(child[_START], last)
                hi = min(child[_END], end)
                if hi > lo:
                    covered += hi - lo
                    last = hi
            dur = end - start
            self_time = dur - covered
            name = span[_NAME]
            agg.dur[name].append(dur)
            agg.self_time[name].append(self_time)
            agg.spans += 1
            if self_time < agg.min_self:
                agg.min_self = self_time
            for scope in ancestry:
                if scope in SCOPES:
                    cell = agg.under[(scope, name)]
                    cell[0] += 1
                    cell[1] += dur
            ancestry.append(name)
            for child in span[_CHILDREN]:
                visit(child)
            ancestry.pop()

        visit(root)
        if root[_NAME] == "app.op":
            agg.op_outside_host.append(
                (root[_END] - root[_START]) - _sum_named(root, "host.dispatch")
            )

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, env_arg: int | None = None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            env_id = args[env_arg].id if env_arg is not None else None
            span = tracer.open(name, env_id)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result
            finally:
                tracer.close(span)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _note_envelope(self, span, args, envelope) -> None:
        # make_envelope runs inside Host.dispatch: tag the dispatch span
        stack = self._stack()
        if len(stack) >= 2:
            stack[-2][0][_ENV] = envelope.id

    def _note_scan(self, span, args, result) -> None:
        self.agg.counters["bundles_scanned"] += len(result.discoveries) + len(result.rejects)
        self.agg.counters["scans"] += 1

    def _traced_call_unit(self):
        real = chain_mod._call_unit
        tracer = self

        @functools.wraps(real)
        def call_unit(bound, envelope, timeout_s):
            span = tracer.open("chain.call_unit", envelope.id)
            tracer._open_calls[envelope.id] = span
            try:
                return real(bound, envelope, timeout_s)
            finally:
                tracer._open_calls.pop(envelope.id, None)
                tracer.close(span)

        return call_unit

    def _traced_verify(self):
        real = registry_mod.verify_payload
        tracer = self

        @functools.wraps(real)
        def verify_payload(manifest, payload):
            span = tracer.open("contract.verify_payload")
            try:
                return real(manifest, payload)
            finally:
                tracer.close(span)
                counters = tracer.agg.counters
                counters["bytes_hashed"] += len(payload)
                counters["bundles_hashed"] += 1
                key = (manifest.name, manifest.version)
                if tracer._seen_payloads.get(key) != payload:
                    counters["useful_rehash"] += 1
                    tracer._seen_payloads[key] = payload

        return verify_payload

    def _traced_factory(self, discovery, context):
        """Captured by every Registry built while tracing is installed."""
        if not self.enabled:
            return self._real_factory(discovery, context)
        span = self.open("loading.unit_factory")
        try:
            return self._real_factory(discovery, context)
        finally:
            self.close(span)

    def install(self) -> None:
        """Rebind every traced name; a Host built afterwards is traced too."""
        if self._patches:
            return
        w = self._wrap
        self._patch(host_mod.Host, "dispatch", w("host.dispatch", host_mod.Host.dispatch))
        self._patch(host_mod.Host, "hot_swap_cycle", w("host.tick", host_mod.Host.hot_swap_cycle))
        self._patch(host_mod, "make_envelope", w("contract.make_envelope", host_mod.make_envelope, after=self._note_envelope))
        self._patch(host_mod, "run_chain", w("chain.run_chain", host_mod.run_chain))
        self._patch(host_mod, "scan", w("registry.scan", host_mod.scan, after=self._note_scan))
        self._patch(host_mod, "payload_unit_factory", self._traced_factory)
        self._patch(chain_mod, "_call_unit", self._traced_call_unit())
        self._patch(chain_mod, "copy", _CopyProxy(w("contract.deepcopy", _copy.deepcopy)))
        self._patch(chain_mod, "validate_value_map", w("contract.validate", chain_mod.validate_value_map))
        self._patch(registry_mod, "parse_manifest", w("contract.parse_manifest", registry_mod.parse_manifest))
        self._patch(registry_mod, "verify_payload", self._traced_verify())
        self._patch(registry_mod.Registry, "activate", w("registry.activate", registry_mod.Registry.activate))
        self._patch(registry_mod.Registry, "deactivate", w("registry.deactivate", registry_mod.Registry.deactivate))
        self._patch(loading_mod, "load_payload_module", w("loading.load_module", loading_mod.load_payload_module))
        self._patch(loading_mod.PayloadUnit, "execute", w("loading.execute", loading_mod.PayloadUnit.execute, env_arg=1))
        self._patch(loading_mod.PayloadUnit, "next", w("loading.next", loading_mod.PayloadUnit.next, env_arg=1))
        emit = w("diagnostics.emit", diag_mod.DiagnosticLog.emit)
        self._patch(diag_mod.DiagnosticLog, "emit", emit)
        self._patch(diag_mod.DiagnosticLog, "__call__", emit)
        self._patch(demo_mod.DemoApp, "render", w("demo.render", demo_mod.DemoApp.render))
        self.enabled = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.enabled = False


def _sum_named(span: list, name: str) -> float:
    """Total duration of the outermost descendants called ``name``."""
    total = 0.0
    for child in span[_CHILDREN]:
        if child[_NAME] == name:
            total += child[_END] - child[_START]
        else:
            total += _sum_named(child, name)
    return total
