"""Chain engine: ordering, directives, containment, traces, termination."""

import io
import itertools
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from scpa_host.chain import (
    BackwardDivert,
    BoundUnit,
    ChainError,
    ErrorPolicy,
    UnknownDivertTarget,
    apply_directive,
    order_units,
    run_chain,
)
from scpa_host.contract import (
    Behavior,
    CONTINUE,
    Divert,
    Outcome,
    STOP,
    make_envelope,
    reference_unit,
    value_equal,
)
from scpa_host.host import Host, HostConfig
from scpa_host.registry import HandlerRef

from _util import MemoryRegistry, record_sequence_ok, write_bundle

EP = "business.orders.process"


def ref(unit, priority, handler="handle", version="1.0.0"):
    return HandlerRef(unit=unit, version=version, handler=handler, priority=priority, reentrant=True)


def build(units_with_priorities, behaviors=None):
    """(name, priority, Behavior) triples -> (snapshot, bound units dict)."""
    registry = MemoryRegistry()
    for name, priority, behavior in units_with_priorities:
        registry.add(
            reference_unit(name, "1.0.0", {EP: behavior}), priority=priority
        )
    return registry.snapshot, registry.bound()


class TestOrderUnits:
    def test_empty(self):
        assert order_units([]) == []

    def test_singleton(self):
        only = ref("solo", 7)
        assert order_units([only]) == [only]

    def test_priority_then_name(self):
        handlers = [ref("b", 100), ref("a", 100), ref("c", 50)]
        assert [h.unit for h in order_units(handlers)] == ["c", "a", "b"]

    def test_all_permutations_match_comparator_oracle(self):
        handlers = [ref("b", 100), ref("a", 100), ref("c", 50)]
        expected = sorted(handlers, key=lambda h: (h.priority, h.unit, h.handler))
        for perm in itertools.permutations(handlers):
            assert order_units(list(perm)) == expected


class TestApplyDirective:
    ORDER = [ref("a", 10), ref("b", 20), ref("c", 30)]

    def test_continue_advances(self):
        assert apply_directive(CONTINUE, 0, self.ORDER) == 1

    def test_continue_at_end_terminates(self):
        assert apply_directive(CONTINUE, 2, self.ORDER) is None

    def test_stop_terminates(self):
        assert apply_directive(STOP, 0, self.ORDER) is None

    def test_divert_skips_forward(self):
        assert apply_directive(Divert("c"), 0, self.ORDER) == 2

    def test_divert_backward_rejected(self):
        with pytest.raises(BackwardDivert):
            apply_directive(Divert("a"), 2, self.ORDER)

    def test_divert_to_self_rejected(self):
        with pytest.raises(BackwardDivert):
            apply_directive(Divert("b"), 1, self.ORDER)

    def test_divert_unknown_target(self):
        with pytest.raises(UnknownDivertTarget):
            apply_directive(Divert("zz"), 0, self.ORDER)


def _exits(envelope):
    raise SystemExit(3)


def _returns_cycle(envelope):
    payload = {"k": "x"}
    payload["self"] = payload
    return envelope.with_payload(payload)


class TestRunChain:
    def test_empty_chain_is_identity(self):
        snapshot, bound = build([])
        payload = {"k": "", "nested": {"a": [1, True, "x"]}}
        env = make_envelope(EP, payload)
        out = run_chain(snapshot, EP, env, units=bound)
        assert value_equal(out.payload, payload)
        assert out.trace == ()

    def test_two_appenders_in_priority_order(self):
        snapshot, bound = build(
            [("aa", 10, Behavior(("append", "k", "a"))), ("bb", 20, Behavior(("append", "k", "b")))]
        )
        out = run_chain(snapshot, EP, make_envelope(EP, {"k": ""}), units=bound)
        assert out.payload["k"] == "ab"
        assert [(r.unit, r.outcome) for r in out.trace] == [
            ("aa", Outcome.OK),
            ("bb", Outcome.OK),
        ]
        assert out.epoch == snapshot.epoch

    def test_fail_open_skips_erroring_unit(self):
        snapshot, bound = build(
            [("aa", 10, Behavior(("fail", "kaput"))), ("bb", 20, Behavior(("append", "k", "b")))]
        )
        out = run_chain(
            snapshot, EP, make_envelope(EP, {"k": ""}), ErrorPolicy.FAIL_OPEN, units=bound
        )
        assert out.payload["k"] == "b"
        assert [(r.unit, r.outcome) for r in out.trace] == [
            ("aa", Outcome.ERROR),
            ("bb", Outcome.OK),
        ]
        assert "kaput" in out.trace[0].error

    def test_fail_closed_aborts_with_attribution(self):
        snapshot, bound = build(
            [("aa", 10, Behavior(("fail", "kaput"))), ("bb", 20, Behavior(("append", "k", "b")))]
        )
        with pytest.raises(ChainError) as err:
            run_chain(
                snapshot, EP, make_envelope(EP, {"k": ""}), ErrorPolicy.FAIL_CLOSED, units=bound
            )
        assert err.value.unit == "aa"
        assert err.value.version == "1.0.0"
        assert "kaput" in err.value.message
        assert [r.unit for r in err.value.trace] == ["aa"]

    def test_stop_halts_chain(self):
        snapshot, bound = build(
            [("aa", 10, Behavior(("set", "k", 1), STOP)), ("bb", 20, Behavior(("set", "k", 2)))]
        )
        out = run_chain(snapshot, EP, make_envelope(EP, {}), units=bound)
        assert out.payload["k"] == 1
        assert [r.unit for r in out.trace] == ["aa"]

    def test_divert_skips_middle_unit(self):
        snapshot, bound = build(
            [
                ("aa", 10, Behavior(("append", "k", "a"), Divert("cc"))),
                ("bb", 20, Behavior(("append", "k", "b"))),
                ("cc", 30, Behavior(("append", "k", "c"))),
            ]
        )
        out = run_chain(snapshot, EP, make_envelope(EP, {"k": ""}), units=bound)
        assert out.payload["k"] == "ac"
        assert [r.unit for r in out.trace] == ["aa", "cc"]

    @pytest.mark.parametrize("target", ["aa", "nope"])
    def test_bad_divert_is_a_unit_error(self, target):
        snapshot, bound = build(
            [
                ("aa", 10, Behavior(("append", "k", "a"))),
                ("bb", 20, Behavior(("append", "k", "b"), Divert(target))),
                ("cc", 30, Behavior(("append", "k", "c"))),
            ]
        )
        out = run_chain(
            snapshot, EP, make_envelope(EP, {"k": ""}), ErrorPolicy.FAIL_OPEN, units=bound
        )
        # bb's transformation is discarded; the chain continues at cc
        assert out.payload["k"] == "ac"
        assert [(r.unit, r.outcome) for r in out.trace] == [
            ("aa", Outcome.OK),
            ("bb", Outcome.ERROR),
            ("cc", Outcome.OK),
        ]
        with pytest.raises(ChainError) as err:
            run_chain(
                snapshot, EP, make_envelope(EP, {"k": ""}), ErrorPolicy.FAIL_CLOSED, units=bound
            )
        assert err.value.unit == "bb"

    def test_timeout_counts_as_unit_error(self):
        snapshot, bound = build(
            [("aa", 10, Behavior(("sleep", 0.5))), ("bb", 20, Behavior(("append", "k", "b")))]
        )
        out = run_chain(
            snapshot,
            EP,
            make_envelope(EP, {"k": ""}),
            ErrorPolicy.FAIL_OPEN,
            units=bound,
            timeout_ms=50,
        )
        assert out.payload["k"] == "b"
        assert out.trace[0].outcome is Outcome.ERROR
        assert "timed out" in out.trace[0].error

    @pytest.mark.parametrize(
        "execute, error", [(_exits, "SystemExit: 3"), (_returns_cycle, "RecursionError")]
    )
    def test_hostile_unit_is_contained(self, execute, error):
        class Hostile:
            def load(self, context):
                return None

            def next(self, envelope):
                return CONTINUE

        hostile = Hostile()
        hostile.execute = execute
        registry = MemoryRegistry()
        registry._units[("hh", "1.0.0")] = hostile
        registry.add(reference_unit("ii", "1.0.0", {EP: Behavior(("append", "k", "i"))}), priority=20)
        from scpa_host.registry import Discovery
        from _util import reference_manifest

        registry.registry.activate(Discovery("hh", "1.0.0", reference_manifest("hh", "1.0.0", 10, [EP])))
        out = run_chain(
            registry.snapshot, EP, make_envelope(EP, {"k": ""}), ErrorPolicy.FAIL_OPEN,
            units=registry.bound(),
        )
        assert out.payload == {"k": "i"}
        assert [(r.unit, r.outcome) for r in out.trace] == [("hh", Outcome.ERROR), ("ii", Outcome.OK)]
        assert error in out.trace[0].error
        with pytest.raises(ChainError) as err:
            run_chain(
                registry.snapshot, EP, make_envelope(EP, {"k": ""}), ErrorPolicy.FAIL_CLOSED,
                units=registry.bound(),
            )
        assert err.value.unit == "hh" and error in err.value.message

    @pytest.mark.parametrize("policy", [ErrorPolicy.FAIL_OPEN, ErrorPolicy.FAIL_CLOSED])
    def test_any_exception_copying_an_output_is_that_units_error(self, monkeypatch, policy):
        import scpa_host.chain as chain_mod

        real_copy = chain_mod.copy_value_map

        def copy_racing_a_writer(value, path="payload", **kwargs):
            # what copying a map that another thread keeps growing raises
            if isinstance(value, dict) and value.get("grown"):
                raise RuntimeError("dictionary changed size during iteration")
            return real_copy(value, path, **kwargs)

        monkeypatch.setattr(chain_mod, "copy_value_map", copy_racing_a_writer)
        snapshot, bound = build_fn_units(
            ("aa", 10, lambda env: env.with_payload({**env.payload, "grown": True})),
            ("bb", 20, lambda env: env.with_payload({**env.payload, "k": env.payload["k"] + "b"})),
        )
        env = make_envelope(EP, {"k": ""})
        if policy is ErrorPolicy.FAIL_OPEN:
            out = run_chain(snapshot, EP, env, policy, units=bound)
            assert out.payload == {"k": "b"}
            assert [(r.unit, r.outcome) for r in out.trace] == [
                ("aa", Outcome.ERROR),
                ("bb", Outcome.OK),
            ]
            assert out.trace[0].error == "RuntimeError: dictionary changed size during iteration"
        else:
            with pytest.raises(ChainError) as err:
                run_chain(snapshot, EP, env, policy, units=bound)
            assert err.value.unit == "aa"
            assert err.value.message == "RuntimeError: dictionary changed size during iteration"
            assert [(r.unit, r.outcome) for r in err.value.trace] == [("aa", Outcome.ERROR)]

    def test_unit_cannot_forge_envelope_identity(self):
        class Forger:
            def load(self, context):
                return None

            def execute(self, envelope):
                from dataclasses import replace

                return replace(envelope, id="forged", epoch=999, payload={"k": "x"})

            def next(self, envelope):
                return CONTINUE

        registry = MemoryRegistry()
        registry._units[("ff", "1.0.0")] = Forger()
        from scpa_host.registry import Discovery
        from _util import reference_manifest

        registry.registry.activate(
            Discovery("ff", "1.0.0", reference_manifest("ff", "1.0.0", 10, [EP]))
        )
        env = make_envelope(EP, {"k": ""})
        out = run_chain(registry.snapshot, EP, env, units=registry.bound())
        assert out.id == env.id
        assert out.epoch == registry.snapshot.epoch
        assert out.payload == {"k": "x"}

    def test_trace_lines_emitted(self):
        snapshot, bound = build([("aa", 10, Behavior(("append", "k", "a")))])
        lines = []
        env = make_envelope(EP, {"k": ""})
        run_chain(snapshot, EP, env, units=bound, diag=lines.append)
        assert len(lines) == 1
        fields = lines[0].split()
        assert fields[0] == "TRACE"
        assert fields[1] == env.id
        assert fields[2] == str(snapshot.epoch)
        assert fields[3] == "aa@1.0.0"
        assert fields[5] == "ok"
        assert fields[7] == "continue"


class TestCallOrderContract:
    def test_sequences_match_contract(self):
        units = [
            reference_unit("aa", "1.0.0", {EP: Behavior(("append", "k", "a"))}),
            reference_unit("bb", "1.0.0", {EP: Behavior(("append", "k", "b"), STOP)}),
            reference_unit("cc", "1.0.0", {EP: Behavior(("append", "k", "c"))}),
        ]
        registry = MemoryRegistry()
        for i, unit in enumerate(units):
            registry.add(unit, priority=10 * (i + 1))
        for _ in range(5):
            run_chain(registry.snapshot, EP, make_envelope(EP, {"k": ""}), units=registry.bound())
        for unit in units:
            assert record_sequence_ok(unit.method_sequence()), unit.method_sequence()

    def test_no_next_after_failed_execute(self):
        unit = reference_unit("aa", "1.0.0", {EP: Behavior(("fail", "no"))})
        registry = MemoryRegistry()
        registry.add(unit)
        run_chain(
            registry.snapshot, EP, make_envelope(EP, {}), ErrorPolicy.FAIL_OPEN,
            units=registry.bound(),
        )
        assert unit.method_sequence() == ["load", "execute"]


names_st = st.lists(
    st.from_regex(r"[a-z][a-z0-9]{1,6}", fullmatch=True), min_size=1, max_size=6, unique=True
)


@st.composite
def random_chains(draw):
    names = draw(names_st)
    priorities = draw(
        st.lists(st.integers(0, 100), min_size=len(names), max_size=len(names))
    )
    directives = []
    for name in names:
        kind = draw(st.sampled_from(["continue", "stop", "divert"]))
        if kind == "continue":
            directives.append(CONTINUE)
        elif kind == "stop":
            directives.append(STOP)
        else:
            directives.append(Divert(draw(st.sampled_from(names))))
    return list(zip(names, priorities, directives))


class TestChainProperties:
    @given(random_chains())
    @settings(max_examples=60, deadline=None)
    def test_termination_and_trace_bound(self, spec):
        rows = [
            (name, priority, Behavior(("append", "log", name + "."), directive))
            for name, priority, directive in spec
        ]
        snapshot, bound = build(rows)
        out = run_chain(
            snapshot, EP, make_envelope(EP, {"log": ""}), ErrorPolicy.FAIL_OPEN, units=bound
        )
        assert len(out.trace) <= len(spec)
        executed = [r.unit for r in out.trace]
        assert len(executed) == len(set(executed))

    @given(random_chains())
    @settings(max_examples=60, deadline=None)
    def test_trace_matches_directive_walk_oracle(self, spec):
        rows = [
            (name, priority, Behavior(("append", "log", name + "."), directive))
            for name, priority, directive in spec
        ]
        snapshot, bound = build(rows)
        ordered = sorted(spec, key=lambda row: (row[1], row[0]))
        directive_of = {name: d for name, _, d in spec}

        expected: list[tuple[str, str]] = []
        position = 0
        log = ""
        while position < len(ordered):
            name = ordered[position][0]
            directive = directive_of[name]
            if isinstance(directive, Divert):
                later = [
                    i for i in range(position + 1, len(ordered))
                    if ordered[i][0] == directive.target
                ]
                if later:
                    expected.append((name, "ok"))
                    log += name + "."
                    position = later[0]
                else:
                    expected.append((name, "error"))
                    position += 1
            elif isinstance(directive, type(STOP)):
                expected.append((name, "ok"))
                log += name + "."
                break
            else:
                expected.append((name, "ok"))
                log += name + "."
                position += 1

        out = run_chain(
            snapshot, EP, make_envelope(EP, {"log": ""}), ErrorPolicy.FAIL_OPEN, units=bound
        )
        assert [(r.unit, r.outcome.value) for r in out.trace] == expected
        assert out.payload["log"] == log

    @given(names_st, st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_order_sensitivity_of_append_chain(self, names, rng):
        rows = [(name, rng.randint(0, 50), Behavior(("append", "log", name + "."))) for name in names]
        snapshot, bound = build(rows)
        out = run_chain(snapshot, EP, make_envelope(EP, {"log": ""}), units=bound)
        expected = "".join(
            name + "." for name, _, _ in sorted(rows, key=lambda r: (r[1], r[0]))
        )
        assert out.payload["log"] == expected

    @given(names_st, st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_fail_open_equivalence(self, names, fail_index):
        if fail_index >= len(names):
            fail_index = len(names) - 1
        failing = names[fail_index]
        rows = [
            (
                name,
                10 * i,
                Behavior(("fail", "boom")) if name == failing else Behavior(("append", "log", name + ".")),
            )
            for i, name in enumerate(names)
        ]
        snapshot, bound = build(rows)
        out = run_chain(
            snapshot, EP, make_envelope(EP, {"log": ""}), ErrorPolicy.FAIL_OPEN, units=bound
        )
        without = [row for row in rows if row[0] != failing]
        snapshot2, bound2 = build(without)
        out2 = run_chain(
            snapshot2, EP, make_envelope(EP, {"log": ""}), ErrorPolicy.FAIL_OPEN, units=bound2
        )
        assert out.payload["log"] == out2.payload["log"]


class TestReentrancyGates:
    def _dispatch_concurrently(self, reentrant: bool) -> int:
        unit = reference_unit("slow", "1.0.0", {EP: Behavior(("sleep", 0.25))})
        registry = MemoryRegistry()
        registry.add(unit, reentrant=reentrant)
        snapshot, bound = registry.snapshot, registry.bound()

        def work():
            run_chain(snapshot, EP, make_envelope(EP, {}), units=bound, timeout_ms=5000)

        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return unit.max_concurrent_entries

    def test_non_reentrant_units_are_serialized(self):
        assert self._dispatch_concurrently(reentrant=False) == 1

    def test_reentrant_units_run_concurrently(self):
        assert self._dispatch_concurrently(reentrant=True) >= 2


class FnUnit:
    """A unit whose execute is a plain function of the envelope."""

    def __init__(self, execute):
        self.execute = execute

    def load(self, context):
        return None

    def next(self, envelope):
        return CONTINUE


def build_fn_units(*rows):
    """(name, priority, execute) triples -> (snapshot, bound units dict)."""
    from scpa_host.registry import Discovery
    from _util import reference_manifest

    registry = MemoryRegistry()
    for name, priority, execute in rows:
        registry._units[(name, "1.0.0")] = FnUnit(execute)
        registry.registry.activate(
            Discovery(name, "1.0.0", reference_manifest(name, "1.0.0", priority, [EP]))
        )
    return registry.snapshot, registry.bound()


def shared_lists(depth):
    """A list of two references to a list of two references to ... : 2**depth
    paths through depth + 1 distinct lists."""
    a = ["leaf"]
    for _ in range(depth):
        a = [a, a]
    return a


class TestRunningCalls:
    def test_no_worker_is_left_counted_once_every_call_returns(self):
        def sometimes_slow(envelope):
            if envelope.payload["n"] % 3 == 0:
                time.sleep(0.03)  # past the 10 ms budget: abandoned while it runs
            return envelope

        snapshot, bound = build_fn_units(("aa", 10, sometimes_slow))

        def client(first):
            for n in range(first, first + 25):
                run_chain(
                    snapshot, EP, make_envelope(EP, {"n": n}), ErrorPolicy.FAIL_OPEN,
                    units=bound, timeout_ms=10,
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client, args=(i * 25,)) for i in range(8)]
            for c in clients:
                c.start()
            for c in clients:
                c.join(timeout=30)
            assert not any(c.is_alive() for c in clients)
        finally:
            sys.setswitchinterval(interval)
        deadline = time.monotonic() + 5
        while bound["aa"].running and time.monotonic() < deadline:
            time.sleep(0.01)
        assert bound["aa"].running == set()

    def test_a_worker_that_cannot_start_fails_the_dispatch_and_leaves_no_token(self, monkeypatch):
        import scpa_host.chain as chain_mod

        snapshot, bound = build_fn_units(("aa", 10, lambda envelope: envelope))

        def refuse(function, args):
            raise RuntimeError("can't start new thread")

        with monkeypatch.context() as patch:
            patch.setattr(chain_mod, "start_new_thread", refuse)
            with pytest.raises(RuntimeError, match="^can't start new thread$"):
                run_chain(snapshot, EP, make_envelope(EP, {}), units=bound)
        assert bound["aa"].running == set()
        out = run_chain(snapshot, EP, make_envelope(EP, {"k": 1}), units=bound)
        assert out.payload == {"k": 1}
        assert [r.outcome for r in out.trace] == [Outcome.OK]

    def test_handlers_that_log_leave_no_thread_behind(self):
        import logging

        logger = logging.getLogger("scpa-test.unit-calls")
        handler = logging.NullHandler()
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        logger.propagate = False

        def logs(envelope):
            logger.info("call %s", envelope.payload["n"])  # reads threading.current_thread()
            return envelope

        snapshot, bound = build_fn_units(("aa", 10, logs), ("bb", 20, logs), ("cc", 30, logs))
        try:
            for n in range(1000):
                out = run_chain(snapshot, EP, make_envelope(EP, {"n": n}), units=bound)
                assert [r.outcome for r in out.trace] == [Outcome.OK] * 3
        finally:
            logger.removeHandler(handler)
        assert len(threading._active) <= 16
        deadline = time.monotonic() + 5
        while any(b.running for b in bound.values()) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert all(b.running == set() for b in bound.values())


class TestEnvelopeIsolation:
    def test_shared_sub_values_are_walked_once(self):
        def returns_shared(envelope):
            return envelope.with_payload({"x": shared_lists(60)})

        snapshot, bound = build_fn_units(("aa", 10, returns_shared))
        box = {}

        def dispatch():
            env = make_envelope(EP, {"x": shared_lists(60)})
            box["out"] = run_chain(snapshot, EP, env, ErrorPolicy.FAIL_OPEN, units=bound)

        worker = threading.Thread(target=dispatch, daemon=True)
        worker.start()
        worker.join(5.0)  # a walk of every path would take centuries at depth 60
        assert not worker.is_alive(), "dispatch still walking a payload of shared lists"
        out = box["out"]
        assert out.trace[0].outcome is Outcome.OK
        x = out.payload["x"]
        for _ in range(60):
            assert x[0] is x[1]
            x = x[0]
        assert x == ["leaf"]

    def test_keys_sharing_a_list_still_share_a_copy(self):
        returned = {}

        def shares(envelope):
            tags = ["a", "b"]
            returned["tags"] = tags
            return envelope.with_payload({"first": tags, "second": tags})

        snapshot, bound = build_fn_units(("aa", 10, shares))
        out = run_chain(snapshot, EP, make_envelope(EP, {}), units=bound)
        assert out.payload["first"] is out.payload["second"]
        assert out.payload["first"] is not returned["tags"]
        assert out.payload["first"] == ["a", "b"]

    def test_no_unit_bound_returns_no_caller_object(self):
        snapshot, bound = build([])
        tags = ["x", "y"]
        meta = {"inner": [1, 2]}
        out = run_chain(snapshot, EP, make_envelope(EP, {"tags": tags, "meta": meta}), units=bound)
        assert value_equal(out.payload, {"tags": ["x", "y"], "meta": {"inner": [1, 2]}})
        assert out.payload["tags"] is not tags
        assert out.payload["meta"] is not meta
        assert out.payload["meta"]["inner"] is not meta["inner"]

    def test_all_units_failing_open_returns_no_caller_object(self):
        snapshot, bound = build(
            [("aa", 10, Behavior(("fail", "one"))), ("bb", 20, Behavior(("fail", "two")))]
        )
        tags = ["x"]
        out = run_chain(
            snapshot, EP, make_envelope(EP, {"tags": tags}), ErrorPolicy.FAIL_OPEN, units=bound
        )
        assert [r.outcome for r in out.trace] == [Outcome.ERROR, Outcome.ERROR]
        assert out.payload == {"tags": ["x"]}
        assert out.payload["tags"] is not tags

    @pytest.mark.parametrize("vandals", [1, 2])
    def test_mutate_then_raise_leaves_envelope_unchanged(self, vandals):
        seen = []

        def vandal(envelope):
            envelope.payload["rows"].append("vandal")
            envelope.payload["rows"][0]["n"] = -1
            envelope.payload["k"] = "vandal"
            raise RuntimeError("after the damage")

        def witness(envelope):
            seen.append(value_equal(envelope.payload, {"k": "", "rows": [{"n": 1}]}))
            payload = dict(envelope.payload)
            payload["k"] = "w"
            return envelope.with_payload(payload)

        # each failed unit damaged its view; the next one gets a fresh copy
        rows = [(f"v{i}", 10 + i, vandal) for i in range(vandals)] + [("witness", 20, witness)]
        snapshot, bound = build_fn_units(*rows)
        out = run_chain(
            snapshot, EP, make_envelope(EP, {"k": "", "rows": [{"n": 1}]}),
            ErrorPolicy.FAIL_OPEN, units=bound,
        )
        assert seen == [True]
        assert value_equal(out.payload, {"k": "w", "rows": [{"n": 1}]})
        assert [r.outcome for r in out.trace] == [Outcome.ERROR] * vandals + [Outcome.OK]

    def test_kept_output_mutated_later_does_not_change_a_result(self):
        kept = []

        def keeper(envelope):
            if kept:
                kept[-1]["rows"].append("later")
                kept[-1]["n"] = 99
            payload = {"n": envelope.payload["n"], "rows": ["first"]}
            kept.append(payload)
            return envelope.with_payload(payload)

        snapshot, bound = build_fn_units(("aa", 10, keeper))
        first = run_chain(snapshot, EP, make_envelope(EP, {"n": 1}), units=bound)
        run_chain(snapshot, EP, make_envelope(EP, {"n": 2}), units=bound)
        assert value_equal(first.payload, {"n": 1, "rows": ["first"]})

    def test_timed_out_unit_mutating_its_view_does_not_change_the_result(self):
        mutated = threading.Event()

        def sleeper(envelope):
            time.sleep(0.2)
            envelope.payload["rows"].append("late")
            envelope.payload["k"] = "late"
            mutated.set()
            return envelope

        snapshot, bound = build_fn_units(("aa", 10, sleeper))
        out = run_chain(
            snapshot, EP, make_envelope(EP, {"k": "", "rows": ["a"]}),
            ErrorPolicy.FAIL_OPEN, units=bound, timeout_ms=50,
        )
        assert "timed out" in out.trace[0].error
        assert mutated.wait(5.0)
        assert value_equal(out.payload, {"k": "", "rows": ["a"]})

    @pytest.mark.parametrize("policy", [ErrorPolicy.FAIL_OPEN, ErrorPolicy.FAIL_CLOSED])
    def test_ten_unit_dispatch_walks_the_payload_once_per_crossing(self, monkeypatch, tmp_path, policy):
        import copy

        import scpa_host.chain as chain_mod
        import scpa_host.contract as contract_mod

        real_copy = contract_mod.copy_value_map
        real_deepcopy = copy.deepcopy
        walks = []
        deepcopies = []

        def counting_copy(value, path="payload", twin=False):
            walks.append((path, twin))
            return real_copy(value, path, twin=twin)

        def counting_deepcopy(*args, **kwargs):
            deepcopies.append(args)
            return real_deepcopy(*args, **kwargs)

        drop = tmp_path / "drop"
        for i in range(10):
            source = (
                "def handle(payload, context):\n"
                f"    return dict(payload, k=payload['k'] + {str(i)!r})\n"
            )
            write_bundle(drop, f"u{i}", "1.0.0", source, [("business", EP, "handle")], priority=i)
        host = Host(HostConfig(drop_dir=drop, error_policy=policy, diagnostics=io.StringIO()))
        host.start()
        try:
            monkeypatch.setattr(contract_mod, "copy_value_map", counting_copy)
            monkeypatch.setattr(chain_mod, "copy_value_map", counting_copy)
            monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
            out = host.dispatch(EP, {"k": "", "rows": [{"n": 1}]})
        finally:
            host.stop()
        assert out["k"] == "0123456789"
        assert deepcopies == []
        # one walk as the caller's payload crosses in, one per unit output;
        # under FAIL_OPEN each walk but the last also makes the next view
        payload_walks = [twin for path, twin in walks if path == "payload"]
        if policy is ErrorPolicy.FAIL_OPEN:
            assert payload_walks == [True] * 10 + [False]
        else:
            assert payload_walks == [False] * 11
