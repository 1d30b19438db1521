"""Chain engine: ordering, directives, containment, traces, termination."""

import itertools
import threading

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
from scpa_host.registry import HandlerRef

from _util import MemoryRegistry, record_sequence_ok

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

    def test_annotations_flow_between_units(self):
        class NoteTaker:
            def __init__(self, name, note):
                self.name = name
                self.note = note

            def load(self, context):
                return None

            def execute(self, envelope):
                from dataclasses import replace

                annotations = dict(envelope.annotations)
                annotations[self.name] = self.note
                payload = dict(envelope.payload)
                payload["seen_notes"] = sorted(envelope.annotations)
                return replace(envelope, payload=payload, annotations=annotations)

            def next(self, envelope):
                return CONTINUE

        registry = MemoryRegistry()
        registry._units[("nn", "1.0.0")] = NoteTaker("nn", "first")
        registry._units[("oo", "1.0.0")] = NoteTaker("oo", "second")
        from scpa_host.registry import Discovery
        from _util import reference_manifest

        registry.registry.activate(Discovery("nn", "1.0.0", reference_manifest("nn", "1.0.0", 10, [EP])))
        registry.registry.activate(Discovery("oo", "1.0.0", reference_manifest("oo", "1.0.0", 20, [EP])))
        out = run_chain(registry.snapshot, EP, make_envelope(EP, {}), units=registry.bound())
        assert out.payload["seen_notes"] == ["nn"]
        assert out.annotations == {"nn": "first", "oo": "second"}

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
