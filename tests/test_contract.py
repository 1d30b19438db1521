"""Manifest format, payload verification, value maps, and reference units."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from scpa_host.contract import (
    Behavior,
    BadValue,
    CONTINUE,
    ChecksumMismatch,
    Continue,
    Divert,
    DuplicateBinding,
    EXTENSION_POINT_RE,
    Envelope,
    FAST_COPY_MIN,
    ExecutionRecord,
    Layer,
    LayerBinding,
    Manifest,
    MissingField,
    NAME_RE,
    Outcome,
    STOP,
    Stop,
    INT64_MAX,
    INT64_MIN,
    UnitExecutionError,
    ValueMapError,
    copy_value_map,
    format_directive,
    make_envelope,
    parse_directive,
    parse_manifest,
    parse_version,
    payload_checksum,
    reference_unit,
    serialize_manifest,
    validate_value_map,
    value_equal,
    verify_payload,
)
from sha256_oracle import sha256_hex

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

BASE_MANIFEST = (
    "name: sales-by-product\n"
    "version: 1.0.0\n"
    "priority: 100\n"
    "reentrant: true\n"
    "payload_ref: payload.bin\n"
    f"checksum: {EMPTY_SHA256}\n"
    "binding: business business.sales.compute compute_sales\n"
)


class TestParseManifest:
    def test_direct_field_mapping(self):
        m = parse_manifest(BASE_MANIFEST)
        assert m.name == "sales-by-product"
        assert m.version == "1.0.0"
        assert m.priority == 100
        assert m.reentrant is True
        assert m.payload_ref == "payload.bin"
        assert m.checksum == EMPTY_SHA256
        assert len(m.bindings) == 1
        assert m.bindings[0] == LayerBinding(
            Layer.BUSINESS, "business.sales.compute", "compute_sales"
        )

    def test_missing_binding_line(self):
        text = BASE_MANIFEST.replace(
            "binding: business business.sales.compute compute_sales\n", ""
        )
        with pytest.raises(MissingField) as err:
            parse_manifest(text)
        assert err.value.key == "binding"

    def test_two_bindings_across_layers(self):
        text = BASE_MANIFEST.replace(
            "binding: business business.sales.compute compute_sales\n",
            "binding: ui ui.product.render r1\nbinding: data data.sales.read r2\n",
        )
        m = parse_manifest(text)
        assert len(m.bindings) == 2
        assert {b.layer for b in m.bindings} == {Layer.UI, Layer.DATA}

    @pytest.mark.parametrize("key", ["name", "version", "priority", "reentrant", "payload_ref", "checksum"])
    def test_missing_required_key(self, key):
        text = "\n".join(
            line for line in BASE_MANIFEST.splitlines() if not line.startswith(f"{key}:")
        )
        with pytest.raises(MissingField) as err:
            parse_manifest(text)
        assert err.value.key == key

    def test_crlf_and_comments_accepted(self):
        text = "# a unit\r\n" + BASE_MANIFEST.replace("\n", "\r\n") + "\r\n# end\r\n"
        m = parse_manifest(text)
        assert m.name == "sales-by-product"

    def test_unknown_keys_warn_and_ignore(self):
        warnings = []
        text = BASE_MANIFEST + "future_key: whatever\n"
        m = parse_manifest(text, on_warning=warnings.append)
        assert m.name == "sales-by-product"
        assert len(warnings) == 1
        assert "future_key" in warnings[0]

    def test_duplicate_scalar_key_rejected(self):
        with pytest.raises(BadValue) as err:
            parse_manifest(BASE_MANIFEST + "name: other\n")
        assert err.value.key == "name"

    def test_duplicate_binding_rejected(self):
        text = BASE_MANIFEST + "binding: business business.sales.compute other_handler\n"
        with pytest.raises(DuplicateBinding) as err:
            parse_manifest(text)
        assert err.value.extension_point == "business.sales.compute"

    def test_same_extension_point_different_layer_allowed(self):
        text = BASE_MANIFEST + "binding: ui business.sales.compute render_it\n"
        m = parse_manifest(text)
        assert len(m.bindings) == 2

    @pytest.mark.parametrize(
        "line,key",
        [
            ("priority: -1", "priority"),
            ("priority: 10001", "priority"),
            ("priority: ten", "priority"),
            ("reentrant: yes", "reentrant"),
            ("version: 1.0", "version"),
            ("version: 1.0.0.0", "version"),
            ("version: 01.0.0", "version"),
            ("name: Sales", "name"),
            ("name: 1sales", "name"),
            ("checksum: abc", "checksum"),
            ("payload_ref: /abs/path", "payload_ref"),
            ("payload_ref: ../escape", "payload_ref"),
        ],
    )
    def test_bad_scalar_values(self, line, key):
        field = line.split(":")[0]
        text = "\n".join(
            line if raw.startswith(f"{field}:") else raw
            for raw in BASE_MANIFEST.splitlines()
        )
        with pytest.raises(BadValue) as err:
            parse_manifest(text)
        assert err.value.key == key

    def test_binding_token_count(self):
        text = BASE_MANIFEST.replace(
            "binding: business business.sales.compute compute_sales",
            "binding: business business.sales.compute",
        )
        with pytest.raises(BadValue):
            parse_manifest(text)

    def test_name_length_bound(self):
        long_name = "a" * 65
        with pytest.raises(BadValue):
            parse_manifest(BASE_MANIFEST.replace("sales-by-product", long_name))
        parse_manifest(BASE_MANIFEST.replace("sales-by-product", "a" * 64))

    def test_extension_point_requires_dotted_segments(self):
        text = BASE_MANIFEST.replace("business.sales.compute", "business")
        with pytest.raises(BadValue):
            parse_manifest(text)

    def test_bad_layer(self):
        text = BASE_MANIFEST.replace("binding: business ", "binding: cloud ")
        with pytest.raises(BadValue):
            parse_manifest(text)

    def test_line_without_colon(self):
        with pytest.raises(BadValue):
            parse_manifest(BASE_MANIFEST + "not a key value line\n")


_name_st = st.from_regex(r"[a-z][a-z0-9-]{0,20}", fullmatch=True)
_version_st = st.tuples(
    st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)
).map(lambda t: f"{t[0]}.{t[1]}.{t[2]}")
_segment_st = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_ep_st = st.lists(_segment_st, min_size=2, max_size=4).map(".".join)
_handler_st = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,12}", fullmatch=True)
_checksum_st = st.from_regex(r"[0-9a-f]{64}", fullmatch=True)
_payload_ref_st = st.from_regex(r"[a-z][a-z0-9_]{0,10}\.(py|bin|so)", fullmatch=True)
_description_st = st.one_of(
    st.none(),
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=40,
    ),
)


@st.composite
def manifests(draw):
    layers = list(Layer)
    raw_bindings = draw(
        st.lists(
            st.tuples(st.sampled_from(layers), _ep_st, _handler_st),
            min_size=1,
            max_size=4,
            unique_by=lambda t: (t[0], t[1]),
        )
    )
    return Manifest(
        name=draw(_name_st),
        version=draw(_version_st),
        priority=draw(st.integers(0, 10000)),
        reentrant=draw(st.booleans()),
        bindings=tuple(LayerBinding(*t) for t in raw_bindings),
        payload_ref=draw(_payload_ref_st),
        checksum=draw(_checksum_st),
        description=draw(_description_st),
    )


class TestManifestProperties:
    @given(manifests())
    @settings(max_examples=150)
    def test_serialize_parse_round_trip(self, manifest):
        assert parse_manifest(serialize_manifest(manifest)) == manifest

    @given(manifests(), st.randoms())
    @settings(max_examples=150)
    def test_mutated_text_never_yields_invalid_manifest(self, manifest, rng):
        lines = serialize_manifest(manifest).splitlines()
        op = rng.choice(["drop", "dup", "corrupt", "inject"])
        i = rng.randrange(len(lines))
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "corrupt":
            line = lines[i]
            j = rng.randrange(len(line))
            lines[i] = line[:j] + rng.choice("#:/ @Z.") + line[j + 1 :]
        else:
            lines.insert(i, rng.choice(["priority: 99999", "version: x", "junk"]))
        try:
            parsed = parse_manifest("\n".join(lines))
        except (MissingField, BadValue, DuplicateBinding):
            return
        assert NAME_RE.match(parsed.name) and 1 <= len(parsed.name) <= 64
        parse_version(parsed.version)
        assert 0 <= parsed.priority <= 10000
        assert parsed.bindings
        seen = set()
        for b in parsed.bindings:
            assert EXTENSION_POINT_RE.match(b.extension_point)
            assert (b.layer, b.extension_point) not in seen
            seen.add((b.layer, b.extension_point))


class TestVerifyPayload:
    def test_empty_payload_known_digest(self):
        manifest = parse_manifest(BASE_MANIFEST)
        verify_payload(manifest, b"")

    def test_mismatch(self):
        manifest = parse_manifest(BASE_MANIFEST)
        with pytest.raises(ChecksumMismatch) as err:
            verify_payload(manifest, b"abc")
        assert err.value.expected == EMPTY_SHA256
        assert err.value.actual == hashlib.sha256(b"abc").hexdigest()

    def test_self_computed_digest_verifies(self):
        rng = random.Random(7)
        payload = bytes(rng.randrange(256) for _ in range(300))
        text = BASE_MANIFEST.replace(EMPTY_SHA256, payload_checksum(payload))
        verify_payload(parse_manifest(text), payload)

    def test_agrees_with_independent_oracle(self):
        rng = random.Random(1234)
        for _ in range(100):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
            assert payload_checksum(data) == sha256_hex(data)


class TestValueMap:
    def test_accepts_all_kinds(self):
        validate_value_map(
            {
                "text": "x",
                "int": 3,
                "float": 1.5,
                "bool": True,
                "bytes": b"\x00",
                "list": [1, "a", {"k": False}],
                "map": {"inner": [2.0]},
            }
        )

    @pytest.mark.parametrize(
        "payload",
        [
            {"": 1},
            {1: "x"},
            {"k": None},
            {"k": 2**63},
            {"k": -(2**63) - 1},
            {"k": {"": 1}},
            {"k": [None]},
            {"k": object()},
        ],
    )
    def test_rejects_bad_shapes(self, payload):
        with pytest.raises(ValueError):
            validate_value_map(payload)

    def test_value_equal_distinguishes_kinds(self):
        assert value_equal({"k": 1}, {"k": 1})
        assert not value_equal({"k": True}, {"k": 1})
        assert not value_equal({"k": 1}, {"k": 1.0})
        assert not value_equal({"k": "1"}, {"k": 1})
        assert value_equal({"k": [1, {"a": "b"}]}, {"k": [1, {"a": "b"}]})
        assert not value_equal({"k": [1]}, {"k": [1, 2]})


scalars_st = st.one_of(
    st.text(max_size=4),
    st.integers(INT64_MIN, INT64_MAX),
    st.floats(allow_nan=False),
    st.booleans(),
    st.binary(max_size=4),
)
keys_st = st.text(min_size=1, max_size=3)


class Key(str):
    pass


class Row(dict):
    pass


class Items(list):
    pass


def large_container(draw, pool):
    """Rows, a flat list or a flat map of at least FAST_COPY_MIN items, the
    shapes the walker copies at C speed, sometimes with one twist that
    sends it down the item walk: a shared row, a subclass or a str-subclass
    key at a random position."""
    n = draw(st.integers(FAST_COPY_MIN, FAST_COPY_MIN + 2))
    scalars = draw(st.lists(scalars_st, min_size=1, max_size=3))
    kind = draw(st.sampled_from(("rows", "list", "map")))
    if kind == "rows":
        keys = draw(st.lists(keys_st, max_size=3, unique=True))
        made = [{k: scalars[(i + j) % len(scalars)] for j, k in enumerate(keys)} for i in range(n)]
    elif kind == "list":
        made = [scalars[i % len(scalars)] for i in range(n)]
    else:
        made = {f"k{i}": scalars[i % len(scalars)] for i in range(n)}
    at = draw(st.integers(0, n - 1))
    twist = draw(st.sampled_from(("none", "none", "shared", "subclass", "key")))
    if kind == "rows":
        if twist == "shared":
            made[at] = made[draw(st.integers(0, n - 1))]
        elif twist == "subclass":
            made[at] = Row(made[at])
        elif twist == "key" and made[at]:
            key = next(iter(made[at]))
            made[at][Key(key)] = made[at].pop(key)
        pool.append(made[at])  # a row may show up again elsewhere
    elif kind == "list" and twist == "subclass":
        made[at] = Items(made[at : at + 2])
    elif kind == "map" and twist in ("key", "subclass"):
        made[Key(f"k{at}")] = made.pop(f"k{at}")
        if twist == "subclass":
            made = Row(made)
    elif kind == "list" and twist == "key":
        made = Items(made)
    return made


@st.composite
def shared_value_maps(draw, depth=4):
    """Value maps in which a finished list or map may appear again, and
    containers large enough for the walker's fast path may occur."""
    pool = []

    def value(depth):
        kinds = ("scalar", "list", "map", "large", "again") if depth else ("scalar", "again")
        kind = draw(st.sampled_from(kinds))
        if kind == "again" and pool:
            return draw(st.sampled_from(pool))
        if kind == "list":
            made = [value(depth - 1) for _ in range(draw(st.integers(0, 3)))]
        elif kind == "map":
            made = mapping(depth - 1)
        elif kind == "large":
            made = large_container(draw, pool)
        else:
            return draw(scalars_st)
        pool.append(made)
        return made

    def mapping(depth):
        return {key: value(depth) for key in draw(st.lists(keys_st, max_size=3, unique=True))}

    return mapping(depth)


def containers(value):
    """Every distinct list and map reachable from value."""
    seen = {}
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (dict, list)) and id(item) not in seen:
            seen[id(item)] = item
            stack.extend(item.values() if isinstance(item, dict) else item)
    return list(seen.values())


def container_pairs(original, copied, pairs):
    """(original container, its counterpart in the copy), once per position."""
    if isinstance(original, dict):
        pairs.append((original, copied))
        for key in original:
            container_pairs(original[key], copied[key], pairs)
    elif isinstance(original, list):
        pairs.append((original, copied))
        for a, b in zip(original, copied):
            container_pairs(a, b, pairs)
    return pairs


BAD_VALUES = (None, 2**63, -(2**63) - 1, 1j, (), {1, 2}, object())
BAD_KEYS = ("", 7, None, b"k", ("t",))


@st.composite
def invalid_value_maps(draw):
    value = draw(shared_value_maps())
    target = draw(st.sampled_from(containers(value)))
    if isinstance(target, list):
        target.insert(draw(st.integers(0, len(target))), draw(st.sampled_from(BAD_VALUES)))
    elif draw(st.booleans()):
        target[draw(st.sampled_from(BAD_KEYS))] = "fine"
    else:
        target[draw(keys_st)] = draw(st.sampled_from(BAD_VALUES))
    return value


def reference_error(value, path="payload"):
    """Independent oracle: the first rule a depth-first walk finds broken."""
    if not isinstance(value, dict):
        return f"{path}: expected a mapping, got {type(value).__name__}"
    for key, item in value.items():
        if not isinstance(key, str) or not key:
            return f"{path}: keys must be non-empty text, got {key!r}"
        error = _reference_item_error(item, f"{path}.{key}")
        if error:
            return error
    return None


def _reference_item_error(value, path):
    if isinstance(value, bool) or isinstance(value, (str, float, bytes)):
        return None
    if isinstance(value, int):
        return None if INT64_MIN <= value <= INT64_MAX else f"{path}: integer outside 64-bit signed range"
    if isinstance(value, list):
        for i, item in enumerate(value):
            error = _reference_item_error(item, f"{path}[{i}]")
            if error:
                return error
        return None
    if isinstance(value, dict):
        return reference_error(value, path)
    return f"{path}: unsupported value type {type(value).__name__}"


def walk(value, path="payload", twin=False):
    """The copies one walk makes: one, or the two of a twin walk."""
    if twin:
        return list(copy_value_map(value, path, twin=True))
    return [copy_value_map(value, path)]


class TestCopyValueMap:
    @pytest.mark.parametrize("twin", [False, True])
    @given(shared_value_maps())
    @settings(max_examples=200, deadline=None)
    def test_copy_is_equal_disjoint_and_keeps_sharing(self, twin, value):
        copies = walk(value, twin=twin)
        seen = {id(c) for c in containers(value)}
        for copied in copies:
            assert value_equal(copied, value)
            inside = [id(c) for c in containers(copied)]
            assert seen.isdisjoint(inside)  # shares nothing with the source or the other copy
            seen.update(inside)
            assert all(type(c) in (dict, list) for c in containers(copied))
            copy_of, original_of = {}, {}
            for original, twin_of in container_pairs(value, copied, []):
                assert copy_of.setdefault(id(original), twin_of) is twin_of
                assert original_of.setdefault(id(twin_of), original) is original

    @pytest.mark.parametrize("twin", [False, True])
    @given(invalid_value_maps(), st.sampled_from(["payload", "annotations"]))
    @settings(max_examples=200, deadline=None)
    def test_invalid_maps_fail_with_the_same_message(self, twin, value, path):
        expected = reference_error(value, path)
        assert expected is not None
        with pytest.raises(ValueMapError) as copied:
            walk(value, path, twin)
        with pytest.raises(ValueMapError) as validated:
            validate_value_map(value, path)
        assert str(copied.value) == str(validated.value) == expected

    def test_flat_shapes_take_the_fast_path_and_shared_rows_do_not(self, monkeypatch):
        import scpa_host.contract as contract_mod

        real = contract_mod._copy_flat_list
        results = []

        def spy(src, memo, twin):
            results.append(real(src, memo, twin))
            return results[-1]

        monkeypatch.setattr(contract_mod, "_copy_flat_list", spy)
        n = FAST_COPY_MIN
        rows = [{"id": f"p{i}", "qty": i, "ok": True} for i in range(n)]
        flat = list(range(n))
        payload = {"rows": rows, "flat": flat, "again": rows[0], "short": flat[: n - 1]}
        for twin in (False, True):
            results.clear()
            copies = walk(payload, twin=twin)
            assert len(results) == 2 and all(r is not None for r in results)
            for copied in copies:
                assert value_equal(copied, payload)
                assert copied["again"] is copied["rows"][0]  # the memo knows the fast-path rows
        results.clear()
        copied = copy_value_map({"rows": rows + [rows[1]]})
        assert results == [None]
        assert copied["rows"][-1] is copied["rows"][1]

    @pytest.mark.parametrize("value", [[], "x", None, (("k", 1),)])
    def test_top_level_must_be_a_map(self, value):
        with pytest.raises(ValueMapError, match="^annotations: expected a mapping"):
            copy_value_map(value, "annotations")

    def test_subclasses_become_plain_containers(self):
        from collections import OrderedDict

        class Tags(list):
            def __iter__(self):
                return iter(["forged"])

        copied = copy_value_map({"m": OrderedDict(a=1), "t": Tags(["real"])})
        assert type(copied["m"]) is dict and type(copied["t"]) is list
        assert copied == {"m": {"a": 1}, "t": ["real"]}


class TestDirectives:
    @pytest.mark.parametrize(
        "directive,text",
        [(CONTINUE, "continue"), (STOP, "stop"), (Divert("next-one"), "divert:next-one")],
    )
    def test_format_parse_round_trip(self, directive, text):
        assert format_directive(directive) == text
        assert parse_directive(text) == directive

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_directive("sideways")

    def test_divert_target_validated(self):
        with pytest.raises(ValueError):
            Divert("Not A Name")


class TestExecutionRecord:
    def test_error_requires_message(self):
        with pytest.raises(ValueError):
            ExecutionRecord("u", "1.0.0", "h", Outcome.ERROR, 10)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ExecutionRecord("u", "1.0.0", "h", Outcome.OK, -1, directive=CONTINUE)


class TestEnvelope:
    def test_make_envelope_validates(self):
        env = make_envelope("business.x.y", {"k": 1})
        assert env.extension_point == "business.x.y"
        assert env.trace == ()
        with pytest.raises(ValueError):
            make_envelope("notdotted", {})
        with pytest.raises(ValueError):
            make_envelope("a.b", {"k": object()})

    def test_ids_unique(self):
        ids = {make_envelope("a.b", {}).id for _ in range(500)}
        assert len(ids) == 500


class TestReferenceUnit:
    def test_append_behavior(self):
        unit = reference_unit("u", "1.0.0", {"a.b": Behavior(("append", "k", "a"))})
        env = make_envelope("a.b", {"k": ""})
        out = unit.execute(env)
        assert out.payload["k"] == "a"
        assert env.payload["k"] == ""
        assert unit.next(out) == CONTINUE

    def test_set_and_directive(self):
        unit = reference_unit("u", "1.0.0", {"a.b": Behavior(("set", "k", 1), STOP)})
        out = unit.execute(make_envelope("a.b", {}))
        assert out.payload["k"] == 1
        assert isinstance(unit.next(out), Stop)

    def test_fail_behavior_raises_and_leaves_input_alone(self):
        unit = reference_unit("u", "1.0.0", {"a.b": Behavior(("fail", "boom"))})
        env = make_envelope("a.b", {"k": "orig"})
        with pytest.raises(UnitExecutionError, match="boom"):
            unit.execute(env)
        assert env.payload == {"k": "orig"}

    def test_invalid_behavior_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Behavior(("explode",))
        with pytest.raises(ValueError):
            Behavior(("append", "k"))
        with pytest.raises(ValueError):
            Behavior(("set", "k", 1), directive="continue")

    def test_call_log_records_methods(self):
        unit = reference_unit("u", "1.0.0", {"a.b": Behavior(("set", "k", 1))})
        unit.load(None)
        env = make_envelope("a.b", {})
        out = unit.execute(env)
        unit.next(out)
        assert unit.method_sequence() == ["load", "execute", "next"]
