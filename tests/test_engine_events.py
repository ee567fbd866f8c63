"""Unit tests for the op-event protocol: OpEvent validation, the
ExecutionContext span attribution, and the lint-style guarantee that no
call site still uses the old stringly-typed charging helpers."""

import ast
import copy
import pathlib
import pickle

import pytest

from repro.engine import ExecutionContext, OP_KINDS, OpEvent
from repro.errors import InvalidValue

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


class TestOpEventValidation:
    def test_known_kinds_construct(self):
        for kind in OP_KINDS:
            assert OpEvent(kind=kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidValue):
            OpEvent(kind="spmv")

    def test_negative_counts_rejected(self):
        for field in ("items", "flops", "bytes_materialized", "loops",
                      "round_id", "in_nvals", "out_nvals", "mask_bytes",
                      "bytes_not_materialized", "shards", "threads"):
            with pytest.raises(InvalidValue):
                OpEvent(kind="mxv", **{field: -1})

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidValue):
            OpEvent(kind="mxv", mode="sideways")

    def test_bad_method_rejected(self):
        with pytest.raises(InvalidValue):
            OpEvent(kind="mxm", method="gustavson")

    def test_typo_field_name_rejected(self):
        with pytest.raises(TypeError):
            OpEvent(kind="mxv", itmes=3)

    def test_frozen(self):
        event = OpEvent(kind="mxv")
        with pytest.raises(AttributeError):
            event.items = 5
        with pytest.raises(AttributeError):
            del event.items
        with pytest.raises(AttributeError):
            event.extra = 5

    def test_value_semantics(self):
        a = OpEvent(kind="vxm", items=3, mode="push")
        b = OpEvent(**a.as_dict())
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != OpEvent(kind="vxm", items=4, mode="push")
        assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
        assert repr(a).startswith("OpEvent(kind='vxm', label='', items=3, ")
        assert repr(a).endswith("shards=0, threads=0)")

    def test_defaults(self):
        event = OpEvent(kind="do_all", label="demo")
        assert event.items == 0 and not event.barrier and event.mode == ""


class TestExecutionContext:
    def test_span_attributes_loops(self):
        ctx = ExecutionContext()
        ctx.open_span()
        ctx.on_loop(n_items=10, barrier=False, parallel=True)
        ctx.on_loop(n_items=10, barrier=True, parallel=True)
        recorded = ctx.close_span(OpEvent(kind="mxv", items=10))
        assert recorded.loops == 2
        assert recorded.barrier  # a barrier inside the span marks the event
        assert ctx.events == (recorded,)

    def test_serial_loops_not_counted(self):
        ctx = ExecutionContext()
        ctx.open_span()
        ctx.on_loop(n_items=1, barrier=False, parallel=False)
        recorded = ctx.close_span(OpEvent(kind="apply"))
        assert recorded.loops == 0

    def test_unattributed_parallel_loop_becomes_event(self):
        ctx = ExecutionContext()
        ctx.on_loop(n_items=7, barrier=True, parallel=True)
        (event,) = ctx.events
        assert event.kind == "loop" and event.items == 7 and event.loops == 1

    def test_nested_spans_attribute_innermost(self):
        ctx = ExecutionContext()
        ctx.open_span()
        ctx.on_loop(n_items=1, barrier=False, parallel=True)
        ctx.open_span()
        ctx.on_loop(n_items=2, barrier=False, parallel=True)
        inner = ctx.close_span(OpEvent(kind="apply"))
        outer = ctx.close_span(OpEvent(kind="mxv"))
        assert inner.loops == 1 and outer.loops == 1

    def test_round_events_tag_round_id(self):
        ctx = ExecutionContext()
        ctx.on_round(1)
        ctx.open_span()
        recorded = ctx.close_span(OpEvent(kind="mxv"))
        assert recorded.round_id == 1
        kinds = [e.kind for e in ctx.events]
        assert kinds == ["round", "mxv"]

    def test_close_without_open_rejected(self):
        ctx = ExecutionContext()
        with pytest.raises(InvalidValue, match="matching open_span"):
            ctx.close_span(OpEvent(kind="mxv"))
        assert ctx.events == ()

    def test_event_is_stamped_in_place_and_recorded_once(self):
        ctx = ExecutionContext()
        ctx.on_round(2)
        ctx.open_span()
        ctx.on_loop(n_items=1, barrier=True, parallel=True)
        event = OpEvent(kind="assign", items=4)
        recorded = ctx.close_span(event, bytes_materialized=64)
        assert recorded is event and ctx.events[-1] is event
        assert (event.loops, event.barrier, event.round_id,
                event.bytes_materialized) == (1, True, 2, 64)
        ctx.open_span()
        with pytest.raises(InvalidValue, match="already recorded"):
            ctx.close_span(event)
        assert len(ctx.events) == 2

    def test_emitter_stamps_are_checked(self):
        ctx = ExecutionContext()
        for stamps in ({"items": 3}, {"bytes_materialized": -1}):
            ctx.open_span()
            with pytest.raises(InvalidValue):
                ctx.close_span(OpEvent(kind="apply"), **stamps)
        assert ctx.events == ()

    def test_reset_clears(self):
        ctx = ExecutionContext()
        ctx.on_round(3)
        ctx.reset()
        assert ctx.events == ()
        ctx.open_span()
        assert ctx.close_span(OpEvent(kind="mxv")).round_id == 0


class TestProtocolLint:
    """No call site may bypass the typed protocol.

    These walk the AST of every module under ``src/repro`` (docstrings that
    merely *mention* the retired helpers don't count) and fail with the
    offending ``file:line`` list if the old stringly-typed charging
    protocol creeps back in.
    """

    def _call_sites(self, predicate):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if predicate(node):
                    offenders.append(f"{path}:{node.lineno}")
        return offenders

    def test_no_stringly_charge_op_calls(self):
        def is_charge_op_call(node):
            if not isinstance(node, ast.Call):
                return False
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", ""))
            return name == "charge_op"

        assert self._call_sites(is_charge_op_call) == []

    def test_no_loopcharge_usage(self):
        def mentions_loopcharge(node):
            return (isinstance(node, ast.Name) and node.id == "LoopCharge"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "LoopCharge")

        assert self._call_sites(mentions_loopcharge) == []

    def test_no_raw_info_kwargs(self):
        def is_star_star_info(node):
            return (isinstance(node, ast.keyword) and node.arg is None
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "info")

        assert self._call_sites(is_star_star_info) == []
