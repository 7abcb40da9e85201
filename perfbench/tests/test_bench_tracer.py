"""The tracer restores every binding it wraps, and its self-time arithmetic."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import rlexec  # noqa: E402
import rlexec.cli  # noqa: E402
from rlexec import agent, almgren_chriss, backtest, execution, market_data  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

LAYERS = (market_data, execution, almgren_chriss, agent, backtest)
BINDINGS = (*LAYERS, rlexec.cli, rlexec)


def test_wrap_then_restore_leaves_every_binding_as_it_was():
    before = [dict(vars(module)) for module in BINDINGS]
    tracer = Tracer()
    names = tracer.wrap(LAYERS, BINDINGS)
    try:
        assert "execution.walk_book" in names and "agent.train" in names
        for module in (agent, backtest, almgren_chriss, execution, rlexec):
            assert module.walk_book is not before[BINDINGS.index(execution)]["walk_book"]
        assert agent.walk_book is backtest.walk_book  # one wrapper per function
        assert rlexec.cli.ingest_csv is market_data.ingest_csv
        with pytest.raises(RuntimeError):
            tracer.wrap(LAYERS, BINDINGS)
    finally:
        tracer.restore()
    after = [dict(vars(module)) for module in BINDINGS]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[key] is new[key] for key in old)


def test_calls_through_any_binding_nest_under_the_caller():
    tracer = Tracer({"execution.walk_book": lambda args, kwargs, fill: fill.executed})
    tracer.wrap(LAYERS, BINDINGS)
    try:
        tracer.run_id = "r"
        with tracer.span("root"):
            agent.walk_book([100.0, 101.0], [5.0, 5.0], 7.0)
            backtest.walk_book([100.0, 101.0], [5.0, 5.0], 2.0)
    finally:
        tracer.restore()
    root, first, second = tracer.spans
    assert (root.name, root.parent) == ("root", None)
    assert [(s.name, s.parent, s.summary, s.run_id) for s in (first, second)] == [
        ("execution.walk_book", 0, 7.0, "r"),
        ("execution.walk_book", 0, 2.0, "r"),
    ]
    assert root.start <= first.start <= first.end <= second.start <= second.end <= root.end


def test_span_is_closed_when_the_call_raises():
    tracer = Tracer()
    tracer.wrap(LAYERS, BINDINGS)
    try:
        with pytest.raises(ValueError):
            execution.walk_book([100.0], [5.0], -1.0)
    finally:
        tracer.restore()
    (span,) = tracer.spans
    assert span.end >= span.start > 0.0


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("b", 2.0, 4.0, 0, "r"),  # overlaps a: together they cover 1..4
        Span("c", 5.0, 6.0, 0, "r"),
        Span("d", 5.2, 5.8, 3, "r"),  # grandchild: counts against c, not root
        Span("other", 20.0, 21.0, None, "r"),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 0.4, 0.6, 1.0])
