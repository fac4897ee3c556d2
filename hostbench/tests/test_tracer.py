import json
from itertools import count

import pytest

from tracer import Span, Tracer, covered, self_times, unattributed


def spans(*rows):
    return [Span(i, parent, layer, layer, start, end, 1) for i, (parent, layer, start, end)
            in enumerate(rows)]


def test_nested_spans_subtract_only_their_children():
    # a[0,10] > b[2,5] > c[3,4]
    got = self_times(spans((-1, "a", 0, 10), (0, "b", 2, 5), (1, "c", 3, 4)))
    assert got == pytest.approx({"a": 7, "b": 2, "c": 1})


def test_sibling_spans_each_subtract_from_the_parent():
    # a[0,10] > b[1,3], c[4,8]
    got = self_times(spans((-1, "a", 0, 10), (0, "b", 1, 3), (0, "c", 4, 8)))
    assert got == pytest.approx({"a": 4, "b": 2, "c": 4})


def test_spans_of_one_layer_add_up():
    got = self_times(spans((-1, "a", 0, 4), (0, "a", 1, 2), (-1, "b", 5, 6), (2, "a", 5, 5.5)))
    assert got == pytest.approx({"a": 3 + 1 + 0.5, "b": 0.5})


def test_children_that_overlap_are_covered_once():
    got = self_times(spans((-1, "a", 0, 10), (0, "b", 1, 5), (0, "c", 4, 6)))
    assert got["a"] == pytest.approx(5)
    assert covered([(4, 6), (1, 5), (8, 9)]) == pytest.approx(6)


def test_self_times_and_unattributed_sum_to_wall():
    s = spans((-1, "a", 1, 4), (0, "b", 2, 3), (-1, "c", 5, 9), (2, "d", 6, 8))
    assert sum(self_times(s).values()) + unattributed(s, 10) == pytest.approx(10)
    assert unattributed(s, 10) == pytest.approx(3)


def test_tracer_records_the_call_tree():
    tracer = Tracer(clock=count().__next__)

    def leaf():
        return 1

    def outer():
        return leaf() + leaf()

    leaf_t = tracer.span(leaf, "leaf", "leaf")
    outer_t = tracer.span(lambda: leaf_t() + leaf_t(), "outer", "outer")
    assert outer_t() == outer()
    got = tracer.finished()
    assert [(s.layer, s.parent) for s in got] == [("outer", -1), ("leaf", 0), ("leaf", 0)]
    # clock ticks: outer 0..5, leaves 1..2 and 3..4
    assert self_times(got) == {"outer": 3, "leaf": 2}
    assert json.loads(json.dumps(got[1])) == [1, 0, "leaf", "leaf", 1, 2, 0, None]


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=count().__next__)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span(boom, "l", "boom")()
    (s,) = tracer.finished()
    assert (s.start, s.end, s.parent) == (0, 1, -1)
    assert not tracer._stack


def test_layer_may_depend_on_the_first_argument_and_measure_on_the_result():
    tracer = Tracer(clock=count().__next__)
    fn = tracer.span(lambda x: [x] * x, lambda x: f"l{x % 2}", "f",
                     measure=lambda args, result: len(result))
    fn(3), fn(2)
    assert [(s.layer, s.n) for s in tracer.finished()] == [("l1", 3), ("l0", 2)]


class Thing:
    def hot(self):
        return 7


def test_patches_come_off_again():
    tracer = Tracer()
    original = Thing.__dict__["hot"]
    tracer.patch(Thing, "hot", tracer.counter(original, "hot"))
    tracer.run = 4
    assert Thing().hot() == 7 and Thing().hot() == 7
    assert tracer.counts[(4, "hot")] == 2 and tracer.finished() == []
    tracer.uninstall()
    assert Thing.__dict__["hot"] is original
