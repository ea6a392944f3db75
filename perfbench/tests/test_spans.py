import pytest

from perfbench.spans import ROOT, Recorder, Span, covered_share, self_times, union_length


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nested_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > g [2, 3]; root > b [5, 9]
    rec = Recorder(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    root = rec.open("root")
    a = rec.open("a")
    g = rec.open("g")
    rec.close(g)
    rec.close(a)
    b = rec.open("b")
    rec.close(b)
    rec.close(root)
    spans = rec.spans
    assert [s.parent for s in spans] == [ROOT, root, a, root]
    assert [s.duration for s in spans] == [10, 3, 1, 4]
    assert self_times(spans) == [3, 2, 1, 4]


def test_union_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert union_length([(4, 4), (3, 1)]) == 0
    assert union_length([]) == 0


def test_self_time_counts_overlapping_or_overhanging_children_once():
    spans = [Span("p", 0.0, 10.0),
             Span("c1", 1.0, 5.0, parent=0),
             Span("c2", 3.0, 7.0, parent=0),
             Span("c3", 8.0, 12.0, parent=0)]
    # children cover [1, 7] and [8, 10] inside the parent
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_covered_share_is_union_over_named_spans():
    spans = [Span("root", 0.0, 10.0),
             Span("fit", 0.0, 4.0, parent=0),
             Span("grad", 1.0, 3.0, parent=1),
             Span("lp", 6.0, 8.0, parent=0)]
    assert covered_share(spans, {"fit", "grad"}, spans[0]) == pytest.approx(0.4)
    assert covered_share(spans, {"lp", "grad"}, spans[0]) == pytest.approx(0.4)
    assert covered_share(spans, {"none"}, spans[0]) == 0.0


def test_close_out_of_order_raises():
    rec = Recorder(clock=fake_clock(0, 1, 2, 3))
    outer = rec.open("fit")
    inner = rec.open("grad")
    with pytest.raises(RuntimeError):
        rec.close(outer)
    rec.close(inner)
    rec.close(outer)
    assert rec.spans[outer].duration == 3
