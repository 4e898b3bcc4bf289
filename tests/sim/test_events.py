"""Unit and property tests for the event queue: tuple entries, ordering,
determinism, and agreement with a sorted-list reference model."""

from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Kernel
from repro.sim.events import EventQueue, PRIORITY_LATE, PRIORITY_NORMAL


def _drain(q: EventQueue) -> None:
    while (entry := q.pop()) is not None:
        entry[3](*entry[4])


def test_pop_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(3.0, fired.append, ("c",))
    q.push(1.0, fired.append, ("a",))
    q.push(2.0, fired.append, ("b",))
    _drain(q)
    assert fired == ["a", "b", "c"]


def test_same_time_pops_in_push_order():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push(1.0, order.append, (i,))
    _drain(q)
    assert order == list(range(10))


def test_priority_breaks_ties_before_seq():
    q = EventQueue()
    order = []
    q.push(1.0, order.append, ("late",), priority=PRIORITY_LATE)
    q.push(1.0, order.append, ("normal",), priority=PRIORITY_NORMAL)
    _drain(q)
    assert order == ["normal", "late"]


def test_entry_is_a_plain_tuple():
    q = EventQueue()
    fn = lambda: None  # noqa: E731
    q.push(1.5, fn, ("x",), priority=PRIORITY_LATE)
    assert q.pop() == (1.5, PRIORITY_LATE, 0, fn, ("x",))


def test_unorderable_fn_never_reaches_comparison():
    """seq is unique, so tuple comparison stops before fn: callbacks that
    raise on ``<`` can share a (time, priority) key in heap and lane."""

    class Unorderable:
        def __lt__(self, other):
            raise AssertionError("fn was compared")

        __gt__ = __le__ = __ge__ = __lt__

        def __call__(self):
            pass

    q = EventQueue()
    for _ in range(6):
        q.push(1.0, Unorderable())
        q.push_immediate(1.0, Unorderable())
    seqs = []
    while (entry := q.pop()) is not None:
        seqs.append(entry[2])
    assert seqs == list(range(12))


def test_len_counts_only_live_events():
    """Every entry held is live (nothing can be cancelled): heap + lane."""
    q = EventQueue()
    for i in range(5):
        q.push(float(i), lambda: None)
    q.push_immediate(0.0, lambda: None)
    assert len(q) == 6
    q.pop()
    assert len(q) == 5


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(float("nan"), lambda: None)
    assert len(q) == 0


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


# ----------------------------------------------------------------------
# Reference model (ROADMAP 5(d)): a sorted list keyed (time, priority, seq)
# ----------------------------------------------------------------------
class SortedListQueue:
    """What the queue must be indistinguishable from."""

    def __init__(self) -> None:
        self.items: list[tuple] = []
        self.seq = 0

    def push(self, time: float, priority: int, label) -> None:
        insort(self.items, (time, priority, self.seq, label))
        self.seq += 1

    def pop(self):
        return self.items.pop(0) if self.items else None


#: few distinct instants, so ties on time (and on time+priority) are common
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_PRIORITIES = st.sampled_from([PRIORITY_NORMAL, PRIORITY_LATE])
_OPS = st.one_of(
    st.tuples(st.just("push"), _TIMES, _PRIORITIES),
    st.tuples(st.just("immediate"), _TIMES),
    st.tuples(st.just("pop")),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=60))
def test_property_queue_matches_sorted_list_model(ops):
    """Any interleaving of push / push_immediate / pop yields the model's
    entries in the model's order, and the lengths agree throughout."""
    q, model = EventQueue(), SortedListQueue()
    fn = object()  # un-orderable and never called: only the key may order
    for label, op in enumerate(ops):
        if op[0] == "push":
            q.push(op[1], fn, (label,), priority=op[2])
            model.push(op[1], op[2], label)
        elif op[0] == "immediate":
            q.push_immediate(op[1], fn, (label,))
            model.push(op[1], PRIORITY_NORMAL, label)
        else:
            got, want = q.pop(), model.pop()
            assert (got is None) == (want is None)
            if got is not None:
                assert (*got[:3], got[4][0]) == want
        assert len(q) == len(model.items)
    while (want := model.pop()) is not None:
        got = q.pop()
        assert (*got[:3], got[4][0]) == want
    assert q.pop() is None


#: an event: (delay, priority, events it schedules when it fires)
_EVENT_TREES = st.recursive(
    st.tuples(_TIMES, _PRIORITIES, st.just(())),
    lambda children: st.tuples(
        _TIMES, _PRIORITIES, st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_EVENT_TREES, min_size=1, max_size=6))
def test_property_kernel_run_order_matches_sorted_list_model(roots):
    """``Kernel.run()``'s inline lane/heap merge executes callbacks —
    including ones scheduled from inside callbacks, which ride the lane
    when their delay is zero — in the model's (time, priority, seq) order."""
    kernel = Kernel()
    executed: list[tuple] = []

    def schedule(node, path):
        delay, priority, children = node
        kernel.schedule(delay, fire, path, children, priority=priority)

    def fire(path, children):
        executed.append((kernel.now, path))
        for i, child in enumerate(children):
            schedule(child, path + (i,))

    for i, root in enumerate(roots):
        schedule(root, (i,))
    kernel.run()

    model = SortedListQueue()
    expected: list[tuple] = []
    for i, (delay, priority, children) in enumerate(roots):
        model.push(delay, priority, ((i,), children))
    while (item := model.pop()) is not None:
        now, _, _, (path, children) = item
        expected.append((now, path))
        for i, (delay, priority, grandchildren) in enumerate(children):
            model.push(now + delay, priority, (path + (i,), grandchildren))
    assert executed == expected
    assert kernel.events_executed == len(expected)
    assert len(kernel.queue) == 0
