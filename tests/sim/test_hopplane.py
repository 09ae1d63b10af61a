"""Columnar hop plane: interning, batched sends, delivery grouping, fate slices."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.hopplane import FrozenHopRound, HopPlane, delivery_key_widths


class Msg:
    """Stand-in routed message (identity is what the plane interns on)."""


def test_interns_one_row_per_logical_hop():
    plane = HopPlane()
    m = Msg()
    assert plane.send(1, m, 0, [2, 3]) == 2
    assert plane.send(4, m, 0, [3, 5]) == 2  # same (msg, step): same row
    assert plane.send(4, m, 1, [2]) == 1  # next step: a new logical hop
    frozen = plane.close_round()
    assert len(frozen.msgs) == 2
    assert frozen.copies() == 5
    assert list(frozen.iter_edges()) == [(1, 2), (1, 3), (4, 3), (4, 5), (4, 2)]


def test_send_batch_equals_individual_sends():
    m1, m2 = Msg(), Msg()
    one = HopPlane()
    one.send(7, m1, 0, [1, 2])
    one.send(7, m2, 3, [2])
    one.send(7, m1, 0, [3])
    a = one.close_round()

    two = HopPlane()
    assert two.send_batch(7, [(m1, 0, [1, 2]), (m2, 3, [2]), (m1, 0, [3])]) == 4
    b = two.close_round()

    assert a.steps.tolist() == b.steps.tolist()
    assert a.srcs.tolist() == b.srcs.tolist()
    assert a.send_rows.tolist() == b.send_rows.tolist()
    assert a.lens.tolist() == b.lens.tolist()
    assert a.flat.tolist() == b.flat.tolist()


def test_empty_receiver_lists_are_skipped():
    plane = HopPlane()
    assert plane.send(1, Msg(), 0, []) == 0
    assert plane.send_batch(1, [(Msg(), 0, [])]) == 0
    assert plane.close_round() is None


def test_deliver_groups_by_receiver_in_send_order():
    plane = HopPlane()
    m1, m2 = Msg(), Msg()
    plane.send(1, m1, 0, [10, 11])
    plane.send(2, m2, 0, [11, 10])
    plane.send(3, m1, 0, [11])  # duplicate row for 11: counted, then deduped
    frozen = plane.close_round()
    delivery = frozen.deliver(alive={10, 11})
    assert delivery.total == 5
    assert delivery.counts == {10: 2, 11: 3}  # pre-dedup copy counts
    row_m1 = frozen.msgs.index(m1)
    row_m2 = frozen.msgs.index(m2)
    # Rows arrive deduplicated to first occurrences, in send order.
    assert delivery.rows[10].tolist() == [row_m1, row_m2]
    assert delivery.rows[11].tolist() == [row_m1, row_m2]


def test_deliver_drops_dead_receivers_but_counts_all_copies():
    plane = HopPlane()
    plane.send(1, Msg(), 0, [10, 99])
    frozen = plane.close_round()
    delivery = frozen.deliver(alive={10})
    assert delivery.total == 2  # in-flight copies, for budget accounting
    assert set(delivery.rows) == {10}


def test_close_round_resets_interning():
    plane = HopPlane()
    m = Msg()
    plane.send(1, m, 0, [2])
    first = plane.close_round()
    plane.send(1, m, 0, [3])
    second = plane.close_round()
    assert first.msgs is not second.msgs
    assert second.copies() == 1


def test_select_files_one_copy_per_entry_in_order():
    plane = HopPlane()
    m1, m2 = Msg(), Msg()
    plane.send(1, m1, 0, [10, 11])
    plane.send(2, m2, 0, [12])
    frozen = plane.close_round()
    picked = frozen.select(np.array([2, 0, 0]))  # a duplicate repeats its copy
    assert picked.msgs is frozen.msgs
    assert list(picked.iter_edges()) == [(2, 12), (1, 10), (1, 10)]
    assert picked.lens.tolist() == [1, 1, 1]
    delivery = picked.deliver(alive={10, 12})
    assert delivery.counts == {10: 2, 12: 1}
    assert delivery.rows[10].tolist() == [frozen.msgs.index(m1)]


def test_merge_reinterns_rows_across_rounds():
    m1, m2 = Msg(), Msg()
    early = HopPlane()
    early.send(1, m2, 3, [10])
    early.send(1, m1, 0, [10])
    delayed = early.close_round().select(np.array([1]))  # only the m1 copy
    fresh = HopPlane()
    fresh.send(2, m1, 0, [10, 11])
    fresh.send(2, m1, 1, [10])  # next step of m1: another logical hop
    merged = FrozenHopRound.merge([delayed, fresh.close_round()])
    assert merged.msgs == [m1, m1]
    assert merged.steps.tolist() == [0, 1]
    assert list(merged.iter_edges()) == [(1, 10), (2, 10), (2, 11), (2, 10)]
    delivery = merged.deliver(alive={10, 11})
    assert delivery.rows[10].tolist() == [0, 1]
    assert delivery.counts == {10: 3, 11: 1}


# ---------------------------------------------------------------------------
# Delivery against a naive per-receiver inbox
# ---------------------------------------------------------------------------

#: Placeholder messages for synthetic row tables (one object per row, so
#: every row is its own logical hop); enough of them for row ids >= 2**16.
_ROW_MSGS = [Msg() for _ in range((1 << 16) + 8)]


def _copies(fr: FrozenHopRound) -> list[tuple[int, tuple[int, int]]]:
    """Per-copy ``(dst, (message identity, step))`` of ``fr``, in send order."""
    rows = np.repeat(fr.send_rows, fr.lens).tolist()
    steps = fr.steps.tolist()
    return [(d, (id(fr.msgs[r]), steps[r])) for d, r in zip(fr.flat.tolist(), rows)]


def _reference(copies, alive):
    """The legacy inbox: copies per receiver in send order, then
    ``dict.fromkeys`` dedup; dead receivers dropped, counts pre-dedup."""
    inbox: dict[int, list] = {}
    for dst, hop in copies:
        inbox.setdefault(dst, []).append(hop)
    live = sorted(d for d in inbox if d in alive)
    return (
        {d: list(dict.fromkeys(inbox[d])) for d in live},
        {d: len(inbox[d]) for d in live},
    )


def _observed(fr: FrozenHopRound, alive):
    delivery = fr.deliver(alive)
    assert delivery.total == fr.copies()
    steps = delivery.steps.tolist()
    rows = {
        d: [(id(delivery.msgs[r]), steps[r]) for r in got.tolist()]
        for d, got in delivery.rows.items()
    }
    assert list(rows) == sorted(rows)  # receivers in ascending id order
    return rows, delivery.counts


def _synthetic(sends, nrows: int) -> FrozenHopRound:
    """A frozen round built straight from ``(src, row, dsts)`` sends."""
    return FrozenHopRound(
        _ROW_MSGS[:nrows],
        np.zeros(nrows, dtype=np.int32),
        [src for src, _, _ in sends],
        [row for _, row, _ in sends],
        [len(dsts) for _, _, dsts in sends],
        [d for _, _, dsts in sends for d in dsts],
    )


@st.composite
def synthetic_rounds(draw):
    nrows = draw(st.integers(1, 6))
    if draw(st.booleans()):
        nrows += 1 << 16  # row ids past 16 bits
    id_base = draw(st.sampled_from([0, 1 << 16, (1 << 31) - 64]))
    ids = [id_base + i for i in draw(
        st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True)
    )]
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=1, max_size=4))
    sends = draw(st.lists(
        st.tuples(
            st.sampled_from(ids),
            st.sampled_from(rows),
            st.lists(st.sampled_from(ids), max_size=5),
        ),
        max_size=12,
    ))
    alive = set(draw(st.lists(st.sampled_from(ids), max_size=len(ids))))
    return _synthetic(sends, nrows), alive


@settings(max_examples=150, deadline=None)
@given(synthetic_rounds())
def test_deliver_equals_naive_inboxes(case):
    fr, alive = case
    assert _observed(fr, alive) == _reference(_copies(fr), alive)


def test_deliver_empty_and_single_receiver_rounds():
    empty = _synthetic([], 1)
    delivery = empty.deliver(alive={1})
    assert (delivery.rows, delivery.counts, delivery.total) == ({}, {}, 0)
    single = _synthetic([(1, 0, [5]), (2, 1, [5]), (3, 0, [5])], 2)
    assert _observed(single, {5}) == _reference(_copies(single), {5})
    assert single.deliver({5}).rows[5].tolist() == [0, 1]


@st.composite
def merged_rounds(draw):
    """A delayed fate slice of one plane round merged with a fresh round."""
    msgs = [Msg() for _ in range(3)]
    sends = st.lists(
        st.tuples(
            st.integers(0, 4),
            st.sampled_from(msgs),
            st.integers(0, 2),
            st.lists(st.integers(10, 14), min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=8,
    )
    frozen = []
    for _ in range(2):
        plane = HopPlane()
        for src, m, step, dsts in draw(sends):
            plane.send(src, m, step, dsts)
        frozen.append(plane.close_round())
    early, fresh = frozen
    picks = draw(st.lists(st.integers(0, early.copies() - 1), max_size=6))
    delayed = early.select(np.array(picks, dtype=np.int64))
    alive = set(draw(st.lists(st.integers(10, 14), max_size=5)))
    return delayed, fresh, alive


@settings(max_examples=100, deadline=None)
@given(merged_rounds())
def test_merged_round_delivery_equals_naive_inboxes(case):
    delayed, fresh, alive = case
    merged = FrozenHopRound.merge([delayed, fresh])
    expected = _reference(_copies(delayed) + _copies(fresh), alive)
    assert _observed(merged, alive) == expected


def test_key_widths_size_each_field():
    assert delivery_key_widths(1, 1, 0) == (0, 0)
    assert delivery_key_widths(5, 3, 7) == (2, 3)
    # 31 id bits + 16 row bits + 17 copy-index bits: exactly 64.
    assert delivery_key_widths(1 << 17, 1 << 16, (1 << 31) - 1) == (16, 17)


def test_key_widths_refuse_keys_past_64_bits():
    with pytest.raises(ValueError, match="65 bits"):
        delivery_key_widths((1 << 17) + 1, 1 << 16, (1 << 31) - 1)
    with pytest.raises(ValueError, match="64"):
        delivery_key_widths(1 << 40, 1 << 20, (1 << 31) - 1)
