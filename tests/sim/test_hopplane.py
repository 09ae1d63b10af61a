"""Columnar hop plane: interning, batched sends, delivery grouping, fate slices."""

from __future__ import annotations

import numpy as np

from repro.sim.hopplane import FrozenHopRound, HopPlane


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
