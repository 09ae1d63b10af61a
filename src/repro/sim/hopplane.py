"""Columnar transport for in-flight routed hops.

Routed hops are ~90% of all traffic: every holder of a message forwards it to
``r`` random swarm members (mid-route) or to the whole target swarm (final
step), so each *logical* hop — one ``(RoutedMessage, step)`` pair — fans out
into many receiver copies, and receivers near each other hold almost the same
hop sets.  The seed implementation shipped each copy as a ``(sender, Hop)``
inbox tuple and every receiver re-classified every copy in Python; with ~9
copies per logical hop per receiver that is the dominant round cost.

:class:`HopPlane` stores a round's hop traffic in columns instead:

* each logical hop is **interned once per round** — the first send of a
  ``(message identity, step)`` pair assigns it a dense row id; the message
  object and step live in per-row columns (one entry per *logical* hop);
* sends append ``(src, row, receiver-count)`` plus a flat receiver list —
  no per-copy objects at all;
* at delivery the copies are grouped by receiver with two value sorts of
  packed uint64 keys (``dst | row | copy index``, then ``dst | copy index``
  for the deduplicated copies; a round whose fields need more than 64 bits
  is refused, see :func:`delivery_key_widths`), so each receiver gets a
  NumPy array of row ids *in exactly the order the copies would have
  appeared in its legacy inbox* (global send order — multicast delivery
  order never interleaved with singles, so dropping hops from the object
  inboxes preserves every observable ordering);
* per-round classification work (next step, final-step test, lookup point)
  happens **once per logical hop** for the whole network — receivers share
  the columns through :attr:`HopDelivery.cache` and merely gather their row
  subset — instead of once per copy per receiver.

The plane carries every run's hops, faulted ones included.  Fault fates are
column operations over a closed round's per-copy ``(src, dst, row)``
arrays: :meth:`FrozenHopRound.select` keeps (or repeats) the copies a fate
pass delivered with one latency, and :meth:`FrozenHopRound.merge` joins the
copies due in one round — delayed ones first — into a single row table,
re-interning rows by ``(message identity, step)`` so a delayed copy still
deduplicates against a fresh copy of the same logical hop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["HopPlane", "FrozenHopRound", "HopDelivery", "delivery_key_widths"]


def _freeze_i32(col: ArrayLike) -> np.ndarray:
    """One-shot int32 conversion of a live append column (or a fate slice).

    The live plane appends into plain Python lists — extending a list with a
    list is a pointer memcpy, an order of magnitude cheaper per call than
    ``array('i').extend``'s per-item ``__index__`` conversions on the hot
    forwarding paths — and pays the machine-typing cost exactly once here,
    as a single C-level conversion at freeze time.
    """
    return np.asarray(col, dtype=np.int32)


def delivery_key_widths(copies: int, rows: int, max_id: int) -> tuple[int, int]:
    """Bit widths ``(row_bits, idx_bits)`` of :meth:`FrozenHopRound.deliver`'s key.

    The delivery key packs ``dst << (row_bits + idx_bits) | row << idx_bits
    | copy_index`` into one uint64; this sizes each field from the largest
    value it must hold (``max_id``, ``rows - 1``, ``copies - 1``) and raises
    :class:`ValueError` when the three do not fit in 64 bits.  That takes
    far more copies than fit in memory at any node-id range the simulator
    uses, so there is no slower fallback path.
    """
    row_bits = max(rows - 1, 0).bit_length()
    idx_bits = max(copies - 1, 0).bit_length()
    width = max_id.bit_length() + row_bits + idx_bits
    if width > 64:
        raise ValueError(
            f"hop delivery key needs {width} bits (max id {max_id}, "
            f"{rows} rows, {copies} copies); the packed sort holds 64"
        )
    return row_bits, idx_bits


class HopDelivery:
    """One round's hop arrivals, grouped by receiver.

    ``msgs``/``steps`` are the shared per-row columns (row id -> logical
    hop); ``rows`` maps each surviving receiver to its row-id array in
    arrival order, already deduplicated to first occurrences (the same
    result as the legacy per-receiver ``(message identity, step)`` seen-set,
    computed in one vectorised pass at delivery).  ``counts`` keeps the
    pre-dedup copy count per receiver — the legacy inbox length.  ``cache``
    is scratch space where the protocol layer memoises derived per-row
    columns so classification runs once per round, not once per receiver.
    """

    __slots__ = ("msgs", "steps", "rows", "counts", "total", "cache")

    def __init__(
        self,
        msgs: list[object],
        steps: np.ndarray,
        rows: dict[int, np.ndarray],
        counts: dict[int, int],
        total: int,
    ) -> None:
        self.msgs = msgs
        self.steps = steps
        self.rows = rows
        self.counts = counts
        self.total = total
        self.cache: dict[object, object] = {}


class FrozenHopRound:
    """The immutable hop traffic of one closed send phase.

    Columns are frozen into NumPy arrays at close time: the append lists the
    live plane grew are released immediately, so a pending round (and the
    trace's :class:`~repro.sim.network.EdgeLog`, which shares this object)
    holds 8-byte machine ints instead of Python list slots plus boxed ints.
    """

    __slots__ = ("msgs", "steps", "srcs", "send_rows", "lens", "flat")

    def __init__(
        self,
        msgs: list[object],
        steps: ArrayLike,
        srcs: ArrayLike,
        send_rows: ArrayLike,
        lens: ArrayLike,
        flat: ArrayLike,
    ) -> None:
        self.msgs = msgs
        self.steps = _freeze_i32(steps)
        self.srcs = _freeze_i32(srcs)
        self.send_rows = _freeze_i32(send_rows)
        self.lens = _freeze_i32(lens)
        self.flat = _freeze_i32(flat)

    def copies(self) -> int:
        """Total receiver copies frozen in this round."""
        return int(self.flat.size)

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The round's hop edges as ``(srcs, dsts)`` per-copy id arrays."""
        return np.repeat(self.srcs, self.lens), self.flat

    def select(self, idx: np.ndarray) -> "FrozenHopRound":
        """The copies at per-copy positions ``idx`` (repeats allowed).

        One single-receiver send per entry, in ``idx`` order, sharing this
        round's row table — a fate pass files each latency's copies this way.
        """
        srcs, dsts = self.edge_columns()
        rows = np.repeat(self.send_rows, self.lens)
        return FrozenHopRound(
            self.msgs,
            self.steps,
            srcs[idx],
            rows[idx],
            np.ones(len(idx), dtype=np.int32),
            dsts[idx],
        )

    @staticmethod
    def merge(rounds: "Sequence[FrozenHopRound]") -> "FrozenHopRound":
        """Concatenate the copies of ``rounds``, in order, under one row table.

        Each used row is re-interned by ``(message identity, step)``, so a
        delayed copy and a fresh copy of the same logical hop share a row
        and deduplicate at delivery.
        """
        reg: dict[int, int] = {}
        msgs: list[object] = []
        steps: list[int] = []
        parts = []
        for fr in rounds:
            used = np.unique(fr.send_rows)
            remap = np.zeros(len(fr.msgs), dtype=np.int32)
            step_of = fr.steps.tolist()
            for r in used.tolist():
                m = fr.msgs[r]
                # repro: allow(id-ordering): identity interning only, as in
                # HopPlane.send; the id value never orders anything.
                key = (id(m) << 7) | step_of[r]
                row = reg.get(key)
                if row is None:
                    row = reg[key] = len(msgs)
                    msgs.append(m)
                    steps.append(step_of[r])
                remap[r] = row
            parts.append(remap[fr.send_rows])
        return FrozenHopRound(
            msgs,
            steps,
            np.concatenate([fr.srcs for fr in rounds]),
            np.concatenate(parts),
            np.concatenate([fr.lens for fr in rounds]),
            np.concatenate([fr.flat for fr in rounds]),
        )

    def iter_edges(self):
        """Yield ``(src, dst)`` per copy, in send order (EdgeLog expansion)."""
        srcs, dsts = self.edge_columns()
        return zip(srcs.tolist(), dsts.tolist())

    def deliver(self, alive) -> HopDelivery:
        """Group the copies by surviving receiver (two packed-key sorts).

        Every copy gets one unique uint64 key ``dst | row | copy index``
        (widths from :func:`delivery_key_widths`), so a plain value sort —
        no stable argsort needed, all keys differ — lines the copies up by
        receiver, then row, then send order.  The first key of each
        ``(dst, row)`` run is the copy a per-node ``dict.fromkeys`` would
        keep; re-packing the kept copies as ``dst | copy index`` and sorting
        again puts each receiver's deduplicated rows back in send order.
        ``counts`` stays pre-dedup — it mirrors the legacy inbox length.
        """
        flat = self.flat
        total = int(flat.size)
        by_dst: dict[int, np.ndarray] = {}
        counts: dict[int, int] = {}
        if total:
            row_bits, idx_bits = delivery_key_widths(
                total, len(self.msgs), int(flat.max())
            )
            rows = np.repeat(self.send_rows, self.lens)
            u64 = np.uint64
            key = flat.astype(u64)
            key <<= u64(row_bits)
            key |= rows.astype(u64)
            key <<= u64(idx_bits)
            key |= np.arange(total, dtype=u64)
            key.sort()  # unique keys: the unstable sort is deterministic
            grp = key >> u64(idx_bits)
            first = np.empty(total, dtype=bool)
            first[0] = True
            np.not_equal(grp[1:], grp[:-1], out=first[1:])
            kept = key[first]
            # (dst | row | idx) -> (dst | idx): drop the row field, re-sort.
            idx_mask = u64((1 << idx_bits) - 1)
            dst_idx = kept >> u64(row_bits + idx_bits)
            dst_idx <<= u64(idx_bits)
            dst_idx |= kept & idx_mask
            dst_idx.sort()
            row_kept = rows[(dst_idx & idx_mask).astype(np.intp)]
            kept_dst = dst_idx >> u64(idx_bits)
            starts = np.flatnonzero(np.r_[True, kept_dst[1:] != kept_dst[:-1]])
            receivers = kept_dst[starts]
            # Pre-dedup counts: each receiver's run length in the first sort.
            runs = key.searchsorted(receivers << u64(row_bits + idx_bits)).tolist()
            runs.append(total)
            starts_l = starts.tolist()
            starts_l.append(int(kept_dst.size))
            for i, dst in enumerate(receivers.tolist()):
                if dst in alive:
                    by_dst[dst] = row_kept[starts_l[i]:starts_l[i + 1]]
                    counts[dst] = runs[i + 1] - runs[i]
        return HopDelivery(self.msgs, self.steps, by_dst, counts, total=total)


class HopPlane:
    """Per-round columnar collector of hop sends (see module docstring)."""

    __slots__ = ("_reg", "_msgs", "_steps", "_srcs", "_rows", "_lens", "_flat")

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._reg: dict[int, int] = {}  # (id(msg) << 7 | step) -> row
        self._msgs: list[object] = []
        self._steps: list[int] = []
        # Send columns are plain lists while the round is live: list appends
        # and list-with-list extends are pointer copies (no per-item int
        # conversion), and the freeze converts each column to int32 once
        # (see _freeze_i32).
        self._srcs: list[int] = []
        self._rows: list[int] = []
        self._lens: list[int] = []
        self._flat: list[int] = []

    def send(self, src: int, msg: object, step: int, dsts: Sequence[int]) -> int:
        """File one hop multicast; returns the number of copies created.

        ``dsts`` must be a plain-``int`` sequence (the node hot paths already
        produce those).  The ``(message identity, step)`` pair is interned to
        a row id — message objects are shared per logical request with
        once-only construction, so identity equals the documented msg_id
        dedup, exactly like the legacy ``Hop`` path.
        """
        n = len(dsts)
        if n == 0:
            return 0
        # Pack (identity, step) into one int: cheaper to hash than a tuple.
        # Steps are bounded by final_step = 2*lam + 2 << 128, so the low
        # 7 bits never collide across message identities.
        # repro: allow(id-ordering): identity interning only — rows are
        # numbered by first-append order; the id value never orders anything.
        key = (id(msg) << 7) | step
        row = self._reg.get(key)
        if row is None:
            row = len(self._msgs)
            self._reg[key] = row
            self._msgs.append(msg)
            self._steps.append(step)
        self._srcs.append(src)
        self._rows.append(row)
        self._lens.append(n)
        self._flat.extend(dsts)
        return n

    def send_batch(
        self, src: int, items: list[tuple[object, int, Sequence[int]]]
    ) -> int:
        """File many hop multicasts from one sender in one call.

        Equivalent to :meth:`send` per ``(msg, step, dsts)`` item in order;
        the node forwarding loops issue one multicast per held hop, so the
        per-call overhead this folds away is the dominant remaining cost.
        """
        reg = self._reg
        reg_get = reg.get
        msgs = self._msgs
        steps = self._steps
        srcs = self._srcs
        rows = self._rows
        lens = self._lens
        flat = self._flat
        total = 0
        for msg, step, dsts in items:
            n = len(dsts)
            if n == 0:
                continue
            # repro: allow(id-ordering): identity interning only — rows are
            # numbered by first-append order; the id value never orders anything.
            key = (id(msg) << 7) | step
            row = reg_get(key)
            if row is None:
                row = len(msgs)
                reg[key] = row
                msgs.append(msg)
                steps.append(step)
            srcs.append(src)
            rows.append(row)
            lens.append(n)
            flat.extend(dsts)
            total += n
        return total

    def columns(
        self,
    ) -> tuple[
        dict[int, int],
        list[object],
        list[int],
        list[int],
        list[int],
        list[int],
        list[int],
    ]:
        """Low-level append targets ``(reg, msgs, steps, srcs, rows, lens,
        flat)`` for fused hot loops.

        The protocol forwarding loops run once per held hop per node — the
        innermost cost of a round — so they intern and append *inline*
        instead of paying a method call per hop (see :meth:`send` for the
        semantics they must reproduce: intern on ``id(msg) << 7 | step``,
        append one ``(src, row, len)`` triple plus the flat receivers, and
        report the copy total to ``Network.count_hop_sends``).
        """
        return (
            self._reg,
            self._msgs,
            self._steps,
            self._srcs,
            self._rows,
            self._lens,
            self._flat,
        )

    def pack(
        self,
    ) -> tuple[list[object], list[int], list[int], list[int], list[int]]:
        """The live columns as ``(msgs, steps, rows, lens, flat)``.

        This is the shard uplink's transport tuple: the source column is
        dropped because the master replays each node's plane segment under
        that node's own id while splicing (:mod:`repro.sim.shard`), and the
        int columns ride the shared uplink slab as int32 arrays
        (:mod:`repro.sim.exchange`).
        """
        return (self._msgs, self._steps, self._rows, self._lens, self._flat)

    def close_round(self) -> FrozenHopRound | None:
        """Freeze this round's hop sends; ``None`` when there were none.

        Row interning is per round: copies a fault fate delays into a later
        round are re-interned there by :meth:`FrozenHopRound.merge`.
        """
        if not self._msgs:
            return None
        frozen = FrozenHopRound(
            self._msgs, self._steps, self._srcs, self._rows, self._lens, self._flat
        )
        self._reset()
        return frozen
