"""The run's reused buffers, and the block sizes every evaluation shares."""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


#: pairwise entries from which ``gaussian._sqdist`` forms coordinate
#: differences as a product, and from which a workspace slot is used. Below
#: it the product's set-up costs more than it saves: in d = 2 on a Xeon core
#: with OpenBLAS 0.3.31 on one thread, 15 us against 10 us at 8 x 8, about
#: even at 48 x 48, 22 us against 27 us at 64 x 64 and 34 us against 62 us at
#: 128 x 128
PRODUCT_ENTRIES = 4096
#: entries per row block of an n-long evaluation: ``kernels.relu_blocks``'
#: activations, ``GmmKernel``'s data-side means and expanded products and the
#: audit's chunks (1 MiB)
ROW_BLOCK_ENTRIES = 2**17
#: entries per row block of ``gaussian``'s coordinate differences and
#: pair-sum tiles, and of ``GmmKernel``'s survivor gathers (256 KiB, so a
#: block and its temporaries stay in a core's cache)
SELF_BLOCK_ENTRIES = 2**15

#: byte alignment of every workspace slot: a cache line, and the widest SIMD
#: load
_ALIGN = 64


class Workspace:
    """Reused buffers for the large temporaries of one run's loop
    evaluations, in named slots.

    ``runner.run`` creates one per run and hands it, next to ``ev``, to
    ``pushed_values``, ``support_field`` and the cadence ``loss``; the
    models keep it nowhere. Every other caller passes
    None, and numpy allocates as it would without one.

    ``take(slot, rows, cols)`` returns a C-ordered float64 array of that
    shape at the start of the slot, whose data start ``offset`` bytes past a
    64-byte boundary (0 in the loop; the tests try 16, 32 and 48 to show
    that no bits depend on it). Below ``PRODUCT_ENTRIES`` entries it
    returns None and the caller allocates, as a fresh small array costs less
    than the bookkeeping. A slot asked for more than it holds is replaced by
    one half as large again as the size asked, so it is replaced a number of
    times logarithmic in its largest size, and its old buffer is freed
    before the new one is allocated, so malloc may hand that memory on. What
    a slot holds is overwritten by the next call that takes it:

    * ``"ev.kernel"`` and ``"ev.rows"``: ``ev``'s kernel block (the
      mixture's ``K([T'; C], T')``, which ``ev`` keeps whole, the synthetic
      model's ``K([T'; C], P')``, whose first p rows ``ev`` keeps) and, in
      an exact mixture run, the data-side rows of ``[T'; C]``, which ``ev``
      keeps whole.
      ``pushed_values`` writes them and the next iteration's
      ``support_field`` reads them, before the next ``pushed_values`` writes
      its own.
    * ``"work"``: the largest array of one evaluation step, used up within
      the call: data-side rows (a batch's of ``[T'; C]``, the loss's mean
      blocks, the exact support's assembled rows), then the kernel built
      after them (the assembled support kernel, the loss's ``K(T, T)``), or
      a ReLU activation block.
    * ``"diff"``: ``_sqdist``'s coordinate differences, and the kept rows
      of ``K([T'; C], T')`` while their survivors' columns are gathered.
    """

    def __init__(self, offset: int = 0):
        self.offset = offset
        self._slots = {}

    def take(self, slot: str, rows: int, cols: int):
        """The slot's first ``rows * cols`` entries as a (rows, cols) array,
        or None below ``PRODUCT_ENTRIES`` entries."""
        size = rows * cols
        if size < PRODUCT_ENTRIES:
            return None
        if len(self._slots.get(slot, ())) < size:
            self._slots[slot] = ()  # free the old buffer first: malloc may reuse its memory
            raw = np.empty(size + size // 2 + _ALIGN // 8)
            self._slots[slot] = raw[(self.offset - raw.ctypes.data) % _ALIGN // 8 :]
        return self._slots[slot][:size].reshape(rows, cols)


def out_buffer(ws, slot, rows, cols):
    """``ws.take(slot, rows, cols)``, or None without a workspace."""
    return None if ws is None else ws.take(slot, rows, cols)


def buffer(ws, slot, rows, cols):
    """``out_buffer(ws, slot, rows, cols)``, or a fresh array where that is None."""
    buf = out_buffer(ws, slot, rows, cols)
    return np.empty((rows, cols)) if buf is None else buf
