"""The run's reused buffers, and the block sizes every evaluation shares."""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


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
    """Reused buffers for the temporaries of one run's loop evaluations,
    in named slots.

    ``runner.run`` creates one per run and hands it, next to ``ev``, to
    ``pushed_values``, ``support_field`` and the cadence ``loss``; the
    models keep it nowhere. Every other caller passes None, and ``buffer``
    allocates each array fresh.

    ``take(slot, rows, cols)`` returns a C-ordered float64 array of that
    shape at the start of the slot, whose data start ``offset`` bytes past a
    64-byte boundary (0 in the loop; the tests try 16, 32 and 48 to show
    that no bits depend on it), at every size: a loop buffer is the slot it
    names. A slot asked for more than it holds is replaced by one half as
    large again as the size asked, so it is replaced a number of times
    logarithmic in its largest size, and its old buffer is freed before the
    new one is allocated, so malloc may hand that memory on. What a slot
    holds is overwritten by the next call that takes it:

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

    ``_sqdist``'s coordinate differences and a death gather's kept rows, at
    most ``SELF_BLOCK_ENTRIES`` a block, take one fresh buffer per call.
    """

    def __init__(self, offset: int = 0):
        self.offset = offset
        self._slots = {}

    def take(self, slot: str, rows: int, cols: int):
        """The slot's first ``rows * cols`` entries as a (rows, cols) array."""
        size = rows * cols
        if slot not in self._slots or len(self._slots[slot]) < size:
            self._slots.pop(slot, None)  # free the old buffer first: malloc may reuse its memory
            raw = np.empty(size + size // 2 + _ALIGN // 8)
            self._slots[slot] = raw[(self.offset - raw.ctypes.data) % _ALIGN // 8 :]
        return self._slots[slot][:size].reshape(rows, cols)


def buffer(ws, slot, rows, cols):
    """``ws.take(slot, rows, cols)``, or a fresh array without a workspace."""
    return np.empty((rows, cols)) if ws is None else ws.take(slot, rows, cols)
