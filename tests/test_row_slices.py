"""The library property that lets one call build the rows of two scorings.

``pushed_values`` builds the rows of the pushed support ``T'`` and of the
birth candidates ``C`` in one C-contiguous block of p + c rows and reduces
each side on its own row slice: the synthetic model multiplies ``[:p]`` and
``[p:]`` of ``K([T'; C], P')`` by q, one matvec each, and the mixture sums
each row of the data-side densities of ``[T'; C]`` by one
``np.add.reduce(rows, axis=1)``. The entries are pair-local, so the block's
rows are the separate builds' rows; what remains is that the two calls give
each row the bits of the same call on a separate array, wherever the block,
and so each slice, starts. This holds for the loop's shapes on both sides of
``PRODUCT_ENTRIES`` (where a block moves into the workspace) and of
``ROW_BLOCK_ENTRIES``, with the block 0, 16, 32 or 48 bytes past a 64-byte
boundary and the separate arrays at the same offsets or fresh. The
mixture's densities are entries of one expanded product, whose rows must
have the same bits in every product of two or more rows. A numpy or BLAS
that broke either would move the loop's bytes; these tests fail first. CI
runs them again with OpenBLAS on two threads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm.kernels import GmmKernel
from conicswarm.workspace import PRODUCT_ENTRIES, ROW_BLOCK_ENTRIES
from helpers import rng, same_bits

pytestmark = pytest.mark.exactness

OFFSETS = [0, 16, 32, 48]


def at_offset(a, offset):
    """A C-ordered copy of ``a`` whose data start ``offset`` bytes past a
    64-byte boundary."""
    raw = np.empty(a.size + 8)
    start = (offset - raw.ctypes.data) % 64 // 8
    out = raw[start : start + a.size].reshape(a.shape)
    out[...] = a
    return out


def separate(a):
    """``a`` fresh from numpy, then at each of the offsets."""
    return [np.array(a)] + [at_offset(a, offset) for offset in OFFSETS]


#: pushed supports from the theory loop's p of about 8 to the mixture's
#: hundreds, with the sizes where the synthetic block (p + c rows of
#: p + 6 columns) crosses ``PRODUCT_ENTRIES``
SUPPORTS = st.one_of(st.integers(0, 12), st.sampled_from([57, 58, 59, 60, 61, 62, 63, 64]),
                     st.integers(13, 1000))
#: batches and data sets: the mixture's batch of 256, its 2,000 samples,
#: and sizes where the block of densities crosses ``ROW_BLOCK_ENTRIES``
SAMPLES = st.one_of(st.integers(1, 40), st.sampled_from([255, 256, 257, 1999, 2000, 2001]),
                    st.integers(41, 2500))


@given(seed=st.integers(0, 2**32 - 1), p=SUPPORTS, c=st.integers(1, 8),
       fixed=st.integers(0, 9), offset=st.sampled_from(OFFSETS))
@settings(max_examples=150, deadline=None)
def test_matvec_over_row_slices_has_separate_bits(seed, p, c, fixed, offset):
    g = rng(seed)
    cols = p + fixed  # the synthetic model's P' = [T'; atoms; anchors]
    block = at_offset(g.uniform(0.0, 1.0, size=(p + c, cols)), offset)
    q = g.uniform(-1.0, 1.0, size=cols)
    for rows in (slice(0, p), slice(p, p + c)):
        got = block[rows] @ q
        for alone in separate(block[rows]):
            assert same_bits(got, alone @ q)


@pytest.mark.parametrize("p, c, cols", [(58, 4, 64), (60, 4, 66), (508, 4, 256),
                                        (509, 4, 256), (61, 4, 2000), (62, 4, 2000)])
@pytest.mark.parametrize("offset", OFFSETS)
def test_row_slices_on_both_sides_of_the_block_sizes(p, c, cols, offset):
    # the synthetic block about PRODUCT_ENTRIES, and a batch's and an exact
    # mixture's densities about ROW_BLOCK_ENTRIES
    assert 62 * 64 < PRODUCT_ENTRIES <= 64 * 66
    assert 512 * 256 == ROW_BLOCK_ENTRIES and 65 * 2000 < ROW_BLOCK_ENTRIES < 66 * 2000
    g = rng(p * cols + offset)
    block = at_offset(g.uniform(0.0, 1.0, size=(p + c, cols)), offset)
    q = g.uniform(-1.0, 1.0, size=cols)
    sums = np.add.reduce(block, axis=1)
    for rows in (slice(0, p), slice(p, p + c)):
        for alone in separate(block[rows]):
            assert same_bits(block[rows] @ q, alone @ q)
            assert same_bits(sums[rows], np.add.reduce(alone, axis=1))


@given(seed=st.integers(0, 2**32 - 1), p=SUPPORTS, c=st.integers(1, 8), m=SAMPLES,
       offset=st.sampled_from(OFFSETS))
@settings(max_examples=150, deadline=None)
def test_row_sums_of_a_stacked_block_have_separate_bits(seed, p, c, m, offset):
    g = rng(seed)
    # densities in (0, 1], some of them subnormal or zero, as far rows give
    block = at_offset(np.exp(-g.exponential(200.0, size=(p + c, m))), offset)
    sums = np.add.reduce(block, axis=1)
    for rows in (slice(0, p), slice(p, p + c)):
        for alone in separate(block[rows]):
            assert same_bits(sums[rows], np.add.reduce(alone, axis=1))


#: product heights: every count from 2 to 40, the 64- and 128-row edges, and
#: the larger supports of a mixture run
HEIGHTS = [*range(2, 41), 63, 64, 65, 127, 128, 129, 300, 599]


@pytest.mark.parametrize("n", [256, 2000, 24000])
def test_expanded_product_rows_have_the_same_bits_in_every_product_of_two_or_more_rows(n):
    """The BLAS property the mixture's loop bits rest on: each row of the
    expanded product ``left @ side.T`` (``GmmKernel._density``, ``d + 2 =
    4`` inner terms) has the same bits in every product of two or more rows
    that holds it, whatever the product's height and wherever its rows
    start in ``left``. So the rows of ``[T'; C]`` that ``pushed_values``
    builds in one product are those of a support field's own build. A
    one-row product, which numpy hands to gemv, may differ in the last bits
    and is not covered."""
    g = rng(n)
    model = GmmKernel(3.0 * g.standard_normal((n, 2)), 0.3)
    left = model._expanded_rows(g.uniform(-8.0, 8.0, size=(7 + HEIGHTS[-1], 2)))
    side = model._side
    whole = np.matmul(left, side.T)
    for start in (0, 1, 7):
        for height in HEIGHTS:
            rows = slice(start, start + height)
            got = np.matmul(left[rows], side.T, out=np.empty((height, n)))
            assert same_bits(got, whole[rows]), (start, height)
