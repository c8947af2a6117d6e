"""The library property that lets one call build the rows of two scorings.

``pushed_values`` builds the rows of the pushed support ``T'`` and of the
birth candidates ``C`` in one C-contiguous block of p + c rows and reduces
each side on its own row slice: the synthetic model multiplies ``[:p]`` and
``[p:]`` of ``K([T'; C], P')`` by q, one matvec each, and the mixture those
of ``K([T'; C], T')`` by c and sums each row of the data-side densities of
``[T'; C]`` by one ``np.add.reduce(rows, axis=1)``. The synthetic entries
are pair-local and the mixture's have the bits of their row and column in
every product (below), so the block's rows are the separate builds' rows;
what remains is that the two calls give
each row the bits of the same call on a separate array, wherever the block,
and so each slice, starts. This holds for the loop's shapes on both sides of
``PRODUCT_ENTRIES`` (where ``_sqdist`` takes its product) and of
``ROW_BLOCK_ENTRIES``, with the block 0, 16, 32 or 48 bytes past a 64-byte
boundary and the separate arrays at the same offsets or fresh. The
mixture's kernel entries and densities are entries of expanded products,
each of which must have the bits of its row and column in every product
that holds both. A numpy or BLAS that broke either would move the loop's
bytes; these tests fail first. CI runs them again with OpenBLAS on two
threads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm.gaussian import PRODUCT_ENTRIES
from conicswarm.kernels import GmmKernel, _expanded_product
from conicswarm.workspace import ROW_BLOCK_ENTRIES
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


#: product heights: one row, every count from 2 to 40, the 64- and 128-row
#: edges, and the larger supports of a mixture run
HEIGHTS = [*range(1, 41), 63, 64, 65, 127, 128, 129, 300, 599]


@pytest.mark.parametrize("n", [256, 2000, 2001, 24000])
def test_expanded_product_rows_have_the_same_bits_in_every_product_of_two_or_more_rows(n):
    """The BLAS property the mixture's loop bits rest on, on its data side:
    each row of the expanded product ``_expanded_product(left, side)``
    (``GmmKernel._density``, ``d + 2 = 4`` inner terms) against the
    samples' C-contiguous (d + 2, n) side has the same bits in every
    product that holds it, whatever the product's height and wherever its
    rows start in ``left``, so the rows of ``[T'; C]`` that
    ``pushed_values`` builds in one product are those of a support field's
    own build. A plain product of two or more rows has them too, where it
    stays below OpenBLAS's small-matrix size; a one-row product, which
    numpy hands to gemv, is taken from two rows. A batch's side is the
    whole side's columns, bit for bit, and so are its products'. 2,001
    samples leave a tail past the last multiple of 8, whose bits a product
    past the small-matrix size would split by thread count."""
    g = rng(n)
    model = GmmKernel(3.0 * g.standard_normal((n, 2)), 0.3)
    left = model._left(g.uniform(-8.0, 8.0, size=(7 + HEIGHTS[-1], 2)))
    side = model._side
    assert side.shape == (4, n) and side.flags.c_contiguous
    whole = _expanded_product(left, side, np.empty((len(left), n)))
    for start in (0, 1, 7):
        for height in HEIGHTS:
            rows = slice(start, start + height)
            got = _expanded_product(left[rows], side, np.empty((height, n)))
            assert same_bits(got, whole[rows]), (start, height)
            if height > 1 and height * n <= ROW_BLOCK_ENTRIES:
                assert same_bits(np.matmul(left[rows], side), whole[rows]), (start, height)
    idx = g.integers(0, n, size=256)
    _, batch = model._samples(idx)
    assert batch.flags.c_contiguous and same_bits(batch, side[:, idx])
    assert same_bits(_expanded_product(left, batch, np.empty((len(left), 256))), whole[:, idx])


def test_expanded_product_entries_keep_their_bits_past_the_small_matrix_size():
    """The same property where a product of two rows over every sample
    would pass OpenBLAS's small-matrix size (2 x 200,001 x 4 = 1.6 x 10^6
    multiply-adds, where the loss means of a 10^6-sample run sit): each
    entry of ``_expanded_product`` against the whole side has the bits of
    a two-by-two product of its row and column, one row included, so the
    bits do not depend on the thread count. 200,001 columns put the band
    edges of ``ROW_BLOCK_ENTRIES / 2`` columns and a lone last column in
    the product."""
    n = 200_001
    g = rng(n)
    model = GmmKernel(3.0 * g.standard_normal((n, 2)), 0.3)
    left = model._left(g.uniform(-8.0, 8.0, size=(5, 2)))
    side = model._side
    whole = _expanded_product(left, side, np.empty((5, n)))
    edge = ROW_BLOCK_ENTRIES // 2
    cols = np.concatenate([np.arange(8), np.arange(edge - 4, edge + 4),
                           np.arange(3 * edge - 2, n), g.integers(0, n, size=64)])
    for j in cols:
        pair = side[:, [j, j - 1 if j else 1]]
        for i in range(5):
            two = np.matmul(left[[i, i - 1 if i else 1]], pair)
            assert same_bits(whole[i, j], two[0, 0]), (i, j)
    for rows in (slice(0, 1), slice(1, 3), slice(2, 5)):
        got = _expanded_product(left[rows], side, np.empty((rows.stop - rows.start, n)))
        assert same_bits(got, whole[rows]), rows


#: kernel widths, the pushed support's p: small supports, both sides of
#: multiples of 8, and supports whose (p + 32) x p kernel would pass
#: OpenBLAS's small-matrix size as one product
WIDTHS = [1, 2, 3, 7, 8, 9, 33, 255, 257, 449, 451, 488, 600, 1001]


@pytest.mark.parametrize("p", WIDTHS)
def test_kernel_entries_have_the_same_bits_in_every_product(p):
    """The same property on the kernel side, rows and columns: each entry of
    ``GmmKernel._kernel``'s expanded product against the points' (d + 2, p)
    side has the bits of its row and column in every product that holds
    both. So the stacked ``K([T'; C], T')`` of ``pushed_values`` has the
    bits of ``K(T', T')`` and ``K(C, T')`` built apart, and the survivors'
    block that a support field gathers from it, rows and columns, and the
    born columns it builds have the bits of a fresh ``K(T, T)``, one row or
    one column included."""
    g = rng(p)
    model = GmmKernel(3.0 * g.standard_normal((500, 2)), 0.2)
    points = g.uniform(-19.0, 19.0, size=(p + 32, 2))  # gmm_full.cfg's reach
    assert model._expands(model._left(points))
    support = points[:p]
    stacked = model._kernel(points, support)
    assert stacked.shape == (p + 32, p)
    assert same_bits(model._kernel(support, support), stacked[:p])
    assert same_bits(model._kernel(points[p:], support), stacked[p:])
    for size in (1, 2, p // 2, p - 1):
        rows = np.sort(g.choice(p + 32, size=max(1, size), replace=False))
        cols = np.sort(g.choice(p, size=max(1, min(size, p)), replace=False))
        assert same_bits(model._kernel(points[rows], support[cols]), stacked[rows][:, cols])
        # a support field's T = [survivors; born]: the kept rows' survivor
        # columns gathered, then the born columns built against all of T
        pick = np.concatenate([cols, p + np.arange(size % 3 + 1)])
        t = points[pick]
        fresh = model._kernel(t, t)
        assert same_bits(stacked[pick][:, cols], fresh[:, : len(cols)])
        assert same_bits(model._kernel(t, t[len(cols) :]), fresh[:, len(cols) :])
