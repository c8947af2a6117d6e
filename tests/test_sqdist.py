"""Exactness of the Gaussian distance buffer and of the symmetric build.

``kernels._sqdist`` forms each coordinate's differences by
``np.subtract.outer`` below ``_PRODUCT_ENTRIES`` entries and as the product
``[a_:,j, 1] @ [1; -b_:,j]`` from there on. Both must give the bits of the
per-coordinate subtraction reference for any BLAS thread count, so CI runs
this file again with OpenBLAS on two threads; the largest shape below is
past OpenBLAS's multithreading threshold for a product of inner size 2.

``kernels._gauss_self`` builds ``gauss_density(x, x)`` as an upper triangle
of row blocks, each mirrored below the diagonal; it must give the bits of
the full build.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conicswarm.kernels as kernels
from conicswarm.kernels import GmmKernel, gauss_density


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and \
        np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


def reference_sqdist(a, b):
    """Sums of squared coordinate differences, each by ``np.subtract.outer``."""
    d2 = np.zeros((len(a), len(b)))
    for j in range(a.shape[1]):
        diff = np.subtract.outer(a[:, j], b[:, j])
        d2 += diff * diff
    return d2


#: coordinates that stress the differences: signed zeros, subnormal and
#: near-subnormal gaps, large magnitudes with gaps of one ulp, and 1e150
#: (whose squared differences stay finite for d <= 9)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072024e-308,
           1e-300, 1.0, np.nextafter(1.0, 2.0), -1.0, 3.0, 1e6, np.nextafter(1e6, 0.0),
           1e150, -1e150, np.nextafter(1e150, 0.0), 7e149]

coordinates = st.one_of(st.sampled_from(SPECIAL),
                        st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False))

#: (|a|, |b|) on both sides of ``_PRODUCT_ENTRIES`` = 4096, and past the
#: size from which OpenBLAS 0.3.31 splits a product of inner size 2 over two
#: threads (between 600 x 600 and 650 x 650 entries)
SHAPES = [(1, 1), (1, 9), (8, 8), (63, 65), (64, 64), (1, 4096), (130, 40), (1024, 512)]


@given(shape=st.sampled_from(SHAPES), d=st.sampled_from([1, 2, 3, 9]),
       pool=st.lists(coordinates, min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1), equal=st.booleans())
@settings(max_examples=150, deadline=None)
def test_sqdist_equals_subtraction_reference(shape, d, pool, seed, equal):
    # coordinates drawn from a small pool, so equal points and equal
    # coordinates recur; ``equal`` evaluates a set against itself
    g = rng(seed)
    pool = np.array(pool)
    a = pool[g.integers(0, len(pool), size=(shape[0], d))]
    b = a if equal else pool[g.integers(0, len(pool), size=(shape[1], d))]
    assert same_bits(kernels._sqdist(a, b), reference_sqdist(a, b))


def test_sqdist_signed_zero_and_subnormal_differences():
    a = np.array([[0.0, 5e-324], [-0.0, 1e-310], [1e150, -2.2250738585072014e-308]])
    b = np.array([[-0.0, 1e-323], [0.0, 2e-310], [np.nextafter(1e150, 0.0), 0.0]])
    # repeat the rows so the call reaches the product path
    a, b = np.repeat(a, 30, axis=0), np.repeat(b, 50, axis=0)
    assert len(a) * len(b) >= kernels._PRODUCT_ENTRIES
    d2 = kernels._sqdist(a, b)
    assert same_bits(d2, reference_sqdist(a, b))
    assert not np.signbit(d2).any()


def test_product_path_rows_equal_subtraction_path_rows():
    # the same row from a call below the switch and from one above it
    g = rng(3)
    a, b = g.normal(size=(70, 2)) * 5 + 1e6, g.normal(size=(90, 2)) * 5
    full = kernels._sqdist(a, b)
    assert len(a) * len(b) >= kernels._PRODUCT_ENTRIES > len(b)
    for i in range(len(a)):
        assert same_bits(kernels._sqdist(a[i : i + 1], b), full[i : i + 1])


#: support sizes around the block edges of ``_SELF_BLOCK_ENTRIES`` = 2^15:
#: 181 is one block (181^2 <= 2^15), 182 is blocks of 180 and 2, 256 is two
#: blocks of 128, 255 and 257 straddle it, 313 is three blocks of 104 and one row
SELF_SIZES = [0, 1, 2, 181, 182, 255, 256, 257, 313, 600]


@pytest.mark.parametrize("p", SELF_SIZES)
@pytest.mark.parametrize("d", [1, 2, 9])
def test_gauss_self_has_the_bits_of_the_full_build(p, d):
    x = rng(p).normal(size=(p, d)) * 3.0 + 1e3
    assert same_bits(kernels._gauss_self(x, 2.08), gauss_density(x, x, 2.08))


@given(p=st.integers(0, 40), entries=st.sampled_from([1, 4, 9, 64]),
       d=st.sampled_from([1, 2, 3, 9]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_gauss_self_small_blocks(p, entries, d, seed):
    # small blocks give many blocks at small p: rows of 1, 2, ... rows each
    x = np.round(rng(seed).uniform(-8.0, 8.0, size=(p, d)) * 2**20) / 2**20
    full = gauss_density(x, x, 1.18)
    saved = kernels._SELF_BLOCK_ENTRIES
    kernels._SELF_BLOCK_ENTRIES = entries
    try:
        assert same_bits(kernels._gauss_self(x, 1.18), full)
    finally:
        kernels._SELF_BLOCK_ENTRIES = saved


def test_gmm_kernel_matrix_of_equal_sets_has_full_build_bits():
    g = rng(5)
    model = GmmKernel(g.normal(size=(50, 2)), 0.2)
    t = g.normal(size=(300, 2))
    t[::7, 0] = 0.0
    twin = t.copy()
    twin[::7, 0] = -0.0  # equal by value, so it takes the symmetric build too
    # the entries, then the constant: what ``kernel_matrix`` returns
    full = gauss_density(t, twin, model._kvar) * model._knorm
    assert same_bits(model.kernel_matrix(t, t), full)
    assert same_bits(model.kernel_matrix(t, twin), full)
    assert same_bits(model.kernel_matrix(t, t), model.kernel_matrix(t, t).T)
