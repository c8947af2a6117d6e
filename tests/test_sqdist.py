"""Exactness of the Gaussian distance buffer.

``gaussian._sqdist`` forms each coordinate's differences by
``np.subtract.outer`` below ``PRODUCT_ENTRIES`` entries and as the product
``[a_:,j, 1] @ [1; -b_:,j]`` from there on. Both must give the bits of the
per-coordinate subtraction reference for any BLAS thread count, so CI runs
this file again with OpenBLAS on two threads; the largest shape below is
past OpenBLAS's multithreading threshold for a product of inner size 2.

One array against itself, as the synthetic model's loss and ``|y|^2`` build
it (``gauss_density(x, x)``, the "Gaussian self" block), goes through the
same row blocks of ``SELF_BLOCK_ENTRIES`` entries; it must be symmetric bit
for bit and have the bits of the subtraction reference's full build.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conicswarm.gaussian as gaussian
from conicswarm.gaussian import gauss_density
from helpers import rng, same_bits
from reference import reference_sqdist

pytestmark = pytest.mark.exactness


#: coordinates that stress the differences: signed zeros, subnormal and
#: near-subnormal gaps, large magnitudes with gaps of one ulp, and 1e150
#: (whose squared differences stay finite for d <= 9)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072024e-308,
           1e-300, 1.0, np.nextafter(1.0, 2.0), -1.0, 3.0, 1e6, np.nextafter(1e6, 0.0),
           1e150, -1e150, np.nextafter(1e150, 0.0), 7e149]

coordinates = st.one_of(st.sampled_from(SPECIAL),
                        st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False))

#: (|a|, |b|) on both sides of ``PRODUCT_ENTRIES`` = 4096, and past the
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
    assert same_bits(gaussian._sqdist(a, b), reference_sqdist(a, b))


def test_sqdist_signed_zero_and_subnormal_differences():
    a = np.array([[0.0, 5e-324], [-0.0, 1e-310], [1e150, -2.2250738585072014e-308]])
    b = np.array([[-0.0, 1e-323], [0.0, 2e-310], [np.nextafter(1e150, 0.0), 0.0]])
    # repeat the rows so the call reaches the product path
    a, b = np.repeat(a, 30, axis=0), np.repeat(b, 50, axis=0)
    assert len(a) * len(b) >= gaussian.PRODUCT_ENTRIES
    d2 = gaussian._sqdist(a, b)
    assert same_bits(d2, reference_sqdist(a, b))
    assert not np.signbit(d2).any()


def test_product_path_rows_equal_subtraction_path_rows():
    # the same row from a call below the switch and from one above it
    g = rng(3)
    a, b = g.normal(size=(70, 2)) * 5 + 1e6, g.normal(size=(90, 2)) * 5
    full = gaussian._sqdist(a, b)
    assert len(a) * len(b) >= gaussian.PRODUCT_ENTRIES > len(b)
    for i in range(len(a)):
        assert same_bits(gaussian._sqdist(a[i : i + 1], b), full[i : i + 1])


#: support sizes around the row blocks of ``SELF_BLOCK_ENTRIES`` = 2^15:
#: 181 is one block (181^2 <= 2^15), 182 is blocks of 180 and 2, 256 is two
#: blocks of 128, 255 and 257 straddle it, 313 is three blocks of 104 and one row
SELF_SIZES = [0, 1, 2, 181, 182, 255, 256, 257, 313, 600]


def full_build(x, var):
    """``gauss_density(x, x, var)`` from the subtraction reference, in one
    piece, finished by ``_gauss_finish``'s multiply and exp."""
    d2 = reference_sqdist(x, x)
    d2 *= -0.5 / var
    return np.exp(d2)


@pytest.mark.parametrize("p", SELF_SIZES)
@pytest.mark.parametrize("d", [1, 2, 9])
def test_gauss_self_has_the_bits_of_the_full_build(p, d):
    x = rng(p).normal(size=(p, d)) * 3.0 + 1e3
    k = gauss_density(x, x, 2.08)
    assert same_bits(k, full_build(x, 2.08))
    assert same_bits(k, k.T)


@given(p=st.integers(64, 100), entries=st.sampled_from([1, 64, 300, 1000, 4096]),
       d=st.sampled_from([1, 2, 3, 9]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_gauss_self_small_blocks(p, entries, d, seed):
    # small blocks on the product path (p^2 >= PRODUCT_ENTRIES) give many
    # blocks at small p: rows of 1, 3, 10, ... 64 each
    x = np.round(rng(seed).uniform(-8.0, 8.0, size=(p, d)) * 2**20) / 2**20
    saved = gaussian.SELF_BLOCK_ENTRIES
    gaussian.SELF_BLOCK_ENTRIES = entries
    try:
        k = gauss_density(x, x, 1.18)
    finally:
        gaussian.SELF_BLOCK_ENTRIES = saved
    assert same_bits(k, full_build(x, 1.18))
    assert same_bits(k, k.T)
