"""``KernelModel.weighted_kernel`` against ``kernel_matrix @ coef``.

The synthetic model inherits the default, so the two must agree bit for
bit. The mixture builds its entries without the density's constant and
multiplies the constant into the product, so its values must have the bits
of ``(gauss_density(A, B, var) @ coef) * constant``; they are within
rounding of ``kernel_matrix @ coef``, whose entries carry the constant
(tests/test_gmm_constants.py bounds the difference). ReLU sums in feature space, ``relu(X A)' (relu(X B) c) / m``, in another
order than ``(relu(X A)' relu(X B) / m) c``, so its values agree with the
matrix product only up to rounding; ``relu_sum_bound`` gives the tolerance.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conicswarm.kernels import gauss_density
from conicswarm.verify import make_gmm_problem, make_relu_problem, make_synthetic_problem

EPS = np.finfo(float).eps

PROBLEMS = {
    "synthetic": make_synthetic_problem(seed=5),
    "gmm": make_gmm_problem(seed=5),
    "relu": make_relu_problem(seed=5),
}


def relu_sum_bound(model, a, b, coef, idx):
    """Summation error bound ``64 eps (|act_a|' (|act_b| |coef|)) / m``,
    elementwise.

    Both orders sum the same products ``act_a[k, i] act_b[k, j] coef_j``;
    each one's rounding error is at most a multiple of eps times the sum of
    the products' absolute values, which is this bound without the 64. The
    multiple grows with the summation length, in practice like its square
    root; the measured error is at most 0.6 eps times the absolute sum at
    the sizes of these tests and 2.1 at m = 20,000 and |b| = 400, so 64
    leaves a wide margin. A relative tolerance would fail where positive and
    negative coefficients cancel to a value near zero."""
    x = model.features if idx is None else model.features[idx]
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    act_a = np.maximum(aug @ a.T, 0.0)
    act_b = np.maximum(aug @ b.T, 0.0)
    return 64.0 * EPS * (act_a.T @ (act_b @ np.abs(coef))) / aug.shape[0]


def assert_matches_matrix_product(name, model, a, b, coef, idx):
    got = model.weighted_kernel(a, b, coef, idx)
    want = model.kernel_matrix(a, b, idx) @ coef
    assert got.shape == (a.shape[0],)
    if name == "relu":
        assert np.all(np.abs(got - want) <= relu_sum_bound(model, a, b, coef, idx))
    elif name == "gmm":
        assert np.array_equal(got, (gauss_density(a, b, model._kvar) @ coef) * model._knorm)
    else:
        assert np.array_equal(got, want)


@given(name=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 2**32 - 1),
       n_a=st.integers(0, 9), n_b=st.integers(0, 9),
       pairing=st.sampled_from(["apart", "same object", "equal copy"]),
       batch=st.one_of(st.none(), st.integers(1, 40)))
@settings(max_examples=200, deadline=None)
def test_weighted_kernel_matches_kernel_matrix(name, seed, n_a, n_b, pairing, batch):
    problem = PROBLEMS[name]
    model = problem.model
    g = np.random.Generator(np.random.Philox(seed))
    a = problem.domain.sample_uniform(g, size=n_a)
    if pairing == "same object":
        b = a
    elif pairing == "equal copy":
        b = a.copy()
    else:
        b = problem.domain.sample_uniform(g, size=n_b)
    coef = g.uniform(0.01, 1.0, size=b.shape[0]) * g.choice([-1.0, 1.0], size=b.shape[0])
    idx = None if batch is None else g.integers(0, model.n_samples, size=batch)
    assert_matches_matrix_product(name, model, a, b, coef, idx)


def test_relu_weighted_kernel_at_run_scale():
    # p = 300 particles over m = 2000 samples, where BLAS blocks both sums
    g = np.random.Generator(np.random.Philox(2))
    problem = make_relu_problem(seed=2, n=2000, d=8)
    model = problem.model
    pts = problem.domain.sample_uniform(g, size=300)
    coef = g.uniform(0.01, 1.0, size=300) * g.choice([-1.0, 1.0], size=300)
    for idx in (None, g.integers(0, 2000, size=256)):
        assert_matches_matrix_product("relu", model, pts, pts, coef, idx)
        assert_matches_matrix_product("relu", model, pts[:40], pts, coef, idx)
