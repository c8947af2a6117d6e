import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm.domain import Ball, Box, DomainError, grid_points
from conicswarm.gaussian import _sqdist
from helpers import rng, same_bits


class TestProject:
    def test_box_clamps_outside_point(self):
        dom = Box([0.0, 0.0], [1.0, 1.0])
        assert np.allclose(dom.project(np.array([1.5, 0.5])), [1.0, 0.5])

    def test_ball_radial_scaling(self):
        dom = Ball([0.0, 0.0], 1.0)
        assert np.allclose(dom.project(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_interior_point_fixed(self):
        dom = Box([0.0, 0.0], [1.0, 1.0])
        x = np.array([0.3, 0.4])
        assert np.array_equal(dom.project(x), x)

    def test_idempotent(self):
        for dom in (Box([-1.0, 0.0], [2.0, 3.0]), Ball([0.5, -0.5], 1.3)):
            pts = rng(1).standard_normal((50, 2)) * 3
            once = dom.project(pts)
            assert np.allclose(dom.project(once), once, atol=1e-15)
            assert dom.contains(once).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Box([0.0, 0.0], [1.0, 1.0]).project(np.array([0.1, 0.2, 0.3]))


class TestProxStep:
    def test_zero_vector_is_stationary(self):
        dom = Box([0.0], [1.0])
        t_plus, pi = dom.prox_step(np.array([0.4]), np.array([0.0]), 0.7)
        assert np.allclose(t_plus, [0.4]) and np.allclose(pi, [0.0])

    def test_unconstrained_step_recovers_v(self):
        dom = Box([0.0, 0.0], [1.0, 1.0])
        t = np.array([0.5, 0.5])
        v = np.array([0.3, -0.2])
        t_plus, pi = dom.prox_step(t, v, 0.1)
        assert np.allclose(pi, v, atol=1e-14)
        assert np.allclose(t_plus, t - 0.1 * v)

    def test_boundary_case_matches_candidate_enumeration(self):
        # argmin over u in [0,1] of u*v + (u-t)^2 / (2 beta); the minimizer is
        # one of {0, t - beta v, 1} clipped to the box
        dom = Box([0.0], [1.0])
        t, v, beta = 0.0, 1.0, 0.5

        def objective(u):
            return u * v + (u - t) ** 2 / (2 * beta)

        candidates = [0.0, t - beta * v, 1.0]
        feasible = [u for u in candidates if 0.0 <= u <= 1.0]
        best = min(feasible, key=objective)
        t_plus, pi = dom.prox_step(np.array([t]), np.array([v]), beta)
        assert np.allclose(t_plus, [best])
        assert np.allclose(pi, [(t - best) / beta])
        assert best == 0.0 and pi[0] == 0.0

    def test_rejects_nonpositive_beta(self):
        dom = Box([0.0], [1.0])
        with pytest.raises(ValueError):
            dom.prox_step(np.array([0.5]), np.array([1.0]), 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_correlation_and_contraction(self, seed):
        g = rng(seed)
        dom = Ball([0.2, -0.1], 1.5) if seed % 2 else Box([-1.0, -1.0], [1.0, 2.0])
        t = dom.sample_uniform(g)
        v = g.standard_normal(2) * g.uniform(0.01, 3.0)
        beta = g.uniform(1e-3, 5.0)
        _, pi = dom.prox_step(t, v, beta)
        assert v @ pi >= pi @ pi - 1e-12
        assert np.linalg.norm(pi) <= np.linalg.norm(v) + 1e-12


class TestSampling:
    def test_box_mean(self):
        dom = Box([0.0, 0.0], [1.0, 1.0])
        pts = dom.sample_uniform(rng(3), size=100_000)
        assert np.abs(pts.mean(axis=0) - 0.5).max() < 0.01

    def test_ball_radial_fraction(self):
        dom = Ball([0.0, 0.0], 1.0)
        pts = dom.sample_uniform(rng(4), size=100_000)
        frac = np.mean(np.linalg.norm(pts, axis=1) <= 0.5)
        assert abs(frac - 0.25) < 0.01

    def test_membership(self):
        for dom in (Box([-2.0, 1.0], [0.0, 4.0]), Ball([1.0, 1.0, 1.0], 0.7)):
            pts = dom.sample_uniform(rng(5), size=5000)
            assert dom.contains(pts).all()

    def test_single_draw_shape(self):
        dom = Ball([0.0, 0.0], 1.0)
        assert dom.sample_uniform(rng(6)).shape == (2,)

    def test_zero_direction_lands_on_center(self):
        class ZeroNormals:
            def standard_normal(self, shape):
                return np.zeros(shape)

            def random(self, shape):
                return np.full(shape, 0.5)

        dom = Ball([0.5, -0.25], 0.7)
        assert np.array_equal(dom.sample_uniform(ZeroNormals(), size=2), [dom.center] * 2)


def off_centre_ball(d):
    return Ball(0.5 + 0.3 * np.arange(d), 0.7)


@pytest.mark.parametrize("d", [1, 2, 9, 25])
class TestBallSampling:
    """Uniform draws on an off-centre ball, checked against the exact law."""

    n = 20_000

    def test_every_draw_inside(self, d):
        dom = off_centre_ball(d)
        assert dom.contains(dom.sample_uniform(rng(20 + d), size=self.n)).all()

    def test_radial_cdf(self, d):
        # under the uniform law (|x - c| / r)^d is uniform on [0, 1]
        dom = off_centre_ball(d)
        pts = dom.sample_uniform(rng(30 + d), size=self.n)
        u = (np.linalg.norm(pts - dom.center, axis=1) / dom.radius) ** d
        assert abs(np.mean(u <= 0.5) - 0.5) <= 4 * math.sqrt(0.25 / self.n)

    def test_coordinate_moments(self, d):
        # each coordinate of x - c has mean 0 and even moments
        # E[x^2k] = r^2k * prod_{j<=k} (2j-1)/(d+2j): r^2/(d+2) for k = 1
        dom = off_centre_ball(d)
        pts = dom.sample_uniform(rng(40 + d), size=self.n)
        m = [math.prod((2 * j - 1) * dom.radius**2 / (d + 2 * j) for j in range(1, k + 1))
             for k in range(5)]
        off = pts - dom.center
        assert np.all(np.abs(off.mean(axis=0)) <= 4 * math.sqrt(m[1] / self.n))
        # the fourth moment tells an isotropic direction from, say, a normalized cube draw
        for k in (1, 2):
            sd = math.sqrt((m[2 * k] - m[k] ** 2) / self.n)
            assert np.all(np.abs((off ** (2 * k)).mean(axis=0) - m[k]) <= 4 * sd)

    def test_shapes(self, d):
        dom = off_centre_ball(d)
        assert dom.sample_uniform(rng(1)).shape == (d,)
        assert dom.sample_uniform(rng(1), size=0).shape == (0, d)
        assert dom.sample_uniform(rng(1), size=3).shape == (3, d)

    def test_seeded_generator_repeats(self, d):
        dom = off_centre_ball(d)
        assert np.array_equal(dom.sample_uniform(rng(50), size=64),
                              dom.sample_uniform(rng(50), size=64))
        assert np.array_equal(dom.sample_uniform(rng(51)), dom.sample_uniform(rng(51)))


def random_box(g, d):
    lower = g.standard_normal(d) * 10.0 ** g.uniform(-3.0, 3.0, size=d)
    return Box(lower, lower + g.uniform(1e-6, 1e3, size=d))


class TestBoxArithmetic:
    """``Box`` samples and projects by plain array arithmetic, with the bits
    of numpy's ``Generator.uniform`` and ``clip``."""

    @given(d=st.integers(1, 12), size=st.sampled_from([None, 0, 1, 2, 7, 300]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_sample_uniform_has_the_bits_of_generator_uniform(self, d, size, seed):
        dom = random_box(np.random.default_rng(seed), d)
        ours, numpys = rng(seed), rng(seed)
        pts = dom.sample_uniform(ours, size=size)
        shape = (d,) if size is None else (size, d)
        assert same_bits(pts, numpys.uniform(dom.lower, dom.upper, size=shape))
        # and leaves the generator where uniform leaves it
        assert ours.random() == numpys.random()

    # Coordinates inside, outside and on the bounds, zeros of both signs,
    # infinities and NaN, against bounds that may be zeros of either sign.
    # ``project`` has the bits of ``np.clip`` of each point alone, and of
    # ``np.clip`` of the whole stack in d >= 2. numpy 2.4 clips a d = 1 stack
    # with scalar bounds by another loop, which on a tie of signed zeros
    # (x = -0.0 at a bound 0.0) returns the point rather than the bound.
    @given(d=st.integers(1, 12), n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_project_has_the_bits_of_clip(self, d, n, seed):
        g = np.random.default_rng(seed)
        lower = g.choice([-2.5, -1.0, -0.0, 0.0, 0.5], size=d)
        upper = np.where(g.random(d) < 0.3, np.where(lower < 0.0, g.choice([-0.0, 0.0]), 1.0),
                         lower + g.choice([0.5, 1.0, 2.5], size=d))
        dom = Box(lower, upper)
        coords = np.concatenate([lower, upper, [0.0, -0.0, 0.3, -0.7, 5.0, -5.0, 1e-300,
                                                np.inf, -np.inf, np.nan]])
        x = g.choice(coords, size=(n, d))
        projected = dom.project(x)
        assert same_bits(projected, np.array([np.clip(p, lower, upper) for p in x]).reshape(n, d))
        if d > 1:
            assert same_bits(projected, np.clip(x, lower, upper))
        for p in x[:4]:
            assert same_bits(dom.project(p), np.clip(p, lower, upper))

    # the draws are lower + (upper - lower) U, so the width must be finite
    @pytest.mark.parametrize("lower, upper", [([0.0, -np.inf], [1.0, 1.0]),
                                              ([0.0, 0.0], [1.0, np.inf]),
                                              ([-np.inf], [np.inf]), ([-1e308], [1e308]),
                                              ([np.nan], [1.0]), ([1.0], [1.0])])
    def test_box_rejects_bounds_without_a_finite_width(self, lower, upper):
        with pytest.raises(ValueError, match="finite width"):
            Box(lower, upper)

    # the kernels form squared distances coordinate by coordinate, in order:
    # each width is finite here, but the sum of their squares is not
    @pytest.mark.parametrize("lower, upper", [([0.0], [1.4e154]), ([0.0, 0.0], [1e154, 1e154]),
                                              ([-1e160, 0.0], [1e160, 1.0]),
                                              ([0.0] * 3, [8e153] * 3)])
    def test_box_rejects_a_squared_diameter_that_is_not_finite(self, lower, upper):
        with pytest.raises(DomainError, match="squared diameter"):
            Box(lower, upper)

    @pytest.mark.parametrize("lower, upper", [([0.0], [1.3e154]), ([-9e153, 0.0], [0.0, 9e153]),
                                              ([0.0] * 3, [7.7e153] * 3)])
    def test_points_of_the_largest_boxes_have_finite_squared_distances(self, lower, upper):
        box = Box(lower, upper)
        corners = np.array(list(itertools.product(*zip(box.lower, box.upper))))
        points = np.vstack([corners, box.sample_uniform(rng(3), size=50)])
        with np.errstate(over="raise"):
            for n in (len(points), 70):  # the subtraction and the product paths
                stack = np.vstack([points] * (n // len(points) + 1))[:n]
                assert np.all(np.isfinite(_sqdist(stack, stack[::-1])))


class TestBallBounds:
    # a ball's volume and draws need a finite positive radius, and its
    # dimension is the length of a finite, one-axis centre
    @pytest.mark.parametrize("center, radius", [([0.0, 0.0], np.nan), ([0.0, 0.0], np.inf),
                                                ([0.0, 0.0], 0.0), ([0.0, 0.0], -1.0),
                                                (np.zeros((2, 2)), 1.0), ([], 1.0),
                                                ([0.0, np.nan], 1.0), ([np.inf, 0.0], 1.0)])
    def test_ball_rejects_what_it_cannot_hold(self, center, radius):
        with pytest.raises(DomainError, match="ball"):
            Ball(center, radius)


class TestVolume:
    def test_unit_cube(self):
        assert Box([0.0] * 3, [1.0] * 3).volume() == 1.0

    def test_disk(self):
        assert Ball([0.0, 0.0], 1.0).volume() == pytest.approx(math.pi)

    def test_rectangle(self):
        assert Box([0.0, 0.0], [2.0, 3.0]).volume() == pytest.approx(6.0)

    def test_ball_keeps_its_closed_form_bits_where_they_are_a_volume(self):
        for d in range(1, 342):
            for radius in (0.5, 1.0, 3.0):
                closed = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius**d
                if 0.0 < closed < math.inf:
                    assert same_bits(Ball(np.zeros(d), radius).volume(), closed), (d, radius)

    @staticmethod
    def unit_ball(d):
        """V_d = 2 pi V_{d-2} / d from V_0 = 1 and V_1 = 2, with no gamma."""
        vol = [1.0, 2.0]
        for k in range(2, d + 1):
            vol.append(2.0 * math.pi * vol[k - 2] / k)
        return vol[d]

    @pytest.mark.parametrize("d, radius", [(342, 1.0), (344, 1.0), (344, 10.0), (344, 0.1),
                                           (1000, 2.0)])
    def test_ball_past_the_gamma_overflow(self, d, radius):
        # gamma(d / 2 + 1) overflows from d = 342 on, though the unit ball of
        # R^344 has volume 1.5e-226; a radius power may overflow on its own
        expected = self.unit_ball(d) * (radius ** (d // 2)) * (radius ** (d - d // 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Ball(np.zeros(d), radius).volume() == pytest.approx(expected, rel=1e-12)

    def test_box_past_an_overflowing_or_underflowing_product(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vol = Box([0.0] * 4, [1e-200, 1e-200, 1e150, 1e150]).volume()
            assert vol == pytest.approx(1e-100, rel=1e-12)
            vol = Box([0.0] * 4, [1e150, 1e150, 1e150, 1e-300]).volume()
            assert vol == pytest.approx(1e150, rel=1e-12)

    @pytest.mark.parametrize("domain", [Ball([0.0, 0.0], 1e200), Ball(np.zeros(2000), 1e3),
                                        Box([0.0] * 3, [7.7e153] * 3)],
                             ids=["disk", "ball_2000", "cube"])
    def test_a_volume_past_the_float_range_is_inf_with_no_warning(self, domain):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert domain.volume() == math.inf


class TestGrid:
    def test_box_lattice_includes_corners(self):
        dom = Box([0.0, 0.0], [1.0, 2.0])
        pts = grid_points(dom, 5)
        assert pts.shape == (25, 2)
        for corner in ([0, 0], [1, 2], [0, 2], [1, 0]):
            assert any(np.allclose(p, corner) for p in pts)

    def test_ball_grid_inside(self):
        dom = Ball([0.0, 0.0], 1.0)
        pts = grid_points(dom, 9)
        assert dom.contains(pts).all()

    def test_high_dim_falls_back_to_sampling(self):
        # 8^9 lattice points are past the 50,000-point cap: 50,000 draws of
        # the fixed Philox(0) stream instead
        dom = Ball(np.zeros(9), 1.0)
        pts = grid_points(dom, 8)
        assert pts.shape == (50_000, 9)
        assert dom.contains(pts).all()
        assert same_bits(pts, dom.sample_uniform(rng(0), size=50_000))
