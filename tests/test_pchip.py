"""Shape-preserving interpolation: construction, evaluation, sensitivities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatflux import pchip
from heatflux.errors import RefinementError, ValidationError

VALUES = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=12,
)


def dense_points(p, per_interval=40):
    return np.linspace(p.knots[0], p.knots[-1], (p.n - 1) * per_interval + 1)


def bitwise_cases(material):
    """The builtin diffusivity and 400 random partitions, each with its every
    knot, the neighbouring floats on both sides, points beyond both ends and
    random interior points."""
    rng = np.random.default_rng(41)
    cases = [material.diffusivity]
    for _ in range(400):
        n = int(rng.integers(3, 40))
        lo = rng.uniform(-1e3, 1e3) * 10.0 ** rng.integers(-3, 7)
        knots = np.linspace(lo, lo + rng.uniform(1e-3, 1e3) * 10.0 ** rng.integers(0, 8), n)
        cases.append(pchip.Pchip(knots, rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 10)))
    for p in cases:
        k = p.knots
        span = k[-1] - k[0]
        yield p, np.concatenate([
            k,
            np.nextafter(k, -np.inf),
            np.nextafter(k, np.inf),
            [k[0] - span, k[0] - 1e-3 * span, k[-1] + 1e-3 * span, k[-1] + span],
            rng.uniform(k[0], k[-1], 200),
        ])


def plain_eval(p, xs):
    """Clamped values and slopes written out plainly: the interval table's
    columns gathered for every point, Horner, then the knot and outside
    fix-ups."""
    xc, idx, outside = pchip._locate(p, xs, True)
    k0, c0, c1, c2, c3, k1, v1, s0, s1 = p._table[:, idx]
    t = (xc - k0) * p._inv_h
    value = c0 + t * (c1 + t * (c2 + t * c3))
    slope = (c1 + t * (2.0 * c2 + 3.0 * t * c3)) * p._inv_h
    at_lo, at_hi = xc == k0, xc == k1
    value[at_lo], slope[at_lo] = c0[at_lo], s0[at_lo]
    value[at_hi], slope[at_hi] = v1[at_hi], s1[at_hi]
    slope[outside] = 0.0
    return value, slope


class TestConstruction:
    def test_symmetric_hump_slopes(self):
        p = pchip.Pchip([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert p.slopes.tolist() == [2.0, 0.0, -2.0]

    def test_hump_midpoint_value_and_derivative(self):
        # Hermite cubic on [0,1] with f=(0,1), d=(2,0): p(t) = 2t - t^2.
        p = pchip.Pchip([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        v, d = pchip.eval(p, 0.5)
        assert v == 0.75
        assert d == 1.0

    def test_interior_slope_is_harmonic_mean(self):
        p = pchip.Pchip([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        # secants 1 and 3 -> harmonic mean 2*1*3/(1+3) = 1.5
        assert p.slopes[1] == pytest.approx(1.5, rel=1e-15)

    def test_sign_change_zeroes_interior_slope(self):
        p = pchip.Pchip([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.5, 2.0])
        assert p.slopes[1] == 0.0
        assert p.slopes[2] == 0.0

    def test_endpoint_slope_three_point_formula(self):
        p = pchip.Pchip([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        # 1.5*delta0 - 0.5*delta1 = 1.5 - 1.5 = 0 ... both secants positive,
        # raw value 0 has sign 0 != sign(1), so the limiter pins it at 0.
        assert p.slopes[0] == 0.0

    def test_endpoint_slope_kept_when_shape_safe(self):
        p = pchip.Pchip([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
        # secants 2, 1 -> raw 1.5*2 - 0.5*1 = 2.5, same sign, no cap applies
        assert p.slopes[0] == 2.5

    def test_endpoint_slope_zeroed_against_secant(self):
        # raw d0 = 1.5*0.1 - 0.5*0.9 = -0.3 points against the first secant;
        # keeping it would drag the first interval below the data range.
        p = pchip.Pchip([0.0, 1.0, 2.0], [0.0, 0.1, 1.0])
        assert p.slopes[0] == 0.0
        xs = np.linspace(0.0, 2.0, 2001)
        assert pchip.eval(p, xs)[0].min() >= 0.0

    def test_endpoint_slope_capped_on_secant_disagreement(self):
        # secants 0.1 and -2.1 disagree; raw d0 = 1.2 > 3*0.1 gets capped.
        p = pchip.Pchip([0.0, 1.0, 2.0], [0.0, 0.1, -2.0])
        assert p.slopes[0] == pytest.approx(0.3, rel=1e-15)

    def test_flat_tail_zeroes_endpoint_slope(self):
        h = 0.25
        knots = h * np.arange(5)
        p = pchip.Pchip(knots, [0.0, 1.0, 0.5, 2.0, 2.0])
        # endpoint formula at the left gives (1.5*4 - 0.5*(-2)) = 7; at the
        # right the end secant is flat, so the slope collapses to 0.
        assert p.slopes[0] == pytest.approx(7.0, rel=1e-15)
        assert p.slopes[1:].tolist() == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, 1e307, 5e306, 1e307, 0.0],  # products of opposite secants overflow
            [0.0, 1e307, 1.5e307, 1.7e307, 1.75e307],  # and of secants of one sign
            [0.0, 2.5e153, 5.5e153, 8e153, 1e154],  # only the squares and doubled products
        ],
    )
    def test_huge_values_give_the_scaled_slopes(self, values):
        # Under a power-of-two scale every slope scales and every Jacobian
        # entry stays put, bit for bit; values of about 1e307 must give the
        # slopes of the same values times 2**-600, with no overflow warning
        # (the suite turns RuntimeWarnings into errors).
        knots = np.linspace(0.0, 1.0, 5)
        values = np.array(values)
        big, small = pchip.Pchip(knots, values), pchip.Pchip(knots, values * 2.0**-600)
        assert np.isfinite(big.slopes).all() and np.isfinite(big._slope_jac).all()
        assert (big.slopes.view(np.int64) == (small.slopes * 2.0**600).view(np.int64)).all()
        assert (big._slope_jac.view(np.int64) == small._slope_jac.view(np.int64)).all()

    @pytest.mark.parametrize(
        "knots, values",
        [
            # The secants overflow: 1e308 over a spacing of 1/8.
            (np.linspace(0.0, 0.5, 5), [0.0, 1e308, 0.0, 1e308, 0.0]),
            # The end slopes' three-point formula overflows.
            (np.linspace(0.0, 4.0, 5), [0.0, 1.7e308, 1.7e308, 1.7e308, 0.0]),
        ],
    )
    def test_overflowing_slopes_are_refused(self, knots, values):
        # Built anyway, such an interpolant holds inf and NaN slopes and
        # table entries and evaluates to NaN. It must be refused, with no
        # overflow warning on the way.
        with pytest.raises(ValidationError, match="too large"):
            pchip.Pchip(knots, values)

    @pytest.mark.parametrize("magnitude", [1e-170, 1.0, 1e150])
    def test_slopes_below_the_scale_threshold_keep_their_bits(self, magnitude):
        # The plain harmonic mean, on products that may underflow to zero
        # (then the slope is 0) but cannot overflow.
        rng = np.random.default_rng(31)
        knots = np.linspace(0.0, 3.0, 13)
        for _ in range(50):
            values = rng.uniform(-1.0, 1.0, 13) * magnitude
            delta = np.diff(values) / (knots[1] - knots[0])
            prod = delta[:-1] * delta[1:]
            want = np.where(prod > 0.0, 2.0 * np.abs(prod) / (delta[:-1] + delta[1:]), 0.0)
            got = pchip.Pchip(knots, values).slopes[1:-1]
            assert (got.view(np.int64) == want.view(np.int64)).all()

    def test_rejects_non_equidistant_knots(self):
        with pytest.raises(ValidationError):
            pchip.Pchip([0.0, 1.0, 3.0], [0.0, 1.0, 2.0])

    def test_rejects_too_few_knots(self):
        with pytest.raises(ValidationError):
            pchip.Pchip([0.0, 1.0], [0.0, 1.0])

    def test_rejects_decreasing_knots(self):
        with pytest.raises(ValidationError):
            pchip.Pchip([0.0, 2.0, 1.0], [0.0, 1.0, 2.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            pchip.Pchip([0.0, 1.0, 2.0], [0.0, 1.0])

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValidationError):
            pchip.Pchip([0.0, 1.0, 2.0], [0.0, np.nan, 2.0])


class TestEvaluation:
    def test_knots_interpolate_exactly(self):
        rng = np.random.default_rng(3)
        knots = np.linspace(-2.0, 7.0, 9)
        values = rng.uniform(-5.0, 5.0, 9)
        p = pchip.Pchip(knots, values)
        v, d = pchip.eval(p, knots)
        assert (v == values).all()
        assert (d == p.slopes).all()

    def test_scalar_and_array_paths_agree(self, builtin_material):
        # All three evaluators read one interval table; the scalar path must
        # give the array path's value and derivative bit for bit.
        for p, xs in bitwise_cases(builtin_material):
            va, da = pchip.eval(p, xs, clamp=True)
            scalar = np.array([pchip.eval(p, float(x), clamp=True) for x in xs])
            assert scalar[:, 0].tobytes() == va.tobytes()
            assert scalar[:, 1].tobytes() == da.tobytes()

    def test_march_evaluator_matches_eval_bitwise(self, builtin_material):
        # Both calls of the buffered evaluator, and `eval` on it, give the
        # plain evaluation's values and slopes bit for bit: on knots, on
        # points whose index rounds down onto a right knot, below and above
        # the range, and on a call shorter than the evaluator's buffers. The
        # values-only call skips the left-knot and outside fix-ups, which
        # must not show.
        right_knot_hits = 0
        for p, xs in bitwise_cases(builtin_material):
            value, slope = plain_eval(p, xs)
            evaluate = pchip.march_evaluator(p, xs.size)
            values, slopes = np.empty(xs.size), np.empty(xs.size)
            assert evaluate(xs, values, slopes) is values
            assert (values.view(np.int64) == value.view(np.int64)).all()
            assert (slopes.view(np.int64) == slope.view(np.int64)).all()
            values = evaluate(xs, np.empty(xs.size))
            assert (values.view(np.int64) == value.view(np.int64)).all()
            short = xs[: xs.size // 2]
            values = evaluate(short, np.empty(short.size), slopes[: short.size])
            assert (values.view(np.int64) == value[: short.size].view(np.int64)).all()
            assert (slopes[: short.size].view(np.int64) == slope[: short.size].view(np.int64)).all()
            got = pchip.eval(p, xs, clamp=True)
            assert (got[0].view(np.int64) == value.view(np.int64)).all()
            assert (got[1].view(np.int64) == slope.view(np.int64)).all()
            xc, idx, _ = pchip._locate(p, xs, True)
            right_knot_hits += int(((xc == p.knots[idx + 1]) & (idx + 1 < p.n - 1)).sum())
        assert right_knot_hits > 0

    def test_outside_raises_without_clamp(self):
        p = pchip.Pchip([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        with pytest.raises(ValidationError):
            pchip.eval(p, 2.5)
        with pytest.raises(ValidationError):
            pchip.eval(p, np.array([0.5, -0.5]))

    def test_clamp_extends_with_endpoint_values(self):
        p = pchip.Pchip([0.0, 1.0, 2.0], [3.0, 1.0, 4.0])
        assert pchip.eval(p, -1.0, clamp=True) == (3.0, 0.0)
        assert pchip.eval(p, 9.0, clamp=True) == (4.0, 0.0)
        v, d = pchip.eval(p, np.array([-1.0, 9.0]), clamp=True)
        assert v.tolist() == [3.0, 4.0]
        assert d.tolist() == [0.0, 0.0]

    def test_c1_continuity_at_interior_knots(self):
        p = pchip.Pchip(np.linspace(0.0, 4.0, 9), [0, 3, 1, 1, 5, 2, 8, 8, 7])
        # A merely C0 interpolant would show O(1) derivative jumps here, far
        # beyond the O(eps * curvature) drift these tolerances allow.
        eps = 1e-8
        for i in range(1, p.n - 1):
            x = p.knots[i]
            v_left, d_left = pchip.eval(p, x - eps)
            v_right, d_right = pchip.eval(p, x + eps)
            assert v_left == pytest.approx(p.values[i], abs=1e-6)
            assert v_right == pytest.approx(p.values[i], abs=1e-6)
            assert d_left == pytest.approx(p.slopes[i], abs=1e-5)
            assert d_right == pytest.approx(p.slopes[i], abs=1e-5)

    @settings(max_examples=150, deadline=None)
    @given(values=VALUES)
    def test_envelope_containment(self, values):
        values = np.asarray(values)
        p = pchip.Pchip(np.arange(values.size, dtype=float), values)
        dense = pchip.eval(p, dense_points(p))[0]
        span = values.max() - values.min()
        slack = 1e-12 * max(span, 1.0)
        assert dense.min() >= values.min() - slack
        assert dense.max() <= values.max() + slack

    @settings(max_examples=100, deadline=None)
    @given(values=VALUES)
    def test_monotone_data_gives_monotone_interpolant(self, values):
        values = np.sort(np.asarray(values))
        p = pchip.Pchip(np.arange(values.size, dtype=float), values)
        dense = pchip.eval(p, dense_points(p))[0]
        span = values.max() - values.min()
        assert (np.diff(dense) >= -1e-12 * max(span, 1.0)).all()


class TestValueSensitivity:
    def grad_fd(self, knots, values, x, eps=1e-6):
        g = np.empty(len(values))
        for i in range(len(values)):
            vp, vm = np.array(values, float), np.array(values, float)
            vp[i] += eps
            vm[i] -= eps
            g[i] = (
                pchip.eval(pchip.Pchip(knots, vp), x)[0]
                - pchip.eval(pchip.Pchip(knots, vm), x)[0]
            ) / (2 * eps)
        return g

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        knots = np.linspace(0.0, 5.0, 11)
        for _ in range(20):
            values = rng.uniform(-2.0, 2.0, 11)
            x = rng.uniform(0.0, 5.0)
            got = pchip.grad_wrt_values_many(pchip.Pchip(knots, values), [x])[0]
            want = self.grad_fd(knots, values, x)
            assert np.abs(got - want).max() < 1e-6

    def test_matches_finite_differences_on_limited_endpoints(self):
        knots = np.array([0.0, 1.0, 2.0, 3.0])
        for values in ([0.0, 0.1, 1.0, 2.0], [0.0, 0.1, -2.0, -2.5]):
            for x in (0.25, 0.5, 0.75):
                p = pchip.Pchip(knots, values)
                got = pchip.grad_wrt_values_many(p, [x])[0]
                want = self.grad_fd(knots, values, x)
                assert np.abs(got - want).max() < 1e-6

    def test_locality_four_consecutive_entries(self):
        rng = np.random.default_rng(4)
        knots = np.linspace(0.0, 9.0, 10)
        values = rng.uniform(0.0, 3.0, 10)
        p = pchip.Pchip(knots, values)
        for x in (0.4, 3.7, 8.6):
            row = pchip.grad_wrt_values_many(p, [x])[0]
            nz = np.flatnonzero(row)
            assert nz.size <= 4
            assert nz.max() - nz.min() <= 3

    def test_at_knot_reduces_to_unit_weight(self):
        p = pchip.Pchip(np.linspace(0.0, 4.0, 5), [1.0, 3.0, 2.0, 5.0, 4.0])
        row = pchip.grad_wrt_values_many(p, [2.0])[0]
        assert row[2] == pytest.approx(1.0, rel=1e-12)

    def test_band_assembly_matches_dense_bitwise(self):
        # Rows assembled from the banded slope Jacobian against the dense
        # n x n products they replace, compared as bytes: zeros keep their
        # sign (-0.0 wherever t = 0), limiter ties included.
        rng = np.random.default_rng(29)
        for trial in range(300):
            n = int(rng.integers(3, 16))
            lo = rng.uniform(-5.0, 5.0)
            knots = np.linspace(lo, lo + rng.uniform(0.1, 1e3), n)
            if trial % 2:
                values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 8)
            else:
                values = np.round(rng.uniform(-2.0, 2.0, n))
            p = pchip.Pchip(knots, values)
            span = knots[-1] - knots[0]
            xs = np.concatenate(
                [knots, rng.uniform(knots[0], knots[-1], 30), [knots[0] - span, knots[-1] + span]]
            )
            band = p._slope_jac
            J = np.zeros((n, n))
            for k in range(n):
                for o in range(-2, 3):
                    if 0 <= k + o < n:
                        J[k, k + o] = band[k, 2 + o]
            xc, idx, _ = pchip._locate(p, xs, True)
            h = p.interval_width
            t = (xc - knots[idx]) / h
            s = 1.0 - t
            H3 = -h * s * s * (s - 1.0)
            H4 = h * t * t * (t - 1.0)
            want = H3[:, None] * J[idx] + H4[:, None] * J[idx + 1]
            rows = np.arange(idx.size)
            want[rows, idx] += s * s * (3.0 - 2.0 * s)
            want[rows, idx + 1] += t * t * (3.0 - 2.0 * t)
            got = pchip.grad_wrt_values_many(p, xs, clamp=True)
            assert got.tobytes() == want.tobytes()

    def test_rows_reproduce_values_by_homogeneity(self):
        # Slopes are positively homogeneous of degree 1 in the values, hence
        # so is p(x), and Euler's identity gives p(x) = grad . values. A row
        # located in another interval than `eval` uses is off by O(1).
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(3, 25))
            lo = rng.uniform(-5.0, 5.0)
            knots = np.linspace(lo, lo + rng.uniform(0.1, 1e3), n)
            values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-3, 8)
            p = pchip.Pchip(knots, values)
            span = knots[-1] - knots[0]
            xs = np.concatenate(
                [
                    rng.uniform(knots[0], knots[-1], 50),
                    knots,
                    [knots[0] - span, knots[0] - 1e-3 * span],
                    [knots[-1] + 1e-3 * span, knots[-1] + span],
                ]
            )
            G = pchip.grad_wrt_values_many(p, xs, clamp=True)
            want = pchip.eval(p, xs, clamp=True)[0]
            err = np.abs(G @ values - want).max() / np.abs(values).max()
            worst = max(worst, float(err))
        assert worst <= 1e-13


class TestRefinement:
    def test_converges_on_smooth_function(self):
        level, p, err = pchip.refine_to_tolerance(np.sin, 0.0, np.pi, 1e-4)
        assert err < 1e-4
        assert p.n == 2**level + 1

    def test_levels_are_nested_doublings(self):
        level_a, pa, _ = pchip.refine_to_tolerance(np.sin, 0.0, np.pi, 1e-2)
        level_b, pb, _ = pchip.refine_to_tolerance(np.sin, 0.0, np.pi, 1e-6)
        assert level_b > level_a
        assert pb.n == 2**level_b + 1

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(RefinementError) as exc:
            pchip.refine_to_tolerance(np.sin, 0.0, np.pi, 0.0, max_level=5)
        assert exc.value.level == 5
        assert exc.value.max_error > 0.0

    def test_sampler_result_must_match_its_points(self):
        # A scalar result used to trigger one call per point and pass.
        with pytest.raises(ValidationError):
            pchip.refine_to_tolerance(lambda x: 1.0, 0.0, 1.0, 1e-3)

    def test_rejects_bad_interval_and_tolerance(self):
        with pytest.raises(ValidationError):
            pchip.refine_to_tolerance(np.sin, 1.0, 1.0, 1e-3)
        with pytest.raises(ValidationError):
            pchip.refine_to_tolerance(np.sin, 0.0, 1.0, -1e-3)


class TestFluxParameter:
    def test_round_trip_through_interpolants(self):
        part = np.linspace(0.0, 10.0, 5)
        beta = np.concatenate([[0.0, 1.0, 2.0, 1.0, 0.5], [0.0, 0.5, 3.0, 2.0, 1.0]])
        fp = pchip.FluxParameter(beta=beta, partition=part, beta_max=4.0)
        b0, bL = pchip.flux_interpolants(fp)
        assert np.array_equal(b0.values, beta[:5])
        assert np.array_equal(bL.values, beta[5:])
        assert fp.n == 5
        assert fp.partition[-1] == 10.0

    def test_rejects_out_of_box_values(self):
        part = np.linspace(0.0, 10.0, 3)
        with pytest.raises(ValidationError):
            pchip.FluxParameter(beta=np.array([0, 1, 5.0, 0, 1, 2.0]), partition=part, beta_max=4.0)
        with pytest.raises(ValidationError):
            pchip.FluxParameter(beta=np.array([0, 1, -0.1, 0, 1, 2.0]), partition=part, beta_max=4.0)

    @pytest.mark.parametrize("beta_max", [np.nan, np.inf, 0.0])
    def test_rejects_non_finite_or_nonpositive_bound(self, beta_max):
        # NaN passed the old `<= 0` check and then accepted any beta.
        with pytest.raises(ValidationError, match="beta_max"):
            pchip.FluxParameter(np.full(6, 5.0), np.linspace(0.0, 1.0, 3), beta_max)

    def test_rejects_wrong_length_and_offset_partition(self):
        with pytest.raises(ValidationError):
            pchip.FluxParameter(
                beta=np.zeros(5), partition=np.linspace(0.0, 10.0, 3), beta_max=4.0
            )
        with pytest.raises(ValidationError):
            pchip.FluxParameter(
                beta=np.zeros(6), partition=np.linspace(1.0, 10.0, 3), beta_max=4.0
            )


class TestSerialization:
    def test_save_load_round_trip(self, write_csv):
        p = pchip.Pchip(np.linspace(0.0, 2.0, 5), [0.0, 1.0, 0.5, 2.0, 2.0])
        path = write_csv("p.csv", pchip.PCHIP_CSV_HEADER, zip(p.knots, p.values, p.slopes))
        q = pchip.load_pchip(path)
        assert np.array_equal(p.knots, q.knots)
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.slopes, q.slopes)

    def test_loaded_interpolant_is_the_built_one(self, write_csv):
        # The slope column is not read: slopes that disagree with the values
        # would make the value sensitivities differentiate another interpolant.
        knots = np.linspace(0.0, 2.0, 5)
        values = np.array([0.0, 1.0, 0.5, 2.0, 2.0])
        path = write_csv(
            "zero_slopes.csv", pchip.PCHIP_CSV_HEADER, zip(knots, values, np.zeros(5))
        )
        q = pchip.load_pchip(path)
        p = pchip.Pchip(knots, values)
        assert np.array_equal(q.slopes, p.slopes)
        xs = np.linspace(0.0, 2.0, 41)
        vq, dq = pchip.eval(q, xs)
        vp, dp = pchip.eval(p, xs)
        assert np.array_equal(vq, vp) and np.array_equal(dq, dp)
        G = pchip.grad_wrt_values_many(q, xs)
        assert np.abs(G @ values - vq).max() / np.abs(values).max() <= 1e-13

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError):
            pchip.load_pchip(path)

    def test_load_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("knot,value,slope\n0.0,x,0.0\n")
        with pytest.raises(ValidationError):
            pchip.load_pchip(path)
