import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from collectivity.errors import DataError, NumericError
from collectivity import weierstrass
from collectivity.weierstrass import (
    MAX_ARRAY_BYTES,
    WeierstrassParams,
    analyze_self_similarity,
    renewal_residual,
    series_depth,
    simulate_walk,
    weierstrass_p,
    weierstrass_values,
)

param_sets = st.builds(
    WeierstrassParams,
    a=st.floats(0.1, 5.0),
    b=st.floats(1.2, 6.0),
    m=st.floats(1.5, 10.0),
)

# For the renewal identity the weights must decay at least as fast as the
# arguments grow (m >= b), or terms above the truncation tolerance hit the
# double-precision phase resolution of cos.
scaling_param_sets = st.builds(
    lambda a, b, q: WeierstrassParams(a=a, b=b, m=b**q),
    a=st.floats(0.1, 5.0),
    b=st.floats(1.2, 4.0),
    q=st.floats(1.0, 2.5),
)


class TestWeierstrassP:
    def test_value_at_zero_is_one_half(self):
        for params in (WeierstrassParams(), WeierstrassParams(a=0.3, b=1.7, m=2.5)):
            value, terms = weierstrass_p(0.0, params)
            assert value == pytest.approx(0.5, abs=params.truncation_tol)
            assert terms == series_depth(params)

    @given(params=param_sets, k=st.floats(-50.0, 50.0))
    @settings(max_examples=40)
    def test_even_in_k(self, params, k):
        assert weierstrass_p(k, params).value == pytest.approx(
            weierstrass_p(-k, params).value, abs=1e-14
        )

    @given(params=param_sets, k=st.floats(-100.0, 100.0))
    @settings(max_examples=40)
    def test_bounded_by_one_half(self, params, k):
        assert abs(weierstrass_p(k, params).value) <= 0.5 + params.truncation_tol

    def test_matches_long_direct_summation_oracle(self):
        # Oracle: explicit 200-term partial sum of the series.
        params = WeierstrassParams(a=1.0, b=2.0, m=4.0, truncation_tol=1e-12)
        k = math.pi
        oracle = (3.0 / 8.0) * sum(
            4.0**-j * math.cos(k * 2.0**j) for j in range(200)
        )
        assert weierstrass_p(k, params).value == pytest.approx(oracle, abs=1e-12)

    def test_truncation_depth_honors_tail_bound(self):
        params = WeierstrassParams(m=4.0, truncation_tol=1e-12)
        depth = series_depth(params)
        assert 4.0 ** -depth / 2.0 < 1e-12
        assert 4.0 ** -(depth - 1) / 2.0 >= 1e-12

    @given(params=scaling_param_sets)
    @settings(max_examples=30)
    def test_renewal_identity_on_random_grids(self, params):
        k = np.logspace(-2.0, 2.0, 101)
        assert renewal_residual(params, k) < 10.0 * params.truncation_tol

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DataError):
            WeierstrassParams(b=1.0)
        with pytest.raises(DataError):
            WeierstrassParams(m=0.9)
        with pytest.raises(DataError):
            WeierstrassParams(a=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "b", "m", "truncation_tol"])
    def test_non_finite_parameter_is_rejected_by_name(self, field, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{field} must be finite, got {value}$"):
                WeierstrassParams(**{field: value})

    def test_overflowing_step_length_is_a_numeric_error(self):
        # 498 terms: 10**j overflows from j = 309 on.
        params = WeierstrassParams(b=10.0, truncation_tol=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=re.escape("step length b**j * a is not finite at j = 309")):
                weierstrass_values([1.0], params)

    def test_overflowing_argument_is_a_numeric_error(self):
        # Every step length is finite, but k * b**j * a overflows at the largest k.
        params = WeierstrassParams(a=1e300)
        assert np.isfinite(weierstrass_values([1.0], params)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=re.escape("argument k * b**j * a is not finite at k = 1e+300, j = 0")):
                weierstrass_values([1.0, 1e300], params)


class TestSimulateWalk:
    def test_fixed_seed_reproduces_trajectory(self):
        params = WeierstrassParams()
        first = simulate_walk(params, 500, seed=42)
        second = simulate_walk(params, 500, seed=42)
        assert np.array_equal(first.positions, second.positions)
        assert np.array_equal(first.exponents, second.exponents)

    def test_positions_are_cumulative_displacements(self):
        params = WeierstrassParams()
        walk = simulate_walk(params, 200, seed=1)
        assert np.allclose(walk.positions, np.cumsum(walk.displacements))
        assert np.allclose(np.abs(walk.displacements), params.b ** walk.exponents * params.a)

    def test_huge_divisor_reduces_to_fixed_step_walk(self):
        # With m -> large almost every step has exponent 0; the count of
        # zero-exponent steps must sit within 3 sigma of the binomial law.
        m = 1.0e6
        n = 200_000
        walk = simulate_walk(WeierstrassParams(m=m), n, seed=7)
        p0 = (m - 1.0) / m
        count = int(np.sum(walk.exponents == 0))
        sigma = math.sqrt(n * p0 * (1.0 - p0))
        assert abs(count - n * p0) < 3.0 * sigma
        assert np.all(np.abs(walk.displacements[walk.exponents == 0]) == 1.0)

    def test_exponent_distribution_matches_geometric_mass(self):
        params = WeierstrassParams(b=2.0, m=4.0)
        n = 1_000_000
        walk = simulate_walk(params, n, seed=123)
        top = int(walk.exponents.max())
        observed = np.bincount(walk.exponents, minlength=top + 1).astype(float)
        expected = params.step_probability(np.arange(top + 1)) * n
        # Pool the tail so every expected bin count is at least 5.
        while expected[-1] < 5.0 and len(expected) > 2:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected = expected[:-1]
            observed = observed[:-1]
        expected[-1] += n - expected.sum()
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        threshold = stats.chi2.ppf(0.99, df=len(expected) - 1)
        assert chi2 < threshold

    def test_increments_are_symmetric(self):
        walk = simulate_walk(WeierstrassParams(b=2.0, m=4.0), 1_000_000, seed=5)
        disp = walk.displacements
        stderr = disp.std() / math.sqrt(len(disp))
        assert abs(disp.mean()) < 3.0 * stderr

    def test_step_count_validated(self):
        with pytest.raises(DataError):
            simulate_walk(WeierstrassParams(), 0, seed=0)

    def test_overflowing_step_length_is_a_numeric_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=re.escape("step length b**j * a is not finite")):
                simulate_walk(WeierstrassParams(b=1e300), 50, seed=0)

    def test_overflowing_position_is_a_numeric_error(self):
        # Steps of 1e308 are finite, but two in a row with the same sign are not.
        params = WeierstrassParams(a=1e308, m=1e6)
        assert np.abs(simulate_walk(params, 1, seed=0).positions[0]) == 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="walk position is not finite after step"):
                simulate_walk(params, 50, seed=0)


class TestSelfSimilarity:
    @pytest.mark.parametrize("b,m", [(2.0, 4.0), (3.0, 9.0)])
    def test_recovers_scale_ratio_within_two_percent(self, b, m):
        params = WeierstrassParams(a=1.0, b=b, m=m)
        k = np.logspace(-1.5, 1.7, 400)
        result = analyze_self_similarity(params, k)
        assert abs(result.lambda_estimate - b) / b < 0.02
        assert result.relative_deviation < 0.02
        # The regression weights independently recover 1/m and (m-1)/(2m).
        assert result.matched_weight == pytest.approx(1.0 / m, rel=1e-6)
        assert result.matched_amplitude == pytest.approx((m - 1.0) / (2.0 * m), rel=1e-6)
        assert result.scan_residual < 1e-12

    def test_narrow_grid_is_an_error(self):
        with pytest.raises(DataError, match="3 decades"):
            analyze_self_similarity(WeierstrassParams(), np.logspace(0.0, 2.0, 300))

    def test_featureless_grid_is_an_error(self):
        # Far below the first oscillation the series is monotone in k.
        params = WeierstrassParams()
        with pytest.raises(DataError, match="extrema"):
            analyze_self_similarity(params, np.logspace(-5.0, -1.0, 300))


def test_oracle_does_not_import_lppl():
    # The walk is the exact oracle for the log-periodic code, so it must not depend on it.
    tree = ast.parse(Path(weierstrass.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
    assert not [name for name in imported if "lppl" in name.split(".")]


class TestAllocationCap:
    def test_defaults_sit_far_below_the_cap(self):
        assert 8 * 601 * series_depth(WeierstrassParams()) * 1000 < MAX_ARRAY_BYTES
        assert 8 * 1_000_000 * 10 < MAX_ARRAY_BYTES

    def test_deep_series_is_rejected_before_allocating(self):
        params = WeierstrassParams(m=1.0000001)
        assert series_depth(params) == 269_378_753
        with pytest.raises(DataError, match=re.escape(
                "series depth 269378753 (m = 1.0000001, truncation_tol = 1e-12) at 1 wave numbers "
                "needs a 2,155,030,024-byte argument matrix")):
            weierstrass_values([1.0], params)

    def test_cap_counts_wave_numbers_times_depth(self, monkeypatch):
        params = WeierstrassParams()
        depth = series_depth(params)
        monkeypatch.setattr(weierstrass, "MAX_ARRAY_BYTES", 8 * 100 * depth)
        assert weierstrass_values(np.ones(100), params).shape == (100,)
        with pytest.raises(DataError, match="at 101 wave numbers"):
            weierstrass_values(np.ones(101), params)

    def test_long_walk_is_rejected_before_allocating(self, monkeypatch):
        with pytest.raises(DataError, match=re.escape(
                "n_steps = 1000000000000 needs 8,000,000,000,000 bytes per array")):
            simulate_walk(WeierstrassParams(), 10**12, seed=0)
        monkeypatch.setattr(weierstrass, "MAX_ARRAY_BYTES", 8 * 50)
        assert len(simulate_walk(WeierstrassParams(), 50, seed=0).positions) == 50
        with pytest.raises(DataError, match="n_steps = 51 "):
            simulate_walk(WeierstrassParams(), 51, seed=0)
