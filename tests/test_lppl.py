import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectivity.errors import DataError, NumericError
from collectivity.lppl import (
    DEGENERACY_TOL,
    DIRECTIONS,
    PHI_SCAN_POINTS,
    VARIANTS,
    FitConfig,
    FitDiagnostics,
    LogPeriodicModel,
    _grid_stage,
    _node_solve,
    default_fit_config,
    distance_to_critical,
    evaluate_model,
    extrema_progression,
    fit_model,
)


def bubble_model(**kw):
    base = dict(tc=400.0, alpha=0.5, lam=2.0, phi=1.0, a=2.0, b=0.3,
                variant="cosine", direction="bubble")
    base.update(kw)
    return LogPeriodicModel(**base)


class TestEvaluateModel:
    def test_pure_power_law_when_b_is_zero(self):
        model = bubble_model(b=0.0)
        t = np.linspace(0.0, 300.0, 50)
        assert np.allclose(evaluate_model(model, t), 2.0 * (400.0 - t) ** 0.5)

    def test_alpha_zero_cosine_is_periodic_under_lam_rescaling(self):
        model = LogPeriodicModel(tc=0.0, alpha=0.0, lam=2.0, phi=0.4, a=1.0, b=0.5,
                                 direction="antibubble")
        x = np.array([0.3, 1.0, 7.7, 42.0])
        assert np.allclose(evaluate_model(model, x), evaluate_model(model, model.lam * x),
                           atol=1e-12)

    def test_half_log_period_flips_the_cosine(self):
        # With alpha=0, A=0, B=1, lam=2, phi=0: value(1) = 1 and
        # value(sqrt(2)) = cos(pi) = -1 since ln(sqrt 2)/ln 2 = 1/2.
        model = LogPeriodicModel(tc=0.0, alpha=0.0, lam=2.0, phi=0.0, a=0.0, b=1.0,
                                 direction="antibubble")
        assert evaluate_model(model, [1.0])[0] == pytest.approx(1.0, abs=1e-12)
        assert evaluate_model(model, [math.sqrt(2.0)])[0] == pytest.approx(-1.0, abs=1e-12)

    def test_wrong_side_point_is_named(self):
        with pytest.raises(DataError, match="410"):
            evaluate_model(bubble_model(), [50.0, 410.0])

    def test_abs_cosine_envelope_lower_bound(self):
        model = bubble_model(variant="abs-cosine", b=0.4)
        t = np.linspace(0.0, 390.0, 500)
        x = model.tc - t
        values = evaluate_model(model, t)
        assert np.all(values >= model.a * x**model.alpha - abs(model.b) * x**model.alpha - 1e-12)

    @given(
        b=st.floats(0.01, 2.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        alpha=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=25)
    def test_gauge_equivalence_of_negated_amplitude(self, b, phi, alpha):
        t = np.linspace(0.0, 350.0, 80)
        plus = evaluate_model(bubble_model(b=b, phi=phi, alpha=alpha), t)
        minus = evaluate_model(
            bubble_model(b=-b, phi=(phi + math.pi) % (2 * math.pi), alpha=alpha), t
        )
        assert np.allclose(plus, minus, atol=1e-10)

    @pytest.mark.parametrize("tc", [math.nan, math.inf, -math.inf])
    def test_non_finite_critical_time_is_rejected(self, tc):
        with pytest.raises(DataError, match=f"^t_c must be finite, got {tc}$"):
            evaluate_model(bubble_model(tc=tc), [0.0, 1.0])

    def test_lam_must_exceed_one(self):
        with pytest.raises(DataError, match="exceed 1"):
            bubble_model(lam=0.9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, name", [("tc", "t_c"), ("alpha", "alpha"), ("lam", "lam"),
                                             ("phi", "phi"), ("a", "a"), ("b", "b")])
    def test_non_finite_parameter_is_rejected_by_name(self, field, name, value):
        with pytest.raises(DataError, match=f"^{name} must be finite, got {value}$"):
            bubble_model(**{field: value})


def in_grid_config() -> FitConfig:
    # Grids containing the generating parameters exactly (tc=400, lam=2, alpha=0.5).
    return FitConfig(
        tc_grid=np.linspace(370.0, 1090.0, 73),
        lam_grid=np.linspace(1.5, 3.5, 21),
        alpha_grid=np.linspace(-1.0, 1.0, 21),
    )


class TestFitModel:
    def test_noise_free_round_trip_recovers_parameters(self):
        model = bubble_model()
        t = np.linspace(0.0, 360.0, 300)
        y = evaluate_model(model, t)
        result = fit_model(t, y, in_grid_config())
        fitted = result.model
        assert result.sse / result.n_points < 1e-10
        assert fitted.tc == pytest.approx(400.0, abs=0.5)
        assert fitted.lam == pytest.approx(2.0, abs=0.01)
        assert fitted.alpha == pytest.approx(0.5, abs=0.01)
        assert fitted.phi == pytest.approx(1.0, abs=0.01)
        assert fitted.a == pytest.approx(2.0, rel=1e-3)
        assert fitted.b == pytest.approx(0.3, rel=1e-2)

    def test_fit_is_deterministic(self):
        model = bubble_model()
        t = np.linspace(0.0, 360.0, 120)
        rng = np.random.default_rng(5)
        y = evaluate_model(model, t) + 0.05 * rng.standard_normal(len(t))
        cfg = FitConfig(
            tc_grid=np.linspace(370.0, 1090.0, 37),
            lam_grid=np.linspace(1.5, 3.5, 11),
            alpha_grid=np.linspace(-1.0, 1.0, 11),
        )
        first = fit_model(t, y, cfg)
        second = fit_model(t, y, cfg)
        assert first.model == second.model
        assert first.sse == second.sse

    def test_pure_power_law_gives_insignificant_oscillation(self):
        # B=0 data with 1% noise: the fitted amplitude must be statistically
        # indistinguishable from zero at its linear-subproblem standard error.
        # (The search maximizes over frequencies, so the fixture seed matters;
        # this one was verified to sit well inside the 3-sigma band.)
        t = np.linspace(0.0, 360.0, 300)
        clean = 2.0 * (400.0 - t) ** 0.5
        rng = np.random.default_rng(0)
        y = clean + 0.01 * np.std(clean) * rng.standard_normal(len(t))
        result = fit_model(t, y, in_grid_config())
        m = result.model
        x = m.tc - t
        env = x**m.alpha
        theta = m.omega * np.log(x)
        design = np.column_stack([env, env * np.cos(theta), env * np.sin(theta)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        sigma2 = result.sse / (len(t) - 3)
        cov = sigma2 * np.linalg.inv(design.T @ design)
        b = float(np.hypot(coef[1], coef[2]))
        grad = np.array([coef[1] / b, coef[2] / b])
        stderr = math.sqrt(float(grad @ cov[1:, 1:] @ grad))
        assert m.b < 3.0 * stderr

    def test_scaling_input_scales_only_linear_parameters(self):
        model = bubble_model()
        t = np.linspace(0.0, 360.0, 150)
        y = evaluate_model(model, t)
        cfg = in_grid_config()
        base = fit_model(t, y, cfg)
        scaled = fit_model(t, 2.5 * y, cfg)
        assert scaled.model.tc == pytest.approx(base.model.tc, abs=1e-6)
        assert scaled.model.lam == pytest.approx(base.model.lam, abs=1e-6)
        assert scaled.model.alpha == pytest.approx(base.model.alpha, abs=1e-6)
        assert scaled.model.phi == pytest.approx(base.model.phi, abs=1e-5)
        assert scaled.model.a == pytest.approx(2.5 * base.model.a, rel=1e-6)
        assert scaled.model.b == pytest.approx(2.5 * base.model.b, rel=1e-6)

    def test_affine_shift_with_flat_envelope(self):
        # With alpha = 0 the model family is closed under adding constants.
        model = bubble_model(alpha=0.0, a=1.0, b=0.4)
        t = np.linspace(0.0, 360.0, 150)
        y = evaluate_model(model, t)
        cfg = in_grid_config()
        base = fit_model(t, y, cfg)
        shifted = fit_model(t, 3.0 * y + 7.0, cfg)
        assert shifted.model.lam == pytest.approx(base.model.lam, abs=1e-6)
        assert shifted.model.phi == pytest.approx(base.model.phi, abs=1e-4)
        assert shifted.model.a == pytest.approx(3.0 * base.model.a + 7.0, rel=1e-6)
        assert shifted.model.b == pytest.approx(3.0 * base.model.b, rel=1e-5)

    def test_fitter_canonicalizes_amplitude_sign(self):
        model = bubble_model()
        t = np.linspace(0.0, 360.0, 100)
        y = evaluate_model(model, t)
        result = fit_model(t, y, in_grid_config())
        assert result.model.b >= 0.0
        assert 0.0 <= result.model.phi < 2.0 * math.pi

    def test_abs_cosine_recovery(self):
        model = LogPeriodicModel(tc=300.0, alpha=0.3, lam=2.0, phi=0.7, a=1.0, b=0.25,
                                 variant="abs-cosine")
        t = np.linspace(0.0, 290.0, 250)
        y = evaluate_model(model, t)
        cfg = FitConfig(
            tc_grid=np.linspace(292.0, 420.0, 33),
            lam_grid=np.linspace(1.6, 2.4, 9),
            alpha_grid=np.linspace(0.0, 0.6, 7),
            variant="abs-cosine",
        )
        result = fit_model(t, y, cfg)
        assert result.sse / result.n_points < 1e-6
        assert result.model.lam == pytest.approx(2.0, rel=0.05)
        assert result.model.tc == pytest.approx(300.0, abs=3.0)
        assert 0.0 <= result.model.phi < math.pi

    def test_too_few_points_is_an_error(self):
        with pytest.raises(DataError, match="at least 20"):
            fit_model(np.arange(10.0), np.arange(10.0))

    def test_all_nodes_on_wrong_side_is_an_error(self):
        t = np.linspace(0.0, 100.0, 30)
        cfg = FitConfig(tc_grid=np.array([50.0]), lam_grid=np.array([2.0]),
                        alpha_grid=np.array([0.5]))
        with pytest.raises(DataError, match="wrong side"):
            fit_model(t, np.ones(30), cfg)

    def test_degenerate_nodes_raise_numeric_error(self):
        # Data crammed into a sliver of x: the oscillation columns are
        # numerically constant, so every node is rank deficient.
        t = np.linspace(0.0, 30.0, 40)
        y = np.sin(t)
        cfg = FitConfig(
            tc_grid=np.array([2.0e9]),
            lam_grid=np.array([1.0e9]),
            alpha_grid=np.array([0.0]),
        )
        with pytest.raises(NumericError, match="rank-deficient"):
            fit_model(t, y, cfg)

    def test_default_config_brackets_the_series(self):
        t = np.linspace(0.0, 100.0, 50)
        cfg = default_fit_config(t)
        assert cfg.tc_grid[0] == pytest.approx(100.0)
        assert cfg.tc_grid[-1] == pytest.approx(300.0)
        assert len(cfg.tc_grid) == 200
        anti = default_fit_config(t, direction="antibubble")
        assert anti.tc_grid[0] == pytest.approx(-200.0)
        assert anti.tc_grid[-1] == pytest.approx(0.0)


class TestFitConfigGrids:
    NAMES = {"tc_grid": "t_c", "lam_grid": "lam", "alpha_grid": "alpha"}

    @pytest.mark.parametrize("grid", list(NAMES))
    @pytest.mark.parametrize("bad", [[], [math.nan], [2.0, math.inf]])
    def test_empty_or_non_finite_grid_is_rejected_by_name(self, grid, bad):
        grids = {"tc_grid": [400.0], "lam_grid": [2.0], "alpha_grid": [0.5], grid: bad}
        with pytest.raises(DataError, match=rf"^{self.NAMES[grid]} grid (is empty|has a non-finite)"):
            FitConfig(**grids)


class TestGridStage:
    """The batched grid stage picks the node a node-by-node search picks."""

    @staticmethod
    def phi_scan(config):
        if config.variant == "cosine":
            return [None]
        return [float(p) for p in np.arange(PHI_SCAN_POINTS) * (math.pi / PHI_SCAN_POINTS)]

    @classmethod
    def reference_search(cls, times, y, config):
        # Every node through _node_solve, in (lam, alpha, phi, t_c) order; first strict minimum.
        phis = cls.phi_scan(config)
        best_sse, best_node = math.inf, None
        for lam in config.lam_grid:
            for alpha in config.alpha_grid:
                for phi in phis:
                    for tc in config.tc_grid:
                        x = distance_to_critical(times, tc, config.direction)
                        sse = _node_solve(x, y, lam, alpha, config.variant, phi)[0]
                        if sse < best_sse:
                            best_sse, best_node = sse, (float(tc), float(lam), float(alpha), phi)
        return best_sse, best_node, len(phis)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("direction", DIRECTIONS)
    # A negative |cos| amplitude puts the unconstrained optimum behind the B >= 0 boundary.
    @pytest.mark.parametrize("b", [0.3, -0.3])
    def test_matches_node_by_node_search(self, variant, direction, b):
        t = np.linspace(0.0, 200.0, 80)
        tc = 230.0 if direction == "bubble" else -30.0
        model = LogPeriodicModel(tc=tc, alpha=0.4, lam=2.2, phi=0.8, a=1.5, b=b,
                                 variant=variant, direction=direction)
        rng = np.random.default_rng(11)
        y = evaluate_model(model, t) + 0.02 * rng.standard_normal(len(t))
        offsets = np.linspace(5.0, 80.0, 6)
        cfg = FitConfig(
            tc_grid=t.max() + offsets if direction == "bubble" else t.min() - offsets,
            lam_grid=np.linspace(1.6, 3.0, 5),
            alpha_grid=np.linspace(-0.5, 1.0, 4),
            variant=variant,
            direction=direction,
        )
        want_sse, want_node, n_phi = self.reference_search(t, y, cfg)
        diag = FitDiagnostics()
        grid_sse, node = _grid_stage(t, y, cfg, diag)
        assert node == want_node
        assert grid_sse == pytest.approx(want_sse, rel=1e-8)
        assert diag.grid_nodes == 6 * 5 * 4 * n_phi
        assert diag.nodes_skipped == 0

    @classmethod
    def reference_determinants(cls, times, config):
        # det of each node's column-normalized design.T @ design, from _node_solve's columns.
        dets = []
        for lam in config.lam_grid:
            for alpha in config.alpha_grid:
                for phi in cls.phi_scan(config):
                    for tc in config.tc_grid:
                        x = distance_to_critical(times, tc, config.direction)
                        env = x**alpha
                        theta = 2.0 * math.pi / math.log(lam) * np.log(x)
                        if phi is None:
                            cols = [env, env * np.cos(theta), env * np.sin(theta)]
                        else:
                            cols = [env, env * np.abs(np.cos(theta + phi))]
                        design = np.column_stack(cols)
                        design /= np.linalg.norm(design, axis=0)
                        dets.append(np.linalg.det(design.T @ design))
        return np.array(dets)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_degenerate_nodes_are_skipped_and_counted(self, variant):
        # Seen from t_c = 2e12, a 30-day series spans so little of ln(x) that the
        # oscillation columns are numerically constant; seen from t_c = 40 they are not.
        t = np.linspace(0.0, 30.0, 40)
        y = np.sin(t)
        cfg = FitConfig(
            tc_grid=np.array([40.0, 2.0e12]),
            lam_grid=np.array([2.0, 1.0e9]),
            alpha_grid=np.array([0.0, 0.5]),
            variant=variant,
        )
        dets = self.reference_determinants(t, cfg)
        # No node sits within 10x of the tolerance, where rounding could count it either way.
        assert not np.any((dets > 0.1 * DEGENERACY_TOL) & (dets < 10.0 * DEGENERACY_TOL))
        want_skipped = int(np.sum(~(dets > DEGENERACY_TOL)))
        assert 0 < want_skipped < dets.size
        diag = FitDiagnostics()
        grid_sse, node = _grid_stage(t, y, cfg, diag)
        assert diag.grid_nodes == dets.size
        assert diag.nodes_skipped == want_skipped
        want_sse, want_node, _ = self.reference_search(t, y, cfg)
        assert node == want_node
        assert grid_sse == pytest.approx(want_sse, rel=1e-8)


class TestExtremaProgression:
    def log_periodic_series(self, lam, n=6000, phi=1.0, b=0.4, variant="cosine"):
        model = LogPeriodicModel(tc=0.0, alpha=0.0, lam=lam, phi=phi, a=1.0, b=b,
                                 variant=variant, direction="antibubble")
        x = np.logspace(0.0, 2.5, n)
        return x, evaluate_model(model, x)

    @pytest.mark.parametrize("lam", [2.0, 3.0])
    def test_exact_model_ratios_match_lam(self, lam):
        x, y = self.log_periodic_series(lam)
        result = extrema_progression(x, y, tc=0.0, direction="antibubble")
        assert np.all(np.abs(result.ratios - lam) < 1e-3 * lam)
        assert result.lambda_estimate == pytest.approx(lam, rel=1e-4)

    def test_detected_extrema_match_analytic_positions(self):
        # Cosine extrema sit where the argument is a multiple of pi.
        lam, phi = 2.0, 1.0
        x, y = self.log_periodic_series(lam, phi=phi)
        result = extrema_progression(x, y, tc=0.0, direction="antibubble")
        omega = 2.0 * math.pi / math.log(lam)
        for pos in np.concatenate([result.minima, result.maxima]):
            theta = omega * math.log(pos) + phi
            assert abs(theta / math.pi - round(theta / math.pi)) < 1e-3

    def test_abs_cosine_ratios_estimate_sqrt_lam(self):
        lam = 4.0
        x, y = self.log_periodic_series(lam, variant="abs-cosine")
        result = extrema_progression(x, y, tc=0.0, direction="antibubble")
        assert result.lambda_estimate == pytest.approx(math.sqrt(lam), rel=0.02)
        # Smooth maxima of |cos| sit at multiples of pi; check them analytically.
        omega = 2.0 * math.pi / math.log(lam)
        for pos in result.maxima:
            theta = omega * math.log(pos) + 1.0
            assert abs(theta / math.pi - round(theta / math.pi)) < 1e-3

    def test_monotone_data_is_an_error(self):
        x = np.logspace(0.0, 3.1, 200)
        with pytest.raises(DataError, match="extrema"):
            extrema_progression(x, x**0.3, tc=0.0, direction="antibubble")

    def test_duplicate_times_are_rejected(self):
        x, y = self.log_periodic_series(2.0, n=500)
        x = np.concatenate([x, x[:1]])
        y = np.concatenate([y, y[:1]])
        with pytest.raises(DataError, match="duplicate"):
            extrema_progression(x, y, tc=0.0, direction="antibubble")

    def test_smoothing_suppresses_jitter(self):
        lam = 2.0
        x, clean = self.log_periodic_series(lam, n=4000)
        rng = np.random.default_rng(3)
        noisy = clean + 0.002 * rng.standard_normal(len(x))
        smoothed = extrema_progression(x, noisy, tc=0.0, direction="antibubble",
                                       smooth_width=151)
        raw = extrema_progression(x, noisy, tc=0.0, direction="antibubble")
        assert len(smoothed.minima) + len(smoothed.maxima) < len(raw.minima) + len(raw.maxima)
        assert smoothed.lambda_estimate == pytest.approx(lam, rel=0.05)

    def test_bubble_direction_uses_distance_before_tc(self):
        lam = 2.0
        model = LogPeriodicModel(tc=1000.0, alpha=0.0, lam=lam, phi=0.5, a=1.0, b=0.3)
        t = 1000.0 - np.logspace(0.5, 2.8, 5000)
        y = evaluate_model(model, t)
        result = extrema_progression(t, y, tc=1000.0, direction="bubble")
        assert result.lambda_estimate == pytest.approx(lam, rel=1e-3)
