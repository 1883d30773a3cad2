import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectivity import lppl
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
    _refine,
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


class TestCosSin:
    """The grid stage's tan(theta / 2) basis agrees with np.cos and np.sin."""

    # One ulp of 1 beyond the measured worst case leaves room for a libm tan.
    BOUND = 2 * np.spacing(1.0)

    @staticmethod
    def cos_sin(theta):
        theta = np.array(theta, dtype=float)
        cos_out, sin_out = np.empty_like(theta), np.empty_like(theta)
        lppl._cos_sin(theta.copy(), cos_out, sin_out)
        return cos_out, sin_out

    @given(st.lists(st.one_of(
        st.floats(-1e5, 1e5),
        # Within 1e-6 of k*pi/2 (k*pi for even k), where cos or sin crosses zero
        # and tan(theta / 2) is 0, +-1 or unbounded.
        st.builds(lambda k, d: k * (math.pi / 2) + d,
                  st.integers(-63_000, 63_000), st.floats(-1e-6, 1e-6)),
        st.sampled_from([0.0, -0.0]),
    ), min_size=1, max_size=64))
    @settings(max_examples=300)
    def test_matches_libm_within_two_ulps_of_one(self, theta):
        cos_out, sin_out = self.cos_sin(theta)
        assert np.max(np.abs(cos_out - np.cos(theta))) <= self.BOUND
        assert np.max(np.abs(sin_out - np.sin(theta))) <= self.BOUND

    def test_signed_zero(self):
        cos_out, sin_out = self.cos_sin([0.0, -0.0])
        assert cos_out.tolist() == [1.0, 1.0]
        assert sin_out.tolist() == [0.0, 0.0]
        assert np.signbit(sin_out).tolist() == [False, True]

    def test_non_finite_angles_give_nan(self):
        # np.tan(+-inf) flags an invalid operation, as np.cos(+-inf) does.
        with np.errstate(invalid="ignore"):
            cos_out, sin_out = self.cos_sin([math.nan, math.inf, -math.inf])
        assert np.isnan(cos_out).all() and np.isnan(sin_out).all()


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

    @pytest.mark.parametrize("seed", [23, 58])
    def test_abs_cosine_matches_node_by_node_search_at_bench_size(self, seed):
        # The benchmark's |cos| series: 300 daily points before t_c = 330, 1% noise.
        t = np.arange(300.0)
        model = LogPeriodicModel(tc=330.0, alpha=0.5, lam=2.0, phi=1.0, a=2.0, b=0.3,
                                 variant="abs-cosine")
        clean = evaluate_model(model, t)
        rng = np.random.default_rng(seed)
        y = clean + 0.01 * np.std(clean) * rng.standard_normal(len(t))
        cfg = FitConfig(
            tc_grid=np.linspace(300.5, 600.0, 4),
            lam_grid=np.linspace(1.5, 3.5, 5),
            alpha_grid=np.linspace(-1.0, 1.0, 3),
            variant="abs-cosine",
        )
        want_sse, want_node, _ = self.reference_search(t, y, cfg)
        want_skipped = int(np.sum(~(self.reference_determinants(t, cfg) > DEGENERACY_TOL)))
        diag = FitDiagnostics()
        grid_sse, node = _grid_stage(t, y, cfg, diag)
        assert node == want_node
        assert grid_sse == pytest.approx(want_sse, rel=1e-8)
        assert diag.grid_nodes == 4 * 5 * 3 * PHI_SCAN_POINTS
        assert diag.nodes_skipped == want_skipped

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


def bench_abs_series(seed):
    # The benchmark's |cos| series: 300 daily points before t_c = 330, 1% noise.
    t = np.arange(300.0)
    model = LogPeriodicModel(tc=330.0, alpha=0.5, lam=2.0, phi=1.0, a=2.0, b=0.3,
                             variant="abs-cosine")
    clean = evaluate_model(model, t)
    rng = np.random.default_rng(seed)
    return t, clean + 0.01 * np.std(clean) * rng.standard_normal(len(t))


class TestGridBlocks:
    """The lam blocks and the worker pool change nothing about the grid stage's result."""

    @staticmethod
    def blocked_stage(monkeypatch, times, y, config, block_bytes, workers):
        monkeypatch.setattr(lppl, "GRID_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(lppl, "pool_workers", lambda: workers)
        scanned = []
        scan_rows = lppl._scan_rows

        def record(logx, y, omegas, *args):
            scanned.append(tuple(omegas))
            return scan_rows(logx, y, omegas, *args)

        monkeypatch.setattr(lppl, "_scan_rows", record)
        diag = FitDiagnostics()
        grid_sse, node = _grid_stage(times, y, config, diag)
        # Each block is scanned once per slab of t_c rows, and the blocks cover
        # the lam grid once, in order, however they were scheduled.
        slabs = min(workers, len(config.tc_grid))
        assert set(Counter(scanned).values()) == {slabs}
        omegas = [2.0 * math.pi / math.log(lam) for lam in config.lam_grid]
        blocks = sorted(set(scanned), key=lambda block: omegas.index(block[0]))
        assert [omega for block in blocks for omega in block] == omegas
        return grid_sse, node, diag, len(blocks)

    # (byte budget, workers): one block inline, then 3 blocks and one block per lam,
    # inline and on two threads.
    LAYOUTS = [(1 << 40, 1), (1 << 40, 2), ("three", 1), ("three", 2), (1, 1), (1, 2)]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_blocks_and_workers_pick_the_same_node(self, monkeypatch, variant):
        t, y = bench_abs_series(23)
        cfg = FitConfig(
            tc_grid=np.linspace(300.5, 600.0, 7),
            lam_grid=np.linspace(1.5, 3.5, 9),
            alpha_grid=np.linspace(-1.0, 1.0, 5),
            variant=variant,
        )
        n_phi = PHI_SCAN_POINTS if variant == "abs-cosine" else 1
        # Row buffers of one lam: theta, the oscillation columns and their product,
        # and for |cos| the cos and sin of theta.
        if variant == "abs-cosine":
            lam_bytes = 8 * len(t) * (1 + 2 * PHI_SCAN_POINTS + 2)
        else:
            lam_bytes = 8 * len(t) * (1 + 3)
        results = {}
        for budget, workers in self.LAYOUTS:
            budget = 3 * lam_bytes if budget == "three" else budget
            grid_sse, node, diag, n_blocks = self.blocked_stage(monkeypatch, t, y, cfg,
                                                                budget, workers)
            assert n_blocks == {1 << 40: 1, 3 * lam_bytes: 3, 1: 9}[budget]
            results[budget, workers] = (grid_sse, node, diag.grid_nodes, diag.nodes_skipped)
        want_sse, want_node, _, _ = results[1 << 40, 1]
        for (budget, workers), (grid_sse, node, grid_nodes, skipped) in results.items():
            assert (node, grid_nodes, skipped) == (want_node, 7 * 9 * 5 * n_phi, 0)
            # BLAS may round a product differently for another block width, never
            # for another worker count.
            assert grid_sse == pytest.approx(want_sse, rel=1e-12)
            assert grid_sse == results[budget, 1][0]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_skipped_nodes_are_counted_in_every_block(self, monkeypatch, variant):
        # The degenerate-node setup of TestGridStage, one lam per block.
        t = np.linspace(0.0, 30.0, 40)
        y = np.sin(t)
        cfg = FitConfig(
            tc_grid=np.array([40.0, 2.0e12]),
            lam_grid=np.array([2.0, 1.0e9]),
            alpha_grid=np.array([0.0, 0.5]),
            variant=variant,
        )
        results = [self.blocked_stage(monkeypatch, t, y, cfg, budget, workers)
                   for budget, workers in [(1 << 40, 1), (1, 1), (1, 2)]]
        (want_sse, want_node, want, _), *blocked = results
        assert 0 < want.nodes_skipped < want.grid_nodes
        for grid_sse, node, diag, n_blocks in blocked:
            assert n_blocks == 2
            assert node == want_node
            assert grid_sse == pytest.approx(want_sse, rel=1e-12)
            assert (diag.grid_nodes, diag.nodes_skipped) == (want.grid_nodes, want.nodes_skipped)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_exact_tie_across_blocks_goes_to_the_first_lam(self, monkeypatch, variant, workers):
        # y = 0 gives every node an SSE of exactly 0: the first node in
        # (lam, alpha, phi, t_c) order must win, whichever block finishes first.
        t = np.linspace(0.0, 200.0, 80)
        cfg = FitConfig(
            tc_grid=np.linspace(205.0, 280.0, 4),
            lam_grid=np.linspace(1.6, 3.0, 6),
            alpha_grid=np.linspace(-0.5, 1.0, 3),
            variant=variant,
        )
        grid_sse, node, diag, n_blocks = self.blocked_stage(monkeypatch, t, np.zeros(len(t)),
                                                            cfg, 1, workers)
        assert n_blocks == 6
        assert grid_sse == 0.0
        phi = None if variant == "cosine" else 0.0
        assert node == (205.0, 1.6, -0.5, phi)
        assert diag.nodes_skipped == 0


class TestRowSlabs:
    """Splitting a lam block's t_c rows across workers, in row batches, changes no output bit."""

    @staticmethod
    def row_bytes(times, config):
        # One t_c row's buffers for the whole lam grid (one block): theta, the
        # oscillation columns and their product, and for |cos| the cos and sin of theta.
        if config.variant == "abs-cosine":
            per_lam = 1 + 2 * PHI_SCAN_POINTS + 2
        else:
            per_lam = 1 + 3
        return 8 * len(times) * len(config.lam_grid) * per_lam

    @classmethod
    def sliced_stage(cls, monkeypatch, times, y, config, workers, batch):
        """_grid_stage with `workers` slabs of `batch`-row batches (None: all rows at once)."""
        budget = 1 << 40 if batch is None else batch * workers * cls.row_bytes(times, config)
        monkeypatch.setattr(lppl, "GRID_BLOCK_BYTES", budget)
        monkeypatch.setattr(lppl, "pool_workers", lambda: workers)
        slabs = []
        scan_rows = lppl._scan_rows

        def record(logx, *args):
            slabs.append((len(logx), args[-1]))
            return scan_rows(logx, *args)

        monkeypatch.setattr(lppl, "_scan_rows", record)
        diag = FitDiagnostics()
        grid_sse, node = _grid_stage(times, y, config, diag)
        n_rows = len(config.tc_grid)
        # One lam block, split into one contiguous slab per worker.
        assert sorted(n for n, _ in slabs) == sorted(len(s) for s in
                                                     np.array_split(np.arange(n_rows), workers))
        for slab_rows, slab_batch in slabs:
            assert slab_batch >= slab_rows if batch is None else slab_batch == batch
        return grid_sse, node, diag

    LAYOUTS = [(workers, batch) for workers in (1, 2, 3) for batch in (1, 3, None)]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_workers_and_batches_give_identical_bits(self, monkeypatch, variant):
        t, y = bench_abs_series(58)
        cfg = FitConfig(
            tc_grid=np.linspace(300.5, 600.0, 7),    # 7 rows: no worker count divides them
            lam_grid=np.linspace(1.5, 3.5, 6),
            alpha_grid=np.linspace(-1.0, 1.0, 5),
            variant=variant,
        )
        n_phi = PHI_SCAN_POINTS if variant == "abs-cosine" else 1
        results = {layout: self.sliced_stage(monkeypatch, t, y, cfg, *layout)
                   for layout in self.LAYOUTS}
        want_sse, want_node, want = results[1, 1]
        assert (want.grid_nodes, want.nodes_skipped) == (7 * 6 * 5 * n_phi, 0)
        for grid_sse, node, diag in results.values():
            assert np.float64(grid_sse).tobytes() == np.float64(want_sse).tobytes()
            assert node == want_node
            assert (diag.grid_nodes, diag.nodes_skipped) == (want.grid_nodes, want.nodes_skipped)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(("workers", "batch"), LAYOUTS)
    def test_exact_tie_across_slabs_goes_to_the_first_row(self, monkeypatch, variant,
                                                          workers, batch):
        # y = 0 gives every node an SSE of exactly 0 in every t_c row: each node
        # must keep row 0, whichever slab or batch reaches it.
        t = np.linspace(0.0, 200.0, 80)
        cfg = FitConfig(
            tc_grid=np.linspace(205.0, 280.0, 5),
            lam_grid=np.linspace(1.6, 3.0, 4),
            alpha_grid=np.linspace(-0.5, 1.0, 3),
            variant=variant,
        )
        y = np.zeros(len(t))
        grid_sse, node, diag = self.sliced_stage(monkeypatch, t, y, cfg, workers, batch)
        assert grid_sse == 0.0
        assert node == (205.0, 1.6, -0.5, None if variant == "cosine" else 0.0)
        assert diag.nodes_skipped == 0

        # Every node, not only the winner, keeps the first row.
        logx = np.log(cfg.tc_grid[:, None] - t[None, :])
        omegas = np.array([2.0 * math.pi / math.log(lam) for lam in cfg.lam_grid])
        if variant == "cosine":
            phis = np.zeros(1)
        else:
            phis = np.arange(PHI_SCAN_POINTS) * (math.pi / PHI_SCAN_POINTS)
        # lppl.pool_workers is still patched to `workers` by sliced_stage.
        best_sse, best_row, _ = lppl._scan_grid(logx, y, omegas, cfg.alpha_grid, phis,
                                                variant == "abs-cosine", [(0, len(omegas))])
        assert np.all(best_sse == 0.0)
        assert np.all(best_row == 0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_degenerate_nodes_are_counted_once_across_slabs(self, monkeypatch, variant):
        # The degenerate-node setup of TestGridStage, with far and near t_c rows
        # interleaved so that every slab holds some of each.
        t = np.linspace(0.0, 30.0, 40)
        y = np.sin(t)
        cfg = FitConfig(
            tc_grid=np.array([40.0, 2.0e12, 50.0, 5.0e12, 60.0]),
            lam_grid=np.array([2.0, 1.0e9]),
            alpha_grid=np.array([0.0, 0.5]),
            variant=variant,
        )
        dets = TestGridStage.reference_determinants(t, cfg)
        assert not np.any((dets > 0.1 * DEGENERACY_TOL) & (dets < 10.0 * DEGENERACY_TOL))
        want_skipped = int(np.sum(~(dets > DEGENERACY_TOL)))
        assert 0 < want_skipped < dets.size
        want_sse, want_node, _ = TestGridStage.reference_search(t, y, cfg)
        for layout in self.LAYOUTS:
            grid_sse, node, diag = self.sliced_stage(monkeypatch, t, y, cfg, *layout)
            assert (diag.grid_nodes, diag.nodes_skipped) == (dets.size, want_skipped)
            assert node == want_node
            assert grid_sse == pytest.approx(want_sse, rel=1e-8)


def ldl_projection_oracle(gram, rhs, y_sq, last_nonnegative):
    """The grid stage's LDL^T tail as an allocating loop over lists of entries."""
    size = len(rhs)
    schur = [list(row) for row in gram]
    z = list(rhs)
    sse, det = y_sq, 1.0
    for k in range(size):
        d = schur[k][k]
        det = det * (d / gram[k][k])
        before = sse
        sse = sse - z[k] * z[k] / d
        for j in range(k + 1, size):
            l_jk = schur[j][k] / d
            for m in range(k + 1, j + 1):
                schur[j][m] = schur[j][m] - l_jk * schur[m][k]
            z[j] = z[j] - l_jk * z[k]
    if last_nonnegative:
        sse = np.where(z[-1] < 0.0, before, sse)
    return sse, det


def assert_same_bits(got, want):
    want = np.broadcast_to(want, got.shape)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


SPECIAL_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf]


@st.composite
def ldl_inputs(draw):
    """Gram entries and right-hand sides of a (k, alpha, cols) batch of nodes.

    Small integer designs make exact zero Schur pivots common; scaled ones
    reach overflow and underflow, and single entries are set to 0, NaN or
    +-inf, diagonal (pivot) entries more often than the rest.
    """
    size = draw(st.sampled_from([2, 3]))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_t = draw(st.integers(1, 4))
    design = rng.integers(-1, 2, size=shape + (n_t, size)).astype(float)
    if draw(st.booleans()):
        design *= rng.uniform(0.5, 2.0, size=design.shape)
    design *= draw(st.sampled_from([1.0, 1e-160, 1e160]))
    y = rng.integers(-2, 3, size=shape + (n_t,)).astype(float)
    gram_full = np.einsum("...ti,...tj->...ij", design, design)
    rhs_full = np.einsum("...ti,...t->...i", design, y)
    gram = [[gram_full[..., j, m].copy() for m in range(j + 1)] for j in range(size)]
    rhs = [rhs_full[..., j].copy() for j in range(size)]
    if draw(st.booleans()):
        # The constant column's entries, broadcast over the node columns.
        gram[0][0], rhs[0] = gram[0][0][..., :1].copy(), rhs[0][..., :1].copy()
    pivots = [(j, j) for j in range(size)]
    entries = (pivots + [(j, m) for j in range(size) for m in range(j)]
               + [(j, None) for j in range(size)])
    for _ in range(draw(st.integers(0, 4))):
        j, m = draw(st.sampled_from(pivots) | st.sampled_from(entries))
        target = rhs[j] if m is None else gram[j][m]
        target.flat[draw(st.integers(0, target.size - 1))] = draw(st.sampled_from(SPECIAL_VALUES))
    y_sq = float(draw(st.sampled_from([0.0, 1.0, 7.5, 1e300])))
    return gram, rhs, y_sq, shape


class TestLdlTail:
    """The buffered LDL^T tail gives the bits of the allocating loop, and a |cos| row
    holds one scan array."""

    @given(inputs=ldl_inputs(), last_nonnegative=st.booleans())
    @settings(max_examples=300)
    def test_matches_the_allocating_loop_bit_for_bit(self, inputs, last_nonnegative):
        gram, rhs, y_sq, shape = inputs
        kept = [a.copy() for a in itertools.chain(*gram, rhs)]
        scratch = lppl._ldl_scratch(len(rhs), shape)
        scratch.fill(12.5)     # results must not depend on what the buffers held
        flag = np.ones(shape, dtype=bool)
        with np.errstate(all="ignore"):
            want_sse, want_det = ldl_projection_oracle(gram, rhs, y_sq, last_nonnegative)
            sse, det = lppl._ldl_projection(gram, rhs, y_sq, last_nonnegative, scratch, flag)
        assert sse.shape == det.shape == shape
        assert_same_bits(sse, want_sse)
        assert_same_bits(det, want_det)
        for a, b in zip(itertools.chain(*gram, rhs), kept):
            assert_same_bits(a, b)

    def test_abs_cosine_row_holds_one_scan_array(self):
        # One t_c row, 2 lams x 64 phis x 300 points: the (lam*phi, T) scan column is
        # 300 KB, and every other buffer of the call comes to about a tenth of that.
        t, y = bench_abs_series(23)
        logx = np.log(330.0 - t)[None]
        omegas = np.array([2.0 * math.pi / math.log(lam) for lam in (2.0, 2.5)])
        phis = np.arange(PHI_SCAN_POINTS) * (math.pi / PHI_SCAN_POINTS)
        scan_bytes = 8 * len(omegas) * PHI_SCAN_POINTS * len(t)
        tracemalloc.start()
        try:
            lppl._scan_rows(logx, y, omegas, np.array([0.5]), phis, True, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scan_bytes < peak < 1.5 * scan_bytes


class TestGatheredTail:
    """_scan_rows gathers the Gram entries of S t_c rows and runs the LDL^T tail once
    per block; the block size S changes no output bit."""

    @staticmethod
    def tail_bytes(n_alpha, n_cols, abs_cosine):
        # Per row, 8 bytes a node for each of: the node entries (cross entries,
        # right-hand sides and squares), the LDL^T scratch slots and two masks.
        slots, scratch = (3, 6) if abs_cosine else (7, 9)
        return 8 * (slots + scratch + 2) * n_alpha * n_cols

    @classmethod
    def scan(cls, monkeypatch, logx, y, omegas, alphas, phis, abs_cosine, batch, groups):
        """_scan_rows with blocks of `groups` batches (None: all rows); returns its
        result as bytes and the row count of every tail call."""
        n_cols = len(omegas) * len(phis)
        budget = 1 << 40 if groups is None else groups * cls.tail_bytes(len(alphas), n_cols,
                                                                         abs_cosine)
        monkeypatch.setattr(lppl, "_row_bytes", lambda *args: budget)
        blocks = []
        ldl_projection = lppl._ldl_projection

        def record(gram, rhs, y_sq, last_nonnegative, scratch, flag):
            blocks.append(len(flag))
            return ldl_projection(gram, rhs, y_sq, last_nonnegative, scratch, flag)

        monkeypatch.setattr(lppl, "_ldl_projection", record)
        best_sse, best_row, skipped = lppl._scan_rows(logx, y, omegas, alphas, phis,
                                                      abs_cosine, batch)
        return (best_sse.tobytes(), best_row.tolist(), skipped), blocks

    @staticmethod
    def grid_inputs(times, tc_grid, lam_grid, alpha_grid, variant):
        logx = np.log(np.asarray(tc_grid)[:, None] - times[None, :])
        omegas = np.array([2.0 * math.pi / math.log(lam) for lam in lam_grid])
        if variant == "cosine":
            phis = np.zeros(1)
        else:
            phis = np.arange(PHI_SCAN_POINTS) * (math.pi / PHI_SCAN_POINTS)
        return logx, omegas, np.asarray(alpha_grid, dtype=float), phis

    # (batch, batches per block): S = 1, 2, 3 and all rows in one-row batches, then
    # blocks of whole batches; 7 rows leave a short last block for every S below 7.
    LAYOUTS = [(1, 1), (1, 2), (1, 3), (1, None), (2, 1), (3, 2)]

    def assert_layouts_agree(self, monkeypatch, times, y, tc_grid, lam_grid, alpha_grid, variant):
        logx, omegas, alphas, phis = self.grid_inputs(times, tc_grid, lam_grid, alpha_grid,
                                                      variant)
        n_rows = len(logx)
        results = {}
        for batch, groups in self.LAYOUTS:
            result, blocks = self.scan(monkeypatch, logx, y, omegas, alphas, phis,
                                       variant == "abs-cosine", batch, groups)
            size = n_rows if groups is None else batch * groups
            assert blocks == [min(size, n_rows - lo) for lo in range(0, n_rows, size)]
            results[batch, groups] = result
        want = results[1, 1]
        for result in results.values():
            assert result == want
        return want

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_block_size_changes_no_bit(self, monkeypatch, variant):
        t, y = bench_abs_series(58)
        want = self.assert_layouts_agree(monkeypatch, t, y, np.linspace(300.5, 600.0, 7),
                                         np.linspace(1.5, 3.5, 3), np.linspace(-1.0, 1.0, 4),
                                         variant)
        assert want[2] == 0
        # The rows' minima are not all in one row, so the merge across blocks is exercised.
        assert len(set(itertools.chain(*want[1]))) > 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_exact_ties_across_blocks_go_to_the_first_row(self, monkeypatch, variant):
        # y = 0 gives every node an SSE of exactly 0 in every t_c row.
        t = np.linspace(0.0, 200.0, 80)
        best_sse, best_row, skipped = self.assert_layouts_agree(
            monkeypatch, t, np.zeros(len(t)), np.linspace(205.0, 280.0, 7),
            np.linspace(1.6, 3.0, 3), np.linspace(-0.5, 1.0, 3), variant)
        assert np.all(np.frombuffer(best_sse) == 0.0)
        assert set(itertools.chain(*best_row)) == {0}
        assert skipped == 0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_degenerate_rows_in_different_blocks_are_counted_once(self, monkeypatch, variant):
        # The degenerate-node setup of TestGridStage: the t_c = 2e12-like rows fall
        # in different blocks for every S between 2 and 6.
        t = np.linspace(0.0, 30.0, 40)
        tc_grid = [40.0, 2.0e12, 50.0, 60.0, 5.0e12, 70.0, 3.0e12]
        cfg = FitConfig(tc_grid=np.array(tc_grid), lam_grid=np.array([2.0, 1.0e9]),
                        alpha_grid=np.array([0.0, 0.5]), variant=variant)
        dets = TestGridStage.reference_determinants(t, cfg)
        assert not np.any((dets > 0.1 * DEGENERACY_TOL) & (dets < 10.0 * DEGENERACY_TOL))
        want_skipped = int(np.sum(~(dets > DEGENERACY_TOL)))
        assert 0 < want_skipped < dets.size
        _, _, skipped = self.assert_layouts_agree(monkeypatch, t, np.sin(t), cfg.tc_grid,
                                                  cfg.lam_grid, cfg.alpha_grid, variant)
        assert skipped == want_skipped

    def test_gathered_block_stays_within_the_row_buffers(self):
        # A default-grid cosine slab on 2 workers: 100 t_c rows, 41 lams, 21 alphas,
        # 500 points, in 3-row batches. The gathered block takes at most the bytes
        # of the batch's row buffers, so the call holds about twice those, beside
        # the env and [env**2; env * y] buffers.
        t = np.arange(500.0)
        cfg = default_fit_config(t)
        logx, omegas, alphas, phis = self.grid_inputs(t, cfg.tc_grid[1:101], cfg.lam_grid,
                                                      cfg.alpha_grid, "cosine")
        batch = 3
        row_buffers = batch * lppl._row_bytes(len(t), len(omegas), 1, False)
        env_bytes = 8 * batch * 3 * len(alphas) * len(t)
        tracemalloc.start()
        try:
            lppl._scan_rows(logx, np.cos(t / 30.0), omegas, alphas, phis, False, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 1.5 * row_buffers < peak - env_bytes < 2.0 * row_buffers

    def test_short_series_cuts_the_batch_to_its_gathered_block(self):
        # A default-grid cosine slab of 20 points on 2 workers: a row's node buffers
        # (123,984 bytes) outweigh its row buffers (26,240), so the 79-row batch
        # _scan_grid asks for is cut to the 16 rows whose node buffers fit in its
        # row-buffer bytes. Uncut, the gathered block would take 79 rows, 9.8 MB.
        t = np.arange(20.0)
        cfg = default_fit_config(t)
        logx, omegas, alphas, phis = self.grid_inputs(t, cfg.tc_grid[1:101], cfg.lam_grid,
                                                      cfg.alpha_grid, "cosine")
        row_bytes = lppl._row_bytes(len(t), len(omegas), 1, False)
        batch = lppl.GRID_BLOCK_BYTES // (2 * row_bytes)
        budget = batch * row_bytes
        tracemalloc.start()
        try:
            lppl._scan_rows(logx, np.cos(t / 3.0), omegas, alphas, phis, False, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * budget


class TestRefine:
    @staticmethod
    def refined(times, y, config):
        diag = FitDiagnostics()
        _, node = _grid_stage(times, y, config, diag)
        params = _refine(times, y, config, node, diag)
        return node, params, diag

    @staticmethod
    def sse_at(times, y, config, params):
        tc, lam, alpha, phi = params
        x = distance_to_critical(times, tc, config.direction)
        return _node_solve(x, y, lam, alpha, config.variant, phi)[0]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("direction", DIRECTIONS)
    # The generating (t_c, lam, alpha) sit inside the box, or beyond its far corner.
    @pytest.mark.parametrize("inside", [True, False])
    def test_refine_stays_in_the_box_and_never_raises_the_sse(self, variant, direction, inside):
        t = np.linspace(0.0, 200.0, 120)
        tc = 230.0 if direction == "bubble" else -30.0
        model = LogPeriodicModel(tc=tc, alpha=0.4, lam=2.2, phi=0.8, a=1.5, b=0.3,
                                 variant=variant, direction=direction)
        rng = np.random.default_rng(7)
        y = evaluate_model(model, t) + 0.02 * rng.standard_normal(len(t))
        offsets = np.linspace(5.0, 80.0, 6) if inside else np.linspace(45.0, 80.0, 4)
        cfg = FitConfig(
            tc_grid=t.max() + offsets if direction == "bubble" else t.min() - offsets,
            lam_grid=np.linspace(1.6, 3.0, 5) if inside else np.linspace(2.5, 3.0, 3),
            alpha_grid=np.linspace(-0.5, 1.0, 4) if inside else np.linspace(0.6, 1.0, 3),
            variant=variant,
            direction=direction,
        )
        node, params, diag = self.refined(t, y, cfg)
        for value, grid in zip(params, (cfg.tc_grid, cfg.lam_grid, cfg.alpha_grid)):
            assert grid.min() <= value <= grid.max()
        assert self.sse_at(t, y, cfg, params) <= self.sse_at(t, y, cfg, node)
        assert diag.converged
        if not inside:
            # The generating alpha = 0.4 lies below the box: the refine ends on its bound.
            assert params[2] == cfg.alpha_grid.min()

    def test_bench_like_abs_cosine_fit_converges(self):
        # The benchmark's seed-1 |cos| input, where coordinate descent used up its 500 sweeps.
        t, y = bench_abs_series([1, 4])
        cfg = FitConfig(
            tc_grid=np.linspace(300.5, 600.0, 50),
            lam_grid=np.linspace(1.5, 3.5, 41),
            alpha_grid=np.linspace(-1.0, 1.0, 21),
            variant="abs-cosine",
        )
        result = fit_model(t, y, cfg)
        assert result.diagnostics.converged
        assert result.diagnostics.grid_nodes == 50 * 41 * 21 * PHI_SCAN_POINTS
        assert result.diagnostics.nodes_skipped == 0
        assert result.sse <= result.diagnostics.grid_sse
        assert result.model.lam == pytest.approx(2.0, rel=0.05)


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

    def test_smoothing_wider_than_the_series_is_rejected(self):
        x, y = self.log_periodic_series(2.0, n=40)
        with pytest.raises(DataError, match="^smooth_width 60 exceeds the 40 points of the series$"):
            extrema_progression(x, y, tc=0.0, direction="antibubble", smooth_width=60)

    def test_bubble_direction_uses_distance_before_tc(self):
        lam = 2.0
        model = LogPeriodicModel(tc=1000.0, alpha=0.0, lam=lam, phi=0.5, a=1.0, b=0.3)
        t = 1000.0 - np.logspace(0.5, 2.8, 5000)
        y = evaluate_model(model, t)
        result = extrema_progression(t, y, tc=1000.0, direction="bubble")
        assert result.lambda_estimate == pytest.approx(lam, rel=1e-3)
