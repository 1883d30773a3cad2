import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collectivity.errors import DataError, NumericError
from collectivity.rpa import (
    SchematicRpaModel,
    build_hamiltonian,
    solve_analytic,
    solve_numeric,
)

amplitude_vectors = st.lists(
    st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3), min_size=2, max_size=12
)


class TestModel:
    def test_needs_two_states(self):
        with pytest.raises(DataError):
            SchematicRpaModel(1.0, 0.5, np.array([1.0]))

    def test_rejects_zero_amplitudes(self):
        with pytest.raises(DataError, match="all zero"):
            SchematicRpaModel(1.0, 0.5, np.zeros(4))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["epsilon", "kappa"])
    def test_non_finite_parameter_is_rejected_by_name(self, field, value):
        args = {"epsilon": 1.0, "kappa": 0.5, "d": np.ones(3), field: value}
        with pytest.raises(DataError, match=f"^{field} must be finite, got {value}$"):
            SchematicRpaModel(**args)

    def test_non_finite_amplitude_is_rejected_by_index(self):
        with pytest.raises(DataError, match="^d must be finite, got inf at index 2$"):
            SchematicRpaModel(1.0, 0.5, np.array([1.0, 2.0, np.inf, np.nan]))


class TestBuildHamiltonian:
    def test_no_coupling_is_diagonal(self):
        model = SchematicRpaModel(2.5, 0.0, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(build_hamiltonian(model), 2.5 * np.eye(3))

    def test_formula_substitution(self):
        model = SchematicRpaModel(1.0, 0.5, np.array([1.0, 1.0]))
        assert np.allclose(build_hamiltonian(model), [[1.5, 0.5], [0.5, 1.5]])

    def test_single_active_amplitude(self):
        model = SchematicRpaModel(1.0, 0.7, np.array([1.0, 0.0, 0.0, 0.0]))
        h = build_hamiltonian(model)
        expected = np.eye(4)
        expected[0, 0] = 1.7
        assert np.allclose(h, expected)

    def test_diagonal_matches_contract(self, rng):
        d = rng.normal(size=6)
        model = SchematicRpaModel(0.3, -0.4, d)
        h = build_hamiltonian(model)
        assert np.allclose(np.diag(h), 0.3 - 0.4 * d**2)
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("kappa", [1e308, 0.0])
    def test_overflow_is_a_numeric_error(self, kappa):
        # d d^T overflows; with kappa = 0 the product is inf * 0 = nan.
        model = SchematicRpaModel(1.0, kappa, np.array([1e200, 1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="Hamiltonian .* is not finite"):
                build_hamiltonian(model)


class TestSolveAnalytic:
    def test_repulsive_uniform_amplitudes(self):
        model = SchematicRpaModel(1.0, 0.5, np.ones(4))
        solution = solve_analytic(model)
        assert np.allclose(sorted(solution.energies), [1.0, 1.0, 1.0, 3.0])
        assert solution.collective_energy == pytest.approx(3.0)
        assert sorted(solution.strengths) == pytest.approx([0.0, 0.0, 0.0, 4.0])

    def test_attractive_coupling_shifts_down(self):
        # The coherent state moves below the degenerate energy.
        model = SchematicRpaModel(1.0, -0.1, np.ones(4))
        solution = solve_analytic(model)
        assert solution.collective_energy == pytest.approx(0.6)
        assert solution.collective_energy < 1.0
        assert solution.energies[0] == pytest.approx(0.6)

    def test_no_coupling_keeps_individual_strengths(self):
        d = np.array([1.0, 2.0, -1.5])
        solution = solve_analytic(SchematicRpaModel(1.0, 0.0, d))
        assert np.allclose(solution.energies, 1.0)
        assert np.allclose(sorted(solution.strengths), sorted(d**2))


class TestSolveNumeric:
    def test_agrees_with_analytic_on_uniform_case(self):
        model = SchematicRpaModel(1.0, 0.5, np.ones(4))
        numeric = solve_numeric(model)
        analytic = solve_analytic(model)
        assert np.allclose(numeric.energies, analytic.energies, atol=1e-10)
        assert np.allclose(
            sorted(numeric.strengths), sorted(analytic.strengths), atol=1e-10
        )

    def test_no_coupling_keeps_degenerate_energies(self):
        model = SchematicRpaModel(0.7, 0.0, np.array([1.0, 2.0, 3.0]))
        numeric = solve_numeric(model)
        assert np.allclose(numeric.energies, 0.7)
        assert np.allclose(sorted(numeric.strengths), [1.0, 4.0, 9.0])

    def test_hundred_random_models(self):
        rng = np.random.default_rng(42)
        worst_energy = 0.0
        worst_strength = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 51))
            model = SchematicRpaModel(
                float(rng.normal()), float(rng.normal()), rng.normal(size=n)
            )
            numeric = solve_numeric(model)
            analytic = solve_analytic(model)
            worst_energy = max(
                worst_energy,
                float(np.max(np.abs(np.sort(numeric.energies) - np.sort(analytic.energies)))),
            )
            worst_strength = max(
                worst_strength,
                float(
                    np.max(np.abs(np.sort(numeric.strengths) - np.sort(analytic.strengths)))
                ),
            )
        assert worst_energy < 1e-9
        assert worst_strength < 1e-9

    @given(d=amplitude_vectors, kappa=st.floats(-2.0, 2.0), epsilon=st.floats(-5.0, 5.0))
    @settings(max_examples=40)
    def test_strength_sum_is_conserved(self, d, kappa, epsilon):
        model = SchematicRpaModel(epsilon, kappa, np.array(d))
        solution = solve_numeric(model)
        assert solution.strengths.sum() == pytest.approx(model.total_strength, abs=1e-10)
        assert np.all(solution.strengths >= 0)

    def test_collective_energy_monotonic_in_kappa(self):
        d = np.array([1.0, 0.5, -0.3, 2.0])
        energies = []
        for kappa in np.linspace(-1.0, 1.0, 21):
            if kappa == 0:
                continue
            solution = solve_numeric(SchematicRpaModel(1.0, float(kappa), d))
            energies.append(solution.collective_energy)
        assert np.all(np.diff(energies) > 0)

    def test_collective_vector_collinear_with_amplitudes(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = rng.normal(size=12)
            model = SchematicRpaModel(0.5, 0.8, d)
            solution = solve_numeric(model)
            cosine = abs(solution.collective_vector @ d) / np.linalg.norm(d)
            assert cosine > 1.0 - 1e-10
