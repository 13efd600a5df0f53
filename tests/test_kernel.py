"""Reporting kernel: normalisation, marginals, and the CAR detector."""

import json
import math

import numpy as np
import pytest

from grancount import ValidationError
from grancount.kernel import ReportingKernel, is_car, kernel_from_json, phi_matrix
from grancount.possibility import MembershipVector


def worked_example_kernel():
    """Two outcomes on {0..3} with a uniform reference mass."""
    xi1 = MembershipVector([1.0, 0.5, 0.5, 0.25])
    xi2 = MembershipVector([0.25, 0.5, 1.0, 1.0])
    return ReportingKernel(outcomes=(xi1, xi2), nu=np.array([0.5, 0.5]))


def random_kernel(rng, k_max=None, n_outcomes=None, strictly_positive=False):
    k = int(rng.integers(2, 8)) if k_max is None else k_max
    m = int(rng.integers(2, 5)) if n_outcomes is None else n_outcomes
    outcomes = []
    for _ in range(m):
        floor = 0.05 if strictly_positive else 0.0
        values = np.maximum(rng.uniform(0, 1, size=k + 1), floor)
        if not strictly_positive:
            values[rng.uniform(size=k + 1) < 0.3] = 0.0
        values[rng.integers(0, k + 1)] = 1.0
        outcomes.append(MembershipVector(values))
    # keep every count covered so the construction precondition c(y) > 0 holds
    stacked = np.stack([o.memberships for o in outcomes])
    for y in range(k + 1):
        if stacked[:, y].max() == 0.0:
            values = stacked[0].copy()
            values[y] = 0.05
            outcomes[0] = MembershipVector(values)
            stacked[0] = values
    nu = rng.dirichlet(np.ones(m))
    return ReportingKernel(outcomes=tuple(outcomes), nu=nu)


class TestNormalizer:
    def test_singleton_outcome(self):
        kern = ReportingKernel(outcomes=(MembershipVector([0.5, 1.0]),), nu=[1.0])
        assert kern.c[0] == 0.5

    def test_two_outcome_average(self):
        assert worked_example_kernel().c[0] == 5.0 / 8.0

    def test_full_possibility_gives_one(self):
        outcomes = tuple(MembershipVector(np.ones(4)) for _ in range(3))
        kern = ReportingKernel(outcomes=outcomes, nu=np.full(3, 1.0 / 3.0))
        assert abs(kern.c[2] - 1.0) < 1e-15

    def test_uncovered_count_raises_naming_y(self):
        kern = ReportingKernel(
            outcomes=(MembershipVector([1.0, 0.0]),), nu=[1.0]
        )
        with pytest.raises(ValidationError, match="y=1"):
            phi_matrix(kern)


class TestKernelProb:
    def test_worked_example_values(self):
        matrix = phi_matrix(worked_example_kernel())
        assert abs(matrix[0, 0] - 0.8) <= 1e-12
        assert abs(matrix[3, 0] - 0.2) <= 1e-12

    def test_full_set_is_certain(self):
        matrix = phi_matrix(worked_example_kernel())
        for y in range(4):
            assert matrix[y].sum() == 1.0

    def test_nine_outcome_kernel_matches_the_per_outcome_definition(self):
        # nine outcomes: more than numpy sums sequentially, so the kernel's
        # row sums and the exactly rounded ones may differ in the last bits
        rng = np.random.default_rng(5)
        for _ in range(20):
            kern = random_kernel(rng, n_outcomes=9)
            matrix = phi_matrix(kern)
            xi = [o.memberships for o in kern.outcomes]
            c = [math.fsum(kern.nu[j] * xi[j][y] for j in range(9)) for y in range(kern.k_max + 1)]
            for j in range(9):
                expected = [kern.nu[j] * xi[j][y] / c[y] for y in range(kern.k_max + 1)]
                assert matrix[:, j] == pytest.approx(expected, rel=1e-14, abs=0.0)
                result = is_car(kern, j)
                assert result.compatibility_set == tuple(np.flatnonzero(xi[j] > 0.0))
                expected = [xi[j][y] / c[y] for y in result.compatibility_set]
                assert result.ratios == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_uncovered_count_raises_only_where_needed(self):
        kern = ReportingKernel(outcomes=(MembershipVector([1.0, 0.5, 0.0]),), nu=[1.0])
        assert is_car(kern, 0).compatibility_set == (0, 1)
        with pytest.raises(ValidationError, match="y=2"):
            phi_matrix(kern)

    def test_row_stochastic_and_support(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            kern = random_kernel(rng)
            matrix = phi_matrix(kern)
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
            for j, outcome in enumerate(kern.outcomes):
                zero = outcome.memberships == 0.0
                assert np.all(matrix[zero, j] == 0.0)

    def test_kernel_arrays_are_read_only(self):
        kern = worked_example_kernel()
        for array in (kern.nu, kern.weighted, kern.c):
            with pytest.raises(ValueError):
                array[0] = 0.0


# Zadeh's probability of a fuzzy event xi is the expected membership of the
# latent count, xi . pmf; the marginal probability of reporting outcome j is
# pmf . phi[:, j].


class TestZadehProbability:
    def test_full_membership_gives_one(self):
        assert np.ones(5) @ np.full(5, 0.2) == 1.0

    def test_indicator_reduces_to_probability(self):
        values = np.zeros(4)
        values[2] = 1.0
        assert MembershipVector(values).memberships @ np.array([0.1, 0.2, 0.3, 0.4]) == 0.3

    def test_weighted_sum_fixture(self):
        mv = MembershipVector([1.0, 0.5, 0.25, 0.0])
        assert abs(mv.memberships @ np.array([0.4, 0.3, 0.2, 0.1]) - 0.6) < 1e-15


class TestMarginalOutcomeProb:
    def test_singleton_is_certain(self):
        kern = ReportingKernel(outcomes=(MembershipVector([0.5, 1.0]),), nu=[1.0])
        assert abs(np.array([0.3, 0.7]) @ phi_matrix(kern)[:, 0] - 1.0) < 1e-15

    def test_worked_example_with_uniform_counts(self):
        marginal = np.full(4, 0.25) @ phi_matrix(worked_example_kernel())[:, 0]
        expected = 0.25 * (4.0 / 5.0 + 0.5 + 1.0 / 3.0 + 0.2)
        assert abs(marginal - expected) < 1e-12

    def test_marginal_coherence(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            kern = random_kernel(rng)
            pmf = rng.dirichlet(np.ones(kern.k_max + 1))
            matrix = phi_matrix(kern)
            total = sum(pmf @ matrix[:, j] for j in range(kern.n_outcomes))
            assert abs(total - 1.0) <= 1e-12

    def test_zadeh_reduction_with_constant_mass(self):
        # second outcome chosen so the per-count mass is constant, making the
        # marginal proportional to the expected membership
        rng = np.random.default_rng(13)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            values = rng.uniform(0.1, 1.0, size=k + 1)
            values[rng.integers(0, k + 1)] = 1.0
            mirror = 1.0 + values.min() - values
            kern = ReportingKernel(
                outcomes=(MembershipVector(values), MembershipVector(mirror)),
                nu=np.array([0.5, 0.5]),
            )
            c_const = kern.c[0]
            for y in range(1, k + 1):
                assert abs(kern.c[y] - c_const) < 1e-12
            pmf = rng.dirichlet(np.ones(k + 1))
            matrix = phi_matrix(kern)
            for j in range(2):
                marginal = pmf @ matrix[:, j]
                zadeh = kern.outcomes[j].memberships @ pmf
                assert abs(marginal * 2.0 * c_const - zadeh) <= 1e-12


class TestIsCar:
    def test_worked_example_fails_car_with_witness(self):
        result = is_car(worked_example_kernel(), 0)
        assert not result.is_car
        assert result.witness == (0, 3)
        ratios = dict(zip(result.compatibility_set, result.ratios))
        assert abs(ratios[0] - 8.0 / 5.0) < 1e-12
        assert abs(ratios[3] - 2.0 / 5.0) < 1e-12

    def test_singleton_outcome_set_is_car(self):
        values = np.array([0.3, 1.0, 0.0, 0.6])
        kern = ReportingKernel(outcomes=(MembershipVector(values),), nu=[1.0])
        assert is_car(kern, 0).is_car

    def test_disjoint_indicators_are_car(self):
        xi1 = MembershipVector([1.0, 1.0, 0.0, 0.0])
        xi2 = MembershipVector([0.0, 0.0, 1.0, 1.0])
        kern = ReportingKernel(outcomes=(xi1, xi2), nu=np.array([0.5, 0.5]))
        assert is_car(kern, 0).is_car
        assert is_car(kern, 1).is_car

    @pytest.mark.parametrize("index", [2, -1])
    def test_outcome_index_out_of_range_rejected(self, index):
        with pytest.raises(ValidationError, match=f"outcome index {index} out of range"):
            is_car(worked_example_kernel(), index)

    def test_constructed_car_and_single_perturbation(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            base = random_kernel(rng, strictly_positive=True)
            rest = (
                np.stack([o.memberships for o in base.outcomes]).T @ base.nu
            )
            nu1 = 0.4
            special = rest / rest.max()
            outcomes = (MembershipVector(special),) + base.outcomes
            nu = np.concatenate([[nu1], (1.0 - nu1) * base.nu])
            kern = ReportingKernel(outcomes=outcomes, nu=nu)
            assert is_car(kern, 0).is_car
            # a single off-peak perturbation must flip the verdict
            bumped = special.copy()
            target = int(np.argmin(bumped))
            bumped[target] = min(1.0, bumped[target] * 1.05 + 1e-3)
            kern2 = ReportingKernel(
                outcomes=(MembershipVector(bumped),) + base.outcomes, nu=nu
            )
            result = is_car(kern2, 0)
            assert not result.is_car
            assert target in result.witness

    def test_zero_mass_outcome_rejected(self):
        xi1 = MembershipVector([1.0, 0.5])
        xi2 = MembershipVector([0.5, 1.0])
        kern = ReportingKernel(outcomes=(xi1, xi2), nu=np.array([0.0, 1.0]))
        with pytest.raises(ValidationError, match="positive reference mass"):
            is_car(kern, 0)


class TestJson:
    def test_round_trip(self, tmp_path):
        kern = worked_example_kernel()
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({
            "nu": kern.nu.tolist(),
            "outcomes": [o.memberships.tolist() for o in kern.outcomes],
            "names": ["a", "b"],
        }))
        back = kernel_from_json(path)
        assert back.k_max == kern.k_max
        assert back.names == ("a", "b")
        np.testing.assert_array_equal(back.nu, kern.nu)
        for a, b in zip(back.outcomes, kern.outcomes):
            np.testing.assert_array_equal(a.memberships, b.memberships)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text('{"nu": [1.0]}')
        with pytest.raises(ValidationError, match="outcomes"):
            kernel_from_json(path)
