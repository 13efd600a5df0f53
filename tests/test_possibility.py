"""Granular counting: oracle equivalence, structure, and IO."""

import numpy as np
import pytest

from grancount import ValidationError
from grancount.possibility import (
    MembershipVector,
    PossibilityAssignment,
    granular_count_fast,
    read_counts_csv,
    read_possibility_csv,
    write_counts_csv,
)

from oracles import MAX_BRUTEFORCE_OBS, complement_degrees, granular_count_bruteforce


def random_assignment(rng, max_obs=6, max_ref=3, continuous=False):
    """Degrees on the 0.1 grid, retried until every count is non-degenerate.

    With `continuous`, degrees are uniform on [0, 1), 30% of them set to 0.
    """
    while True:
        n = int(rng.integers(1, max_obs + 1))
        m = int(rng.integers(1, max_ref + 1))
        if continuous:
            deg = np.where(rng.random((n, m)) < 0.3, 0.0, rng.random((n, m)))
        else:
            deg = rng.integers(0, 11, size=(n, m)) / 10.0
        # an observation with no positive degree anywhere makes every count
        # impossible; keep generating plainly valid instances
        if np.all(deg.max(axis=1) > 0.0) and (m > 1 or np.all(deg[:, 0] > 0.0)):
            return PossibilityAssignment(deg)


class TestComplementDegrees:
    def test_two_referents_reads_off_other_column(self):
        a = PossibilityAssignment([[0.3, 0.9]])
        assert complement_degrees(a, 0)[0] == 0.9

    def test_single_referent_is_zero(self):
        a = PossibilityAssignment([[0.7], [1.0]])
        assert np.array_equal(complement_degrees(a, 0), [0.0, 0.0])

    def test_three_referents_takes_max(self):
        a = PossibilityAssignment([[1.0, 0.4, 0.7]])
        assert complement_degrees(a, 0)[0] == 0.7

    def test_referent_out_of_range(self):
        a = PossibilityAssignment([[1.0, 0.4]])
        with pytest.raises(ValidationError):
            complement_degrees(a, 2)
        with pytest.raises(ValidationError):
            granular_count_fast(a, 2)

    def test_top_two_degrees_give_every_alternative(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = random_assignment(rng, max_ref=5)
            assert np.array_equal(a.best_degree, a.degrees.max(axis=1))
            for r in range(a.n_ref):
                alt = np.where(a.best_referent == r, a.second_degree, a.best_degree)
                assert np.array_equal(alt, complement_degrees(a, r)), (a.degrees, r)

    def test_tied_best_degrees_leave_the_tie_as_alternative(self):
        a = PossibilityAssignment([[0.9, 0.2, 0.9]])
        assert (a.best_degree[0], a.best_referent[0], a.second_degree[0]) == (0.9, 0, 0.9)


class TestBruteforceCount:
    def test_crisp_assignment_counts_exactly(self):
        deg = np.zeros((4, 2))
        deg[:, 0] = 1.0
        mv = granular_count_bruteforce(PossibilityAssignment(deg), 0)
        assert np.array_equal(mv.memberships, [0, 0, 0, 0, 1.0])

    def test_single_ambiguous_observation(self):
        # fully possible for the referent and for an alternative
        mv = granular_count_bruteforce(PossibilityAssignment([[1.0, 1.0]]), 0)
        assert np.array_equal(mv.memberships, [1.0, 1.0])

    def test_mixed_degree_fixture(self):
        # Frozen from this oracle. Hand check for y=2: the subsets of size 2
        # give min(0.8, 0.5, 0.6)=0.5, min(0.8, 1.0, 0.9)=0.8, and
        # min(0.5, 1.0, 0.3)=0.3, so the membership is 0.8.
        a = PossibilityAssignment([[0.8, 0.3], [0.5, 0.9], [1.0, 0.6]])
        mv = granular_count_bruteforce(a, 0)
        np.testing.assert_array_equal(mv.memberships, [0.3, 0.6, 0.8, 0.5])

    def test_enumeration_guard(self):
        deg = np.ones((MAX_BRUTEFORCE_OBS + 1, 1))
        with pytest.raises(ValidationError, match="too large"):
            granular_count_bruteforce(PossibilityAssignment(deg), 0)


class TestFastCount:
    def test_matches_bruteforce_on_crisp_instance(self):
        deg = np.zeros((4, 2))
        deg[:, 0] = 1.0
        a = PossibilityAssignment(deg)
        np.testing.assert_array_equal(
            granular_count_fast(a, 0).memberships,
            granular_count_bruteforce(a, 0).memberships,
        )

    def test_matches_bruteforce_on_fixture(self):
        a = PossibilityAssignment([[0.8, 0.3], [0.5, 0.9], [1.0, 0.6]])
        np.testing.assert_array_equal(
            granular_count_fast(a, 0).memberships, [0.3, 0.6, 0.8, 0.5]
        )

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(2024)
        instances = [random_assignment(rng) for _ in range(300)]
        # continuous degrees: about as many distinct levels as degrees
        instances += [random_assignment(rng, max_obs=10, continuous=True) for _ in range(100)]
        for a in instances:
            for r in range(a.n_ref):
                fast = granular_count_fast(a, r).memberships
                brute = granular_count_bruteforce(a, r).memberships
                np.testing.assert_array_equal(fast, brute)

    def test_boundary_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_assignment(rng)
            for r in range(a.n_ref):
                mv = granular_count_fast(a, r).memberships
                own = a.degrees[:, r]
                alt = complement_degrees(a, r)
                assert mv[-1] == own.min()
                assert mv[0] == alt.min()

    def test_normalized_assignment_yields_normalized_count(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n, m = int(rng.integers(1, 7)), int(rng.integers(2, 4))
            deg = rng.integers(0, 11, size=(n, m)) / 10.0
            deg[np.arange(n), rng.integers(0, m, size=n)] = 1.0
            a = PossibilityAssignment(deg)
            assert a.is_normalized
            for r in range(m):
                assert granular_count_fast(a, r).memberships.max() == 1.0

    def test_level_sets_are_contiguous(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = random_assignment(rng)
            for r in range(a.n_ref):
                mv = granular_count_fast(a, r)
                for alpha in np.unique(mv.memberships[mv.memberships > 0]):
                    cut = np.flatnonzero(mv.memberships >= alpha)
                    assert np.array_equal(cut, np.arange(cut[0], cut[-1] + 1))


class TestTypes:
    def test_degree_range_enforced(self):
        with pytest.raises(ValidationError):
            PossibilityAssignment([[1.2]])

    def test_membership_needs_support(self):
        with pytest.raises(ValidationError, match="support"):
            MembershipVector([0.0, 0.0])

    def test_assignment_is_immutable(self):
        a = PossibilityAssignment([[0.5, 1.0]])
        with pytest.raises(ValueError):
            a.degrees[0, 0] = 0.9


class TestCsvRoundTrip:
    def test_possibility_csv(self, tmp_path):
        path = tmp_path / "poss.csv"
        path.write_text("geneA,geneB\n1.0,0.25\n0.5,1.0\n")
        a = read_possibility_csv(path)
        assert a.referent_names == ("geneA", "geneB")
        np.testing.assert_array_equal(a.degrees, [[1.0, 0.25], [0.5, 1.0]])

    def test_malformed_cell_reports_coordinates(self, tmp_path):
        path = tmp_path / "poss.csv"
        path.write_text("geneA,geneB\n1.0,xyz\n")
        with pytest.raises(ValidationError, match="line 2.*geneB"):
            read_possibility_csv(path)

    def test_out_of_range_cell_reports_coordinates(self, tmp_path):
        path = tmp_path / "poss.csv"
        path.write_text("geneA\n1.5\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_possibility_csv(path)

    def test_counts_round_trip(self, tmp_path):
        a = PossibilityAssignment([[0.8, 0.3], [0.5, 0.9], [1.0, 0.6]])
        vectors = [granular_count_fast(a, r) for r in range(2)]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, ["r0", "r1"], vectors)
        names, back = read_counts_csv(path)
        assert names == ["r0", "r1"]
        for orig, loaded in zip(vectors, back):
            np.testing.assert_array_equal(orig.memberships, loaded.memberships)


def written(path, text):
    path.write_text(text)
    return path


# library calls that must raise, given a scratch file path: id -> (call, message pattern)
LIBRARY_ERRORS = {
    "assignment-1d": (lambda path: PossibilityAssignment([1.0, 0.5]), "must be a 2-D matrix"),
    "assignment-no-rows": (lambda path: PossibilityAssignment(np.zeros((0, 2))),
                           "at least one observation and one referent"),
    "assignment-nan": (lambda path: PossibilityAssignment([[np.nan, 1.0]]), "degrees must be finite"),
    "assignment-names-length": (lambda path: PossibilityAssignment([[1.0, 0.5]], ("a",)),
                                "referent_names length does not match"),
    "membership-empty": (lambda path: MembershipVector([]), "non-empty 1-D vector"),
    "write-counts-names-length": (
        lambda path: write_counts_csv(path, ["a", "b"], [MembershipVector([1.0])]),
        "names and vectors must have matching length"),
    "write-counts-none": (lambda path: write_counts_csv(path, [], []), "no count vectors to write"),
    "write-counts-two-levels": (
        lambda path: write_counts_csv(path, ["a", "b"], [MembershipVector([1.0, 0.5]),
                                                         MembershipVector([1.0])]),
        "all count vectors must share the same truncation level"),
    "read-counts-outside": (lambda path: read_counts_csv(written(path, "id,y0,y1\na,1.0,1.5\n")),
                            r"counts.csv: line 2: memberships must lie in \[0, 1\]"),
    # `read_possibility_csv` names the line of such a row; the library call names the referent
    "count-all-zero-row": (
        lambda path: granular_count_fast(PossibilityAssignment([[1.0, 0.5], [0.0, 0.0]]), 0),
        "granular count for referent 0 is empty"),
}


@pytest.mark.parametrize("call, message", LIBRARY_ERRORS.values(), ids=list(LIBRARY_ERRORS))
def test_library_call_rejects_bad_input(call, message, tmp_path):
    with pytest.raises(ValidationError, match=message):
        call(tmp_path / "counts.csv")
