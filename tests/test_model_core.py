import itertools

import numpy as np
import pytest

from gridcomp.domain_grid import build_grid
from gridcomp.errors import InvalidArgumentError
from gridcomp.model_core import (
    CellCounts,
    Hyperpriors,
    TaxonRegistry,
    TownshipTrees,
    multinomial_log_pmf,
)


class TestMultinomialLogPmf:
    def test_certain_outcome(self):
        assert multinomial_log_pmf(np.array([1, 0]), np.array([1.0, 0.0])) == 0.0

    def test_two_trees_even_split(self):
        # C(2;1,1) * 0.5 * 0.5 = 0.5
        val = multinomial_log_pmf(np.array([1, 1]), np.array([0.5, 0.5]))
        assert abs(val - np.log(0.5)) < 1e-12
        assert abs(val - (-0.6931)) < 1e-4

    def test_empty_sample(self):
        assert multinomial_log_pmf(np.array([0, 0, 0]), np.array([0.2, 0.3, 0.5])) == 0.0

    def test_zero_probability_with_positive_count(self):
        assert multinomial_log_pmf(np.array([1, 1]), np.array([0.0, 1.0])) == float("-inf")

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            multinomial_log_pmf(np.array([1, 0, 0]), np.array([0.5, 0.5]))

    def test_unnormalized_rejected_unless_flagged(self):
        y = np.array([1, 0])
        theta = np.array([0.6, 0.6])
        with pytest.raises(InvalidArgumentError):
            multinomial_log_pmf(y, theta)
        assert np.isfinite(multinomial_log_pmf(y, theta, check_normalized=False))

    def test_rows_match_row_by_row_calls(self):
        rng = np.random.default_rng(3)
        y = rng.multinomial(9, [0.1, 0.2, 0.3, 0.4], size=(2, 3))
        theta = rng.dirichlet(np.ones(4), size=(2, 3))
        vals = multinomial_log_pmf(y, theta)
        assert vals.shape == (2, 3)
        for i, j in itertools.product(range(2), range(3)):
            assert abs(vals[i, j] - multinomial_log_pmf(y[i, j], theta[i, j])) < 1e-12

    def test_rows_with_zero_probability_category(self):
        y = np.array([[1, 1], [0, 2], [0, 0]])
        theta = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        vals = multinomial_log_pmf(y, theta)
        assert vals[0] == float("-inf")
        assert vals[1] == 0.0 and vals[2] == 0.0

    def test_normalization_checked_on_each_row(self):
        y = np.array([[1, 0], [0, 1]])
        theta = np.array([[0.5, 0.5], [0.6, 0.6]])
        with pytest.raises(InvalidArgumentError, match="1.2"):
            multinomial_log_pmf(y, theta)
        assert np.all(np.isfinite(multinomial_log_pmf(y, theta, check_normalized=False)))

    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (3, 3), (4, 3)])
    def test_sums_to_one_by_enumeration(self, n, p):
        rng = np.random.default_rng(n * 10 + p)
        theta = rng.dirichlet(np.ones(p))
        total = 0.0
        for combo in itertools.product(range(n + 1), repeat=p):
            if sum(combo) == n:
                total += np.exp(multinomial_log_pmf(np.array(combo), theta))
        assert abs(total - 1.0) < 1e-10


class TestTypes:
    def test_taxon_registry(self):
        reg = TaxonRegistry(names=("oak", "pine"))
        assert reg.index("pine") == 1
        with pytest.raises(InvalidArgumentError):
            reg.index("elm")
        with pytest.raises(InvalidArgumentError):
            TaxonRegistry(names=("oak", "oak"))

    def test_cell_counts_validation(self):
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("a", "b"))
        counts = CellCounts(grid=grid, taxa=taxa, counts=np.zeros((4, 2), dtype=int))
        assert counts.n_trees == 0
        with pytest.raises(InvalidArgumentError):
            CellCounts(grid=grid, taxa=taxa, counts=np.zeros((3, 2), dtype=int))
        with pytest.raises(InvalidArgumentError):
            CellCounts(grid=grid, taxa=taxa, counts=-np.ones((4, 2), dtype=int))

    def test_hyperprior_defaults_and_validation(self):
        hp = Hyperpriors()
        assert hp.sigma_upper == 1000.0
        assert hp.mu_bound == 10.0
        assert hp.rho_lower == 0.1
        assert abs(hp.rho_upper - np.exp(5.0)) < 1e-9
        with pytest.raises(InvalidArgumentError):
            Hyperpriors(rho_lower=2.0, rho_upper=1.0)
        with pytest.raises(InvalidArgumentError):
            Hyperpriors(sigma_upper=0.0)


class TestTownshipTrees:
    def townships(self, **change):
        """Townships s and t, with two support cells and two trees each,
        with the given arrays replaced."""
        arrays = dict(ids=("s", "t"), cell_start=[0, 2, 4], cells=[0, 3, 1, 2],
                      weights=[0.5, 0.5, 0.1, 0.9], tree_start=[0, 2, 4], labels=[0, 1, 1, 0])
        arrays.update(change)
        return TownshipTrees(taxa=TaxonRegistry(names=("a", "b")), **arrays)

    def test_valid_arrays(self):
        towns = self.townships()
        assert towns.labels.size == 4
        assert towns.cells.dtype == towns.labels.dtype == np.int64

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"cells": [0, 3, 2, 1]}, "township t: cells are not strictly increasing"),
            ({"cells": [0, 3, 1, 1]}, "township t: cells are not strictly increasing"),
            ({"cells": [3, 0, 1, 2]}, "township s: cells are not strictly increasing"),
            ({"weights": [0.5, 0.5, 1.0]}, "offsets do not match"),
            ({"cell_start": [0, 2, 3]}, "offsets do not match"),
            ({"cell_start": [0, 4]}, "offsets do not match"),
            ({"tree_start": [1, 2, 4]}, "offsets do not match"),
            ({"cells": [[0, 3, 1, 2]]}, "offsets do not match"),
            ({"cell_start": [0, 4, 4]}, "township t: no support cells"),
            ({"tree_start": [0, 0, 4]}, "township s: no trees"),
            ({"labels": [0, 1, 2, 0]}, "township t: taxon label out of range"),
            ({"labels": [-1, 1, 1, 0]}, "township s: taxon label out of range"),
        ],
    )
    def test_rejects_unsorted_or_misaligned_support(self, change, message):
        # membership tallies look support cells up by binary search
        with pytest.raises(InvalidArgumentError, match=message):
            self.townships(**change)

    def test_no_townships(self):
        towns = self.townships(ids=(), cell_start=[0], cells=[], weights=[], tree_start=[0],
                               labels=[])
        assert towns.labels.size == 0
