"""Property-based tests of Section 4's model properties 1-4.

The paper summarises (without formal proof) four properties of the
Gaussian uncertainty model; this module turns each into an executable
check over randomized databases:

1. retrieved probabilities of a TIQ / k-MLIQ never sum above 100%;
2. identification probability decreases when the uncertainty of a
   well-matching query or database object increases;
3. for sigma -> infinity the model becomes maximally indifferent
   (posterior -> 1/n);
4. for quite disjoint Gaussians the probability is close to 0, and there
   it may *increase* (up to 1/n) with growing uncertainty.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bayes import identification_posteriors
from repro.core.database import PFVDatabase
from repro.core.pfv import PFV
from repro.core.scan import scan_mliq, scan_tiq
from repro.engine.spec import MLIQ, TIQ

from tests.conftest import make_random_db, make_random_query


@st.composite
def db_and_query(draw):
    n = draw(st.integers(5, 40))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    qseed = draw(st.integers(0, 10_000))
    return make_random_db(n=n, d=d, seed=seed), make_random_query(d=d, seed=qseed)


class TestProperty1ProbabilityBudget:
    @given(db_and_query(), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_mliq_probabilities_sum_below_one(self, dbq, k):
        db, q = dbq
        matches = scan_mliq(db, MLIQ(q, k))
        assert sum(m.probability for m in matches) <= 1.0 + 1e-9

    @given(db_and_query(), st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_tiq_probabilities_sum_below_one(self, dbq, p_theta):
        db, q = dbq
        matches = scan_tiq(db, TIQ(q, p_theta))
        assert sum(m.probability for m in matches) <= 1.0 + 1e-9


class TestProperty2UncertaintyDecreasesConfidence:
    def test_inflating_matching_object_sigma_lowers_posterior(self):
        # A query sitting exactly on object 0, far from the decoys.
        target = PFV([0.0, 0.0], [0.1, 0.1], key=0)
        decoys = [PFV([3.0, 3.0], [0.5, 0.5], key=1), PFV([-3.0, 2.0], [0.5, 0.5], key=2)]
        q = PFV([0.0, 0.0], [0.1, 0.1])
        posteriors = []
        for scale in (1.0, 3.0, 10.0, 30.0):
            db = PFVDatabase(
                [PFV(target.mu, target.sigma * scale, key=0), *decoys]
            )
            posteriors.append(identification_posteriors(db, q)[0])
        assert posteriors == sorted(posteriors, reverse=True)

    def test_inflating_query_sigma_lowers_posterior(self):
        db = PFVDatabase(
            [
                PFV([0.0, 0.0], [0.1, 0.1], key=0),
                PFV([3.0, 3.0], [0.5, 0.5], key=1),
                PFV([-3.0, 2.0], [0.5, 0.5], key=2),
            ]
        )
        posteriors = []
        for scale in (1.0, 3.0, 10.0, 30.0):
            q = PFV([0.0, 0.0], np.array([0.1, 0.1]) * scale)
            posteriors.append(identification_posteriors(db, q)[0])
        assert posteriors == sorted(posteriors, reverse=True)


class TestProperty3IndifferenceLimit:
    @given(st.integers(2, 30), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_huge_query_sigma_gives_uniform(self, n, seed):
        db = make_random_db(n=n, d=2, seed=seed)
        q = PFV([0.5, 0.5], [1e6, 1e6])
        post = identification_posteriors(db, q)
        assert post == pytest.approx(np.full(n, 1.0 / n), rel=1e-3)

    def test_huge_object_sigmas_give_uniform(self):
        n = 7
        db = PFVDatabase(
            [PFV([float(i), 0.0], [1e6, 1e6], key=i) for i in range(n)]
        )
        q = PFV([2.0, 0.0], [0.2, 0.2])
        post = identification_posteriors(db, q)
        assert post == pytest.approx(np.full(n, 1.0 / n), rel=1e-3)


class TestProperty4DisjointGaussians:
    def test_disjoint_probability_near_zero(self):
        db = PFVDatabase(
            [
                PFV([0.0], [0.05], key=0),  # matches the query
                PFV([10.0], [0.05], key=1),  # quite disjoint
            ]
        )
        q = PFV([0.0], [0.05])
        post = identification_posteriors(db, q)
        assert post[1] < 1e-12

    def test_disjoint_probability_increases_with_uncertainty(self):
        # Growing the disjoint object's sigma de-excludes it: while the
        # sigma stays below the separation, the posterior climbs (the
        # paper's "only in this case ... slightly increases") yet stays
        # far below the matching companion's.
        q = PFV([0.0], [0.05])
        match = PFV([0.0], [0.05], key=0)
        previous = -1.0
        for sigma in (0.05, 0.5, 2.0, 5.0, 10.0):
            db = PFVDatabase([match, PFV([10.0], [sigma], key=1)])
            p = identification_posteriors(db, q)[1]
            assert p >= previous - 1e-15
            assert p <= 0.5  # never beyond 1/n while the match is certain
            previous = p
        assert previous < 0.05  # still "slight"

    def test_everything_uncertain_reaches_the_1_over_n_ceiling(self):
        # The ceiling of Property 4 is attained when the competitor is
        # equally unsure: two objects, both with huge sigma -> 1/2 each.
        q = PFV([0.0], [0.05])
        db = PFVDatabase(
            [PFV([0.0], [1e5], key=0), PFV([10.0], [1e5], key=1)]
        )
        post = identification_posteriors(db, q)
        assert post == pytest.approx([0.5, 0.5], rel=1e-3)
