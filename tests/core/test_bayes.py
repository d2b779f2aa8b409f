"""Tests of the Bayes identification posteriors, including the paper's
Figure 1 worked example."""

import math

import numpy as np
import pytest

from repro.core.bayes import (
    identification_posteriors,
    identification_probability,
    log_densities,
    log_total_density,
    posteriors_from_log_densities,
)
from repro.core.database import PFVDatabase
from repro.core.joint import SigmaRule
from repro.core.pfv import PFV


class TestPosteriorsFromLogDensities:
    def test_sums_to_one(self):
        post = posteriors_from_log_densities([-5.0, -6.0, -7.0])
        assert post.sum() == pytest.approx(1.0)

    def test_order_preserved(self):
        post = posteriors_from_log_densities([-5.0, -3.0, -9.0])
        assert post[1] > post[0] > post[2]

    def test_extreme_logs_stable(self):
        post = posteriors_from_log_densities([-2000.0, -2001.0])
        assert post.sum() == pytest.approx(1.0)
        assert post[0] == pytest.approx(1 / (1 + math.exp(-1.0)))

    def test_all_underflowed_gives_uniform(self):
        post = posteriors_from_log_densities([-math.inf] * 4)
        assert post == pytest.approx([0.25] * 4)

    def test_empty(self):
        assert posteriors_from_log_densities([]).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            posteriors_from_log_densities(np.zeros((2, 2)))


class TestDatabasePosteriors:
    def test_posterior_vector(self, small_db, query_pfv):
        post = identification_posteriors(small_db, query_pfv)
        assert post.shape == (len(small_db),)
        assert post.sum() == pytest.approx(1.0)
        assert np.all(post >= 0.0)

    def test_identification_probability_picks_right_object(
        self, small_db, query_pfv
    ):
        post = identification_posteriors(small_db, query_pfv)
        for idx in (0, len(small_db) // 2):
            v = small_db[idx]
            assert identification_probability(
                small_db, query_pfv, v
            ) == pytest.approx(float(post[idx]))

    def test_identification_probability_missing_vector(self, small_db, query_pfv):
        ghost = PFV([9.0, 9.0, 9.0], [1.0, 1.0, 1.0], key="ghost")
        with pytest.raises(KeyError):
            identification_probability(small_db, query_pfv, ghost)

    def test_log_total_density_is_logsumexp(self, small_db, query_pfv):
        dens = log_densities(small_db, query_pfv)
        m = dens.max()
        expected = m + math.log(np.exp(dens - m).sum())
        assert log_total_density(small_db, query_pfv) == pytest.approx(expected)

    def test_empty_database(self, query_pfv):
        db = PFVDatabase()
        assert log_densities(db, query_pfv).size == 0
        assert identification_posteriors(db, query_pfv).size == 0

    def test_rule_override(self, small_db, query_pfv):
        exact = identification_posteriors(
            small_db, query_pfv, SigmaRule.CONVOLUTION
        )
        paper = identification_posteriors(small_db, query_pfv, SigmaRule.PAPER)
        assert not np.allclose(exact, paper)


class TestFigure1Example:
    """The worked example of Section 3.1 / Figure 1.

    Three facial pfv of varying quality and one query; the paper reports
    posteriors of roughly 77% (O3), 13% (O2) and 10% (O1), with O3 winning
    even though the Euclidean nearest neighbour is O1. The figure's exact
    coordinates are not printed, so we reconstructed a scenario with the
    figure's qualitative structure (O1 precise in both features, O2 noisy
    in both, O3 noisy in F1 only, query precise in F1 and noisy in F2)
    whose posteriors land on the paper's numbers.
    """

    @staticmethod
    def scenario():
        # F1 sensitive to rotation, F2 to illumination.
        o1 = PFV([4.42, 1.50], [0.21, 0.21], key="O1")  # good conditions
        o2 = PFV([1.18, 1.46], [1.34, 1.55], key="O2")  # bad rot. + illum.
        o3 = PFV([3.82, 1.20], [1.22, 0.37], key="O3")  # bad rotation only
        q = PFV([3.59, 2.46], [0.23, 1.58])  # good rotation, bad illum.
        return PFVDatabase([o1, o2, o3]), q

    def test_paper_posteriors(self):
        db, q = self.scenario()
        post = dict(zip(db.keys(), identification_posteriors(db, q)))
        assert post["O3"] == pytest.approx(0.77, abs=0.02)
        assert post["O2"] == pytest.approx(0.13, abs=0.02)
        assert post["O1"] == pytest.approx(0.10, abs=0.02)

    def test_euclidean_nearest_neighbour_is_wrong(self):
        db, q = self.scenario()
        import numpy as np

        dists = {v.key: float(np.linalg.norm(v.mu - q.mu)) for v in db}
        assert min(dists, key=dists.get) == "O1"  # NN retrieves O1...
        post = dict(zip(db.keys(), identification_posteriors(db, q)))
        assert max(post, key=post.get) == "O3"  # ...but O3 is the answer.

    def test_tiq_example_from_section_3(self):
        # "A TIQ with Ptheta = 12% would additionally report O2."
        from repro.engine.spec import TIQ
        from repro.core.scan import scan_tiq

        db, q = self.scenario()
        keys = {m.key for m in scan_tiq(db, TIQ(q, 0.12))}
        assert keys == {"O3", "O2"}

    def test_posteriors_sum_to_one(self):
        db, q = self.scenario()
        assert identification_posteriors(db, q).sum() == pytest.approx(1.0)
