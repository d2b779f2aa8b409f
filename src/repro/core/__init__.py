"""Core of the Gaussian uncertainty model (Sections 3 and 4 of the paper).

Submodules
----------
``gaussian``  — univariate Gaussian pdf/cdf primitives (log-space, plus the
                degree-5 polynomial CDF approximation of Section 5.3).
``pfv``       — probabilistic feature vectors (Definition 1).
``joint``     — Lemma 1 joint densities and the sigma combination rules.
``database``  — the in-memory pfv collection all access methods share.
``bayes``     — posterior identification probabilities.
``queries``   — query result records and work counters.
``scan``      — the paper's exact sequential-scan algorithms (Section 4).
"""

from repro.core.database import PFVDatabase
from repro.core.joint import SigmaRule, combine_sigma, log_joint_density
from repro.core.pfv import PFV, ProbabilisticFeatureVector
from repro.core.queries import Match, QueryStats
from repro.core.scan import scan_mliq, scan_tiq

__all__ = [
    "PFV",
    "ProbabilisticFeatureVector",
    "PFVDatabase",
    "SigmaRule",
    "combine_sigma",
    "log_joint_density",
    "Match",
    "QueryStats",
    "scan_mliq",
    "scan_tiq",
]
