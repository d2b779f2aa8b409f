"""Effectiveness study: why adaptable distance weights are not enough.

The related-work section of the paper argues that weighted Euclidean /
ellipsoid queries can encode per-*dimension* importance but not
per-*object* uncertainty. This study quantifies that on a controlled
dataset: plain NN, query-adaptive weighted NN (weights 1/sigma_q^2),
and the full Gaussian uncertainty model (MLIQ).

Run:  python examples/effectiveness_study.py
"""

import numpy as np

from repro import MLIQ, scan_mliq
from repro.baselines.nn import knn_euclidean, knn_weighted_euclidean
from repro.data.synthetic import database_from_arrays
from repro.data.uncertainty import mixed_precision_sigmas
from repro.data.workload import identification_workload

N, D, QUERIES = 4_000, 10, 80
rng = np.random.default_rng(7)

mu = rng.uniform(0.0, 1.0, (N, D))
sigma = mixed_precision_sigmas(
    rng, N, D, p_bad=0.3, good=(0.003, 0.02), bad=(0.1, 0.25)
)
db = database_from_arrays(mu, sigma)
workload = identification_workload(db, QUERIES, seed=13)

nn = weighted = mliq = 0
for item in workload:
    q = item.q
    nn += knn_euclidean(db, q.mu, 1)[0][0] == item.true_key
    # The best a per-dimension scheme can do with query-side knowledge:
    # down-weight the query's own uncertain dimensions.
    w = 1.0 / np.square(q.sigma)
    weighted += (
        knn_weighted_euclidean(db, q.mu, w, 1)[0][0] == item.true_key
    )
    mliq += scan_mliq(db, MLIQ(q, 1))[0].key == item.true_key

print(f"identification rate over {QUERIES} queries (n={N}, d={D}):")
print(f"  Euclidean NN                  : {nn / QUERIES:6.1%}")
print(f"  weighted NN (w = 1/sigma_q^2) : {weighted / QUERIES:6.1%}")
print(f"  MLIQ (Gaussian uncertainty)   : {mliq / QUERIES:6.1%}")
print(
    "\nWeighted distances help a little - they know which of the QUERY's "
    "dimensions\nare unreliable - but only the probabilistic model also "
    "accounts for each\nDATABASE object's own uncertainty (Section 2 of "
    "the paper)."
)
