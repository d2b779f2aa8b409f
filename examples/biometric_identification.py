"""Biometric identification at scale: the paper's motivating application.

A gallery of 5,000 "enrolled persons" is observed under heterogeneous
capture conditions (each feature of each enrolment has its own
uncertainty). Probe observations of already-enrolled persons are then
identified three ways:

* conventional Euclidean nearest neighbour on the feature values,
* exact sequential-scan MLIQ under the Gaussian uncertainty model,
* Gauss-tree MLIQ (same answers, far fewer page accesses).

Run:  python examples/biometric_identification.py
"""

import numpy as np

from repro import MLIQ, PFV, scan_mliq, session_for
from repro.baselines.nn import knn_euclidean
from repro.data.synthetic import database_from_arrays
from repro.data.uncertainty import mixed_precision_sigmas
from repro.data.workload import identification_workload
from repro.eval.figures import make_page_store
from repro.gausstree.bulkload import bulk_load

N_PERSONS = 5_000
N_FEATURES = 12
N_PROBES = 60

rng = np.random.default_rng(2006)

# Enrolment: 12 facial-geometry features per person; each measurement is
# either precise or degraded (bad pose, blur, illumination...).
gallery_mu = rng.uniform(0.0, 1.0, (N_PERSONS, N_FEATURES))
gallery_sigma = mixed_precision_sigmas(
    rng, N_PERSONS, N_FEATURES, p_bad=0.25, good=(0.002, 0.01), bad=(0.08, 0.2)
)
gallery = database_from_arrays(gallery_mu, gallery_sigma)
print(f"enrolled {len(gallery)} persons with {gallery.dims} features each")

# Probes: re-observations of known persons (fresh noise, fresh sigmas).
probes = identification_workload(gallery, N_PROBES, seed=11)

# Index the gallery.
store = make_page_store(gallery.dims)
tree = bulk_load(gallery.vectors, page_store=store, sigma_rule=gallery.sigma_rule)
session = session_for(tree, mliq_tolerance=0.01)
print(f"Gauss-tree built: height {tree.height}, {store.allocated_pages} pages\n")

nn_hits = scan_hits = tree_hits = 0
tree_pages = 0
store.cold_start()
for probe in probes:
    nn_key = knn_euclidean(gallery, probe.q.mu, 1)[0][0]
    nn_hits += nn_key == probe.true_key

    scan_best = scan_mliq(gallery, MLIQ(probe.q, 1))[0]
    scan_hits += scan_best.key == probe.true_key

    # mliq_tolerance: posterior accuracy of Section 5.2.2 — 1% is plenty
    # for an identification decision and keeps page counts low.
    result = session.execute(MLIQ(probe.q, 1))
    tree_hits += result.matches[0].key == probe.true_key
    tree_pages += result.stats.pages_accessed
    assert result.matches[0].key == scan_best.key  # index never changes answers

file_pages = -(-N_PERSONS // (8192 // (2 * N_FEATURES * 8 + 8)))
print(f"identification rate over {N_PROBES} probes:")
print(f"  Euclidean NN          : {nn_hits / N_PROBES:6.1%}")
print(f"  MLIQ (scan)           : {scan_hits / N_PROBES:6.1%}")
print(f"  MLIQ (Gauss-tree)     : {tree_hits / N_PROBES:6.1%}")
print(f"\npage accesses per probe : {tree_pages / N_PROBES:7.1f} (tree)"
      f"  vs {file_pages} (sequential file)")

best = scan_mliq(gallery, MLIQ(probes[0].q, 3))
print("\nexample probe, top-3 posteriors:")
for m in best:
    marker = "  <-- true identity" if m.key == probes[0].true_key else ""
    print(f"  person {m.key:5}  P = {m.probability:7.3%}{marker}")
