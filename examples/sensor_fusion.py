"""Sensor fusion: threshold identification over heterogeneous sensors.

A fleet of environmental stations is observed through two kinds of
sensors — calibrated lab-grade units and cheap field units whose error
is an order of magnitude larger. Given an anonymous reading, a
TIQ(P >= theta) asks: which stations could plausibly have produced it?

Demonstrates: per-object uncertainty, TIQ semantics (answer sets shrink
as the threshold rises; probabilities always sum to <= 1), dynamic
index maintenance (insert + delete), and exactness versus the scan.

Run:  python examples/sensor_fusion.py
"""

import numpy as np

from repro import PFV, TIQ, PFVDatabase, scan_tiq, session_for
from repro.data.workload import identification_workload
from repro.gausstree.tree import GaussTree

rng = np.random.default_rng(42)
N_STATIONS = 800
D = 6  # temperature, humidity, PM2.5, NO2, O3, pressure (normalised)

mu = rng.uniform(0.0, 1.0, (N_STATIONS, D))
# 70% lab-grade sensors, 30% cheap field units: the uncertainty is a
# property of the *station*, exactly the per-object heterogeneity the
# paper argues distance weighting cannot express.
lab_grade = rng.random(N_STATIONS) < 0.7
sigma = np.where(
    lab_grade[:, None],
    rng.uniform(0.004, 0.015, (N_STATIONS, D)),
    rng.uniform(0.05, 0.15, (N_STATIONS, D)),
)
db = PFVDatabase(
    [PFV(mu[i], sigma[i], key=f"station-{i:03d}") for i in range(N_STATIONS)]
)
print(
    f"{N_STATIONS} stations, {int(lab_grade.sum())} lab-grade, "
    f"{int((~lab_grade).sum())} field-grade"
)

tree = GaussTree(dims=D, degree=6)
tree.extend(db.vectors)
tree.check_invariants()
print(f"Gauss-tree: n={len(tree)}, height={tree.height}\n")

# An anonymous reading re-observed from some station.
probe = identification_workload(db, 1, seed=5)[0]
print(f"anonymous reading; true origin = {probe.true_key}")

session = session_for(tree, probability_tolerance=0.01)
for theta in (0.05, 0.2, 0.5, 0.9):
    # probability_tolerance makes the *reported* posteriors accurate to
    # one point (the answer set itself is exact regardless).
    rs = session.execute(TIQ(probe.q, tau=theta))
    matches, stats = rs.matches, rs.stats
    total = sum(m.probability for m in matches)
    scan_keys = {m.key for m in scan_tiq(db, TIQ(probe.q, theta))}
    assert {m.key for m in matches} == scan_keys, "index must stay exact"
    listing = ", ".join(
        f"{m.key} ({m.probability:.0%})" for m in matches[:4]
    )
    print(
        f"  TIQ(P>={theta:4.0%}): {len(matches):3d} candidates"
        f"  (sum P = {total:5.1%}, {stats.pages_accessed:3d} pages)  {listing}"
    )

# Stations get decommissioned and replaced; the index keeps its
# invariants through deletes and fresh inserts.
victims = [db[i] for i in range(0, 50)]
for v in victims:
    assert tree.delete(v)
replacement = PFV(rng.uniform(0, 1, D), rng.uniform(0.004, 0.015, D), key="station-new")
tree.insert(replacement)
tree.check_invariants()
print(
    f"\nafter decommissioning {len(victims)} stations and adding one: "
    f"n={len(tree)}, invariants hold"
)
