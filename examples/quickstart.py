"""Quickstart: the paper's Figure 1 scenario in a dozen lines of API.

Three facial observations of varying quality are stored as probabilistic
feature vectors; a query observation (good rotation, bad illumination)
is identified. Plain Euclidean search picks the wrong person; the
Gaussian uncertainty model picks the right one with ~77% posterior —
the worked example of Section 3.1.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    MLIQ,
    PFV,
    TIQ,
    GaussTree,
    PFVDatabase,
    scan_tiq,
    session_for,
)

# Feature F1 is sensitive to head rotation, F2 to illumination.
# (mu values are abstract face-geometry features; sigma encodes how
# trustworthy each measurement is under its capture conditions.)
o1 = PFV([4.42, 1.50], [0.21, 0.21], key="O1: good conditions")
o2 = PFV([1.18, 1.46], [1.34, 1.55], key="O2: bad rotation + illumination")
o3 = PFV([3.82, 1.20], [1.22, 0.37], key="O3: bad rotation only")
db = PFVDatabase([o1, o2, o3])

# The query image: sharp rotation, washed-out illumination.
query = PFV([3.59, 2.46], [0.23, 1.58])

print("Euclidean distances (conventional similarity search):")
for v in db:
    print(f"  {v.key:35s} d = {np.linalg.norm(v.mu - query.mu):.2f}")
print("-> nearest neighbour is O1, which is the WRONG person.\n")

# Index the database in a Gauss-tree and ask identification queries
# through the unified session API (repro.connect works the same way;
# session_for adopts an index you already built).
tree = GaussTree(dims=2, degree=2)
tree.extend(db.vectors)
session = session_for(tree)

result = session.execute(MLIQ(query, k=3))
print("1..3-most-likely identification (k-MLIQ) on the Gauss-tree:")
for m in result.matches:
    print(f"  P = {m.probability:5.1%}  {m.key}")
print(f"  ({result.stats.pages_accessed} page accesses, "
      f"{result.stats.objects_refined} exact refinements)\n")

# Threshold identification: everyone above 12% probability.
tiq_matches = session.execute(TIQ(query, tau=0.12)).matches
print("TIQ(P >= 12%):", [m.key.split(":")[0] for m in tiq_matches])

# The sequential scan (the paper's reference algorithm) agrees exactly.
scan_keys = [m.key.split(":")[0] for m in scan_tiq(db, TIQ(query, 0.12))]
assert [m.key.split(":")[0] for m in tiq_matches] == scan_keys
print("Sequential scan returns the same answer set - the index is exact.")
