"""Geodesic vs Euclidean geometry on curved data, and picking k.

Shows the three manifold claims on benchmark data: shortest-path distances
track the swiss roll's intrinsic geometry where straight lines cannot; the
geodesic LNP variant beats the Euclidean one at larger neighborhood sizes on
two moons; and the PNE criterion points at a sensible k range without
running any predictions.
"""

from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from relop.lnp import select_k, sensitivity_sweep, sweep_medians
from relop.manifold import geodesic_distances, pairwise_euclidean
from relop.plots import plot_error_curves
from relop.synth import gen_manifold

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

roll = gen_manifold("swiss_roll", 400, noise=0.0, seed=1)
geo = geodesic_distances(roll.points)
euc = pairwise_euclidean(roll.points)
intrinsic = pairwise_euclidean(roll.intrinsic)
iu = np.triu_indices(len(roll.points), 1)
print("swiss roll, Spearman correlation with intrinsic distances:")
print(f"  geodesic  {spearmanr(geo[iu], intrinsic[iu]).statistic:.4f}")
print(f"  euclidean {spearmanr(euc[iu], intrinsic[iu]).statistic:.4f}")

moons = gen_manifold("two_moons", 100, noise=0.08, seed=7)
rows = sensitivity_sweep(
    moons.points, moons.classes, label_counts=(8,), k_range=range(2, 26), runs=15, seed=4
)
medians = sweep_medians(rows)
series = {}
for (metric, _, k), (mid, lo, hi) in sorted(medians.items()):
    series.setdefault(metric, []).append((k, mid, lo, hi))
(OUT / "moons_error_curves.svg").write_text(
    plot_error_curves(series, title="two moons, 8 initial labels, 15 runs")
)
print(f"\nwrote {OUT / 'moons_error_curves.svg'}")
for metric in ("euclidean", "geodesic"):
    tail = [medians[(metric, 8, k)][0] for k in range(13, 26)]
    print(f"  {metric:10s} median errors for k in [13,25]: {tail}")

# each k is judged by the embedding its own weights induce
k_star, _ = select_k(moons.points, range(2, 26))
print(f"\nPNE-selected neighborhood size: k* = {k_star}")
