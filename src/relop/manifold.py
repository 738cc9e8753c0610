"""Distance matrices, MDS embeddings, and embedding-quality measures."""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist


def pairwise_euclidean(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    d = cdist(points, points)
    np.fill_diagonal(d, 0.0)
    return d


def geodesic_distances(points: np.ndarray, return_neighbor_size: bool = False):
    """Shortest-path distances over the smallest connected m-NN graph.

    The neighbor count m grows from 2 until the symmetrized graph is
    connected (a boolean frontier grown from point 0 reaches every point);
    edge weights are Euclidean distances and all-pairs paths come from one
    Floyd–Warshall pass over that graph's dense edge matrix (inf = no edge).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    euclid = pairwise_euclidean(points)
    order = knn_sets(euclid, n - 1)
    rows = np.arange(n)[:, None]
    # m = n - 1 is the complete graph, so the loop always ends connected
    for m in range(min(2, n - 1), n):
        linked = np.zeros((n, n), dtype=bool)
        linked[rows, order[:, :m]] = True
        linked |= linked.T
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        frontier = reached
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~reached
            reached |= frontier
        if reached.all():
            break
    out = np.where(linked, euclid, np.inf)
    np.fill_diagonal(out, 0.0)
    for k in range(n):
        np.minimum(out, out[:, k, None] + out[k], out=out)
    if return_neighbor_size:
        return out, m
    return out


def classical_mds(dist: np.ndarray, dim: int, pad_warning: bool = True) -> np.ndarray:
    """Torgerson MDS: double-center the squared distances and eigendecompose.

    Coordinates use the top ``dim`` nonnegative eigenpairs; missing positive
    directions are zero-padded, with a warning unless ``pad_warning`` is
    false (non-Euclidean distances lack some by nature). Axis signs are
    fixed by making each axis's largest-magnitude coordinate positive, so
    the output is fully deterministic.
    """
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if not np.allclose(dist, dist.T, atol=1e-10):
        raise ValueError("distance matrix must be symmetric")
    if dim > n - 1:
        raise ValueError("dim must be <= n - 1")
    center = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * center @ (dist * dist) @ center
    b = (b + b.T) / 2.0
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    # eigenvalue dust from a rank-deficient configuration is not a real axis
    cutoff = max(float(evals[0]), 0.0) * 1e-12
    positive = int((evals > cutoff).sum())
    take = min(dim, positive)
    if take < dim and pad_warning:
        warnings.warn(
            f"only {positive} positive eigenvalues; padding {dim - take} zero axes"
        )
    coords = np.zeros((n, dim))
    if take:
        coords[:, :take] = evecs[:, :take] * np.sqrt(evals[:take])
    for axis in range(dim):
        col = coords[:, axis]
        peak = int(np.argmax(np.abs(col)))
        if col[peak] < 0.0:
            coords[:, axis] = -col
    return coords


def smacof_mds(
    dist: np.ndarray,
    dim: int,
    rng: Optional[np.random.Generator],
    iters: int = 500,
    tol: float = 1e-9,
    init: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stress majorization from ``init``, or else from a random start drawn
    from ``rng``; returns (coords, stress_history).

    Majorization guarantees the raw stress never increases; an update that
    fails to improve at numerical precision is rejected and iteration stops,
    so the recorded history is monotone. Iteration also stops once a step
    improves the stress by less than ``tol`` relative, or after ``iters``
    steps. Each configuration's distances are computed once: the accepted
    update's matrix serves the next iteration.
    """
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    if init is not None:
        coords = np.array(init, dtype=float)
    else:
        coords = rng.standard_normal((n, dim)) * ((float(dist.max()) or 1.0) / 4.0)
    lower = np.tri(n, dtype=bool)  # the stress sums the pairs above the diagonal

    def raw_stress(d_coords: np.ndarray) -> float:
        return float(np.sum(np.where(lower, 0.0, dist - d_coords) ** 2))

    d_now = cdist(coords, coords)
    history = [raw_stress(d_now)]
    for _ in range(iters):
        b = np.divide(dist, d_now, out=np.zeros((n, n)), where=d_now > 0.0)
        np.negative(b, out=b)
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        new_coords = (b @ coords) / n
        d_new = cdist(new_coords, new_coords)
        stress = raw_stress(d_new)
        last = history[-1]
        if stress > last:
            break  # at the numerical floor: keep the better configuration
        coords, d_now = new_coords, d_new
        history.append(stress)
        if last - stress < tol * max(last, 1e-300):
            break
    return coords, np.array(history)


def knn_sets(dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest neighbors, self excluded.

    Ties are broken by index order so neighbor sets are reproducible.
    """
    n = dist.shape[0]
    if not (0 < k < n):
        raise ValueError("require 0 < k < n")
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    # a copy, so the (n, n) ordering is not kept alive behind the (n, k) view
    return np.argsort(masked, axis=1, kind="stable")[:, :k].copy()


def neighborhood_preservation(d_orig: np.ndarray, d_embed: np.ndarray, k: int) -> float:
    """Average fraction of original-space k-NN retained in the embedding."""
    orig = knn_sets(d_orig, k)
    embed = knn_sets(d_embed, k)
    n = d_orig.shape[0]
    shared = 0
    for i in range(n):
        shared += len(set(orig[i].tolist()) & set(embed[i].tolist()))
    return shared / (n * k)


def stress_measure(d_orig: np.ndarray, d_embed: np.ndarray) -> float:
    """Normalized squared distance discrepancy between the two spaces."""
    if d_orig.shape != d_embed.shape:
        raise ValueError("distance matrices must share a shape")
    denom = float(np.sum(d_embed * d_embed))
    if denom == 0.0:
        raise ValueError("embedding distances are all zero")
    return float(np.sum((d_orig - d_embed) ** 2)) / denom


def pne(d_orig: np.ndarray, d_embed: np.ndarray, k: int) -> float:
    """Preservation Neighborhood Error: squared distortion over the k-NN of
    each point in the original space (misses) plus in the embedding space
    (false positives), averaged with a 1/(2n) factor."""
    orig = knn_sets(d_orig, k)
    embed = knn_sets(d_embed, k)
    n = d_orig.shape[0]
    total = 0.0
    sq = (d_orig - d_embed) ** 2
    for i in range(n):
        total += sq[i, orig[i]].sum() / k
        total += sq[i, embed[i]].sum() / k
    return total / (2.0 * n)
