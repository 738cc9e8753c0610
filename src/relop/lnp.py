"""Linear Neighborhood Propagation over Euclidean or geodesic geometry."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import manifold as mf
from .manifold import geodesic_distances, knn_sets, pairwise_euclidean, smacof_mds

# structurally rank-deficient local Gram systems (k above the ambient
# dimension) get the standard LLE conditioning; otherwise the system is
# solved exactly, falling back to a tiny ridge only on singular input
STRUCTURAL_RIDGE = 1e-3
FALLBACK_RIDGES = (1e-12, 1e-9, 1e-6, 1e-3)
# active-set rounds after which a weight solve is reported unsettled
MAX_PIVOT_ROUNDS = 200
# a clamped neighbor is freed once its dual 1 - (G v)_j exceeds this
DUAL_TOL = 1e-10


@dataclass
class WeightMatrix:
    """Row-stochastic local reconstruction weights.

    ``indices[i]`` lists point i's k neighbors and ``weights[i]`` their
    coefficients, which are nonnegative and sum to one per row, as LNP
    defines them; construction raises ``ValueError`` otherwise.
    ``fallback_rows`` lists the rows whose local Gram system was singular
    and needed a ``FALLBACK_RIDGES`` ridge; ``unsettled_rows`` the rows
    whose active set was still unsettled after ``MAX_PIVOT_ROUNDS`` rounds.
    """

    indices: np.ndarray  # (n, k) int
    weights: np.ndarray  # (n, k) float
    fallback_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    unsettled_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self) -> None:
        if not ((self.weights >= 0.0).all() and (np.abs(self.row_sums() - 1.0) <= 1e-12).all()):
            raise ValueError("reconstruction weights must be nonnegative and sum to one per row")

    @property
    def n_points(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def row_sums(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def dense(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The (len(rows), n) dense form of ``rows`` (every row by default)."""
        rows = np.arange(self.n_points) if rows is None else rows
        out = np.zeros((rows.size, self.n_points))
        np.add.at(out, (np.arange(rows.size)[:, None], self.indices[rows]), self.weights[rows])
        return out


def _stacked_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a[i] x[i] = b[i] for every i; singular systems give NaN rows."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(a.shape[0]):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _gram(diffs: np.ndarray, ridge: np.ndarray) -> np.ndarray:
    """Local Gram matrices D D' + ridge I of a stack of difference arrays."""
    gram = np.einsum("nid,njd->nij", diffs, diffs)
    diag = np.arange(diffs.shape[1])
    gram[:, diag, diag] += ridge[:, None]
    return gram


def _unusable(gram: np.ndarray, solutions: np.ndarray) -> np.ndarray:
    """Rows of a stack of Gram systems that count as singular: the solution
    is not finite or sums to zero, or the matrix has no Cholesky factor (the
    active set's free blocks could be singular, and it would cycle)."""
    out = ~np.isfinite(solutions).all(axis=1) | (np.abs(solutions.sum(axis=1)) <= 1e-12)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(~out):
            try:
                np.linalg.cholesky(gram[i])
            except np.linalg.LinAlgError:
                out[i] = True
    return out


def _free_solve(gram: np.ndarray, rows: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Solve G_FF s_F = 1 for each of ``rows``, on its free set F (``free``
    holds the rows' sets), with s = 0 off it.

    The free blocks are gathered at the size of the largest free set, and
    padding gets a unit diagonal and zeros elsewhere."""
    size = free.sum(axis=1)
    order = np.argsort(~free, axis=1, kind="stable")[:, : int(size.max())]
    pad = np.arange(order.shape[1]) >= size[:, None]
    system = gram[rows[:, None, None], order[:, :, None], order[:, None, :]]
    system[pad[:, :, None] | pad[:, None, :]] = 0.0
    diag = np.arange(order.shape[1])
    system[:, diag, diag] += pad
    out = np.zeros(free.shape)
    np.put_along_axis(out, order, _stacked_solve(system, (~pad).astype(float)), axis=1)
    return out


def _nonnegative_active_set(
    gram: np.ndarray, unconstrained: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lawson-Hanson active set for min v'Gv/2 - 1'v subject to v >= 0, for
    each row's Gram matrix G; returns v and the rows still unsettled after
    ``MAX_PIVOT_ROUNDS`` rounds.

    Its solution normalized to sum one minimizes w'Gw over the simplex (the
    KKT conditions agree, with multiplier 2/sum(v)). Rows whose unconstrained
    solution is positive are done. The others start from v = 0 with the
    neighbors of positive unconstrained weight free, and each round solves
    all their free systems at once: a row whose free solution is positive
    takes it and frees the clamped neighbor of largest dual 1 - (Gv)_j (or
    is done if none is positive); a row whose free solution is not steps
    toward it until the first neighbor reaches zero, and clamps it.
    """
    free = unconstrained > 0.0
    live = ~free.all(axis=1)
    v = np.where(live[:, None], 0.0, unconstrained)
    optimal = ~live  # v solves the problem on its free set
    for _ in range(MAX_PIVOT_ROUNDS):
        rows = np.flatnonzero(live & optimal)
        if rows.size:
            dual = 1.0 - np.einsum("rkj,rj->rk", gram[rows], v[rows])
            dual[free[rows]] = -np.inf
            enter = np.argmax(dual, axis=1)
            settled = dual[np.arange(rows.size), enter] <= DUAL_TOL
            live[rows[settled]] = False
            free[rows[~settled], enter[~settled]] = True
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        s = _free_solve(gram, rows, free[rows])
        blocked = free[rows] & (s <= 0.0)
        infeasible = blocked.any(axis=1)
        v[rows[~infeasible]] = s[~infeasible]
        optimal[rows] = ~infeasible
        rows, s, blocked = rows[infeasible], s[infeasible], blocked[infeasible]
        if rows.size:
            x = v[rows]
            step = np.full(x.shape, np.inf)
            step[blocked] = 0.0  # x_j = s_j = 0 unless x_j > s_j
            np.divide(x, x - s, out=step, where=blocked & (x > s))
            leave = np.argmin(step, axis=1)
            x += step[np.arange(rows.size), leave][:, None] * (s - x)
            x[np.arange(rows.size), leave] = 0.0
            clamp = blocked & (x <= 0.0)
            x[clamp] = 0.0
            free[rows] &= ~clamp
            v[rows] = x
    if live.any():
        warnings.warn(
            f"nonnegative weight solve did not settle within {MAX_PIVOT_ROUNDS} "
            f"rounds for {int(live.sum())} rows"
        )
    return v, np.flatnonzero(live)


def _local_weights(
    diffs: np.ndarray, structural: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonnegative weights of every point's local Gram system at once, from
    the (n, k, d) differences to its neighbors; returns (weights, fallback
    rows, unsettled rows). The unconstrained solution of G w = 1 is the
    active set's starting point."""
    n, k, _ = diffs.shape
    scale = np.einsum("nkd,nkd->n", diffs, diffs) / k  # trace(G) / k
    scale[scale <= 0.0] = 1.0
    ridge = STRUCTURAL_RIDGE * scale if structural else np.zeros(n)
    gram = _gram(diffs, ridge)
    ones = np.ones((n, k))
    solutions = _stacked_solve(gram, ones)
    fallback = np.flatnonzero(_unusable(gram, solutions))
    pending = fallback
    for eps in FALLBACK_RIDGES:
        if pending.size == 0:
            break
        system = _gram(diffs[pending], ridge[pending] + eps * scale[pending])
        retried = _stacked_solve(system, ones[pending])
        ok = ~_unusable(system, retried)
        gram[pending[ok]] = system[ok]
        solutions[pending[ok]] = retried[ok]
        pending = pending[~ok]
    if pending.size:
        raise np.linalg.LinAlgError("local Gram system could not be stabilized")
    solutions, unsettled = _nonnegative_active_set(gram, solutions)
    return solutions / solutions.sum(axis=1, keepdims=True), fallback, unsettled


def reconstruction_weights(points: np.ndarray, k: int) -> WeightMatrix:
    """Nonnegative weights, summing to one, that best reconstruct each point
    from its k nearest neighbors: min |x_i - sum_j w_j x_j|^2 over the
    simplex, for the local Gram systems of all points together.
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    if not (0 < k < n):
        raise ValueError("require 0 < k < n")
    neighbors = knn_sets(pairwise_euclidean(points), k)
    weights, fallback, unsettled = _local_weights(points[:, None, :] - points[neighbors], k > dim)
    return WeightMatrix(neighbors, weights, fallback, unsettled)


def _count_rows(tally: Counter, wm: WeightMatrix) -> None:
    tally["fallback_rows"] += wm.fallback_rows.size
    tally["unsettled_rows"] += wm.unsettled_rows.size


def unfold(
    points: np.ndarray, iters: int = 50_000, tol: float = 1e-9
) -> tuple[np.ndarray, int, str]:
    """Flatten the point cloud by embedding its geodesic distances via
    stress-majorization MDS at the original dimensionality d.

    SMACOF starts from the Torgerson configuration (``classical_mds``) in
    m = min(d, n - 1) axes, so the unfolding is deterministic; its update
    keeps a zero column zero, so it runs in those m axes, and the result is
    zero-padded to d. Returns (coords, iterations, stop): the accepted
    SMACOF steps and why they ended, ``"tol"`` (a step improved the stress
    by less than ``tol`` relative), ``"cap"`` (``iters`` steps) or
    ``"rejected"`` (a step failed to improve at numerical precision)."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    m = min(d, n - 1)
    dist = geodesic_distances(points)
    start = mf.classical_mds(dist, m, pad_warning=False)
    coords, history = smacof_mds(dist, m, None, iters=iters, tol=tol, init=start)
    steps = len(history) - 1
    if steps and history[-2] - history[-1] < tol * max(history[-2], 1e-300):
        stop = "tol"
    elif steps < iters:
        stop = "rejected"
    else:
        stop = "cap"
    return np.pad(coords, ((0, 0), (0, d - m))), steps, stop


def _reaching_rows(weight_matrix: WeightMatrix, labeled: np.ndarray) -> np.ndarray:
    """Unlabeled rows joined to some labeled row by a path of nonzero
    weights; a frontier grown backwards from the labels over the index array."""
    linked = weight_matrix.weights != 0.0
    reached = labeled.copy()
    while True:
        grown = ~reached & (linked & reached[weight_matrix.indices]).any(axis=1)
        if not grown.any():
            return np.flatnonzero(reached & ~labeled)
        reached |= grown


def propagate(
    weight_matrix: WeightMatrix,
    initial_labels: Mapping[int, int],
    n_classes: int,
    tol: float = 1e-9,
) -> np.ndarray:
    """The fixed point of label reconstruction, solved directly.

    Labeled rows stay clamped to their one-hot vectors. Unlabeled rows that
    reach a label through nonzero weights solve (I - W_RR) L_R = W_Rl L_l;
    the rest stay exactly zero, as they do when the reconstruction is
    iterated from zero. Rows are nonnegative and sum to one, and each
    reached row has a path of positive weights to a label, so W_RR has
    spectral radius below one and I - W_RR is nonsingular. A fixed-point
    residual above ``tol`` is warned about.
    """
    n = weight_matrix.n_points
    labels = np.zeros((n, n_classes))
    for i, c in initial_labels.items():
        if not (0 <= c < n_classes):
            raise ValueError(f"class {c} out of range")
        labels[i, c] = 1.0
    labeled = np.zeros(n, dtype=bool)
    labeled[list(initial_labels)] = True
    rows = _reaching_rows(weight_matrix, labeled)
    if rows.size == 0:
        return labels
    # dense rows of the reached block: L_R = W_RR L_R + W_Rl L_l
    dense = weight_matrix.dense(rows)
    w_rr = dense[:, rows]
    bias = dense @ labels  # unlabeled rows of ``labels`` are still zero
    solved = np.linalg.solve(np.eye(rows.size) - w_rr, bias)
    residual = float(np.abs(w_rr @ solved + bias - solved).max())
    if not residual <= tol:  # NaN too
        warnings.warn(f"label propagation fixed-point residual {residual:.3e} exceeds tol {tol:g}")
    labels[rows] = solved
    return labels


def lle_embedding(weight_matrix: WeightMatrix, dim: int) -> np.ndarray:
    """The low-dimensional configuration a weight matrix reconstructs best.

    Bottom eigenvectors of (I-W)'(I-W), scaled by sqrt(n), above its null
    space (eigenvalues up to 1e-10 of the largest, or of 1): the constant
    mode, plus one vector per further closed class of the weight graph."""
    n = weight_matrix.n_points
    if not (0 < dim < n):
        raise ValueError("require 0 < dim < n")
    m = np.eye(n) - weight_matrix.dense()
    values, vectors = np.linalg.eigh(m.T @ m)
    null = int(np.count_nonzero(values <= 1e-10 * max(values[-1], 1.0)))
    if n - null < dim:
        raise ValueError(f"only {n - null} eigenvectors above the null space; need {dim}")
    return vectors[:, null : null + dim] * np.sqrt(n)


def predict(
    points: np.ndarray,
    initial_labels: Mapping[int, int],
    n_classes: int,
    k: int,
    metric: str = "euclidean",
    propagate_tol: float = 1e-9,
    smacof_iters: int = 50_000,
    smacof_tol: float = 1e-9,
    tally: Counter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the full propagation pipeline; returns (classes, soft scores).

    The geodesic variant first unfolds the cloud (``unfold``), then finds
    neighbors and nonnegative weights on the unfolded coordinates.
    ``tally`` is as in ``sensitivity_sweep``.
    """
    points = np.asarray(points, dtype=float)
    tally = Counter() if tally is None else tally
    if metric == "geodesic":
        points, tally["unfold_iters"], tally["unfold_stop"] = unfold(
            points, smacof_iters, smacof_tol
        )
    elif metric != "euclidean":
        raise ValueError(f"unknown metric: {metric}")
    wm = reconstruction_weights(points, k)
    _count_rows(tally, wm)
    soft = propagate(wm, initial_labels, n_classes, tol=propagate_tol)
    return np.argmax(soft, axis=1), soft


@dataclass
class SweepRow:
    metric: str
    label_count: int
    k: int
    run: int
    errors: int
    unreached: int = 0  # unlabeled points no label reached (scores all zero)


def _usable_ks(k_range: Iterable[int], n: int) -> list[int]:
    """The distinct neighborhood sizes 0 < k < n of ``k_range``, ascending."""
    ks = [k for k in sorted(set(int(k) for k in k_range)) if 0 < k < n]
    if not ks:
        raise ValueError("k_range has no usable values")
    return ks


def _draw_balanced_labels(
    truth: np.ndarray,
    label_count: int,
    n_classes: int,
    rng: np.random.Generator,
) -> dict[int, int]:
    # the first label_count % n_classes classes take one label more
    per_class, extra = divmod(label_count, n_classes)
    initial: dict[int, int] = {}
    for c in range(n_classes):
        members = np.where(truth == c)[0]
        take = min(per_class + (c < extra), members.size)
        picked = rng.choice(members, size=take, replace=False)
        for i in picked:
            initial[int(i)] = c
    return initial


def sensitivity_sweep(
    points: np.ndarray,
    truth: np.ndarray,
    label_counts: Sequence[int],
    k_range: Iterable[int],
    runs: int = 50,
    seed: int = 0,
    propagate_tol: float = 1e-9,
    smacof_iters: int = 50_000,
    smacof_tol: float = 1e-9,
    tally: Counter | None = None,
) -> list[SweepRow]:
    """Prediction-error table over metric (``euclidean``, then ``geodesic``)
    x label budget x k x seeded run.

    Initial labels are balanced draws from the truth, ``label_count //
    n_classes`` per class plus one for each of the first ``label_count %
    n_classes`` classes (each capped at its size), so a budget below the
    class count raises ``ValueError``; errors are counted on unlabeled
    entities only. The geodesic metric works on one ``unfold`` of the cloud,
    and each metric's weights are solved once per k, so the runs differ
    only in their label draws. Every cell is reproducible from ``seed``.
    ``tally``, when given, gains the ``fallback_rows`` and
    ``unsettled_rows`` of every weight matrix solved, and the unfold's
    ``unfold_iters`` and ``unfold_stop``.
    """
    points = np.asarray(points, dtype=float)
    truth = np.asarray(truth, dtype=np.int64)
    n = points.shape[0]
    n_classes = int(truth.max()) + 1
    small = [c for c in label_counts if c < n_classes]
    if small:
        raise ValueError(f"label counts {small} draw no labels for {n_classes} classes")
    ks = _usable_ks(k_range, n)
    tally = Counter() if tally is None else tally
    unfolded, tally["unfold_iters"], tally["unfold_stop"] = unfold(
        points, smacof_iters, smacof_tol
    )
    rows: list[SweepRow] = []
    for metric_id, (metric, cloud) in enumerate((("euclidean", points), ("geodesic", unfolded))):
        weights_by_k = {k: reconstruction_weights(cloud, k) for k in ks}
        for wm in weights_by_k.values():
            _count_rows(tally, wm)
        for run in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence([seed, metric_id, run]))
            for label_count in sorted(label_counts):
                initial = _draw_balanced_labels(truth, label_count, n_classes, rng)
                unlabeled = np.array(
                    [i for i in range(n) if i not in initial], dtype=np.int64
                )
                for k in ks:
                    soft = propagate(weights_by_k[k], initial, n_classes, tol=propagate_tol)
                    scores = soft[unlabeled]
                    errors = int((np.argmax(scores, axis=1) != truth[unlabeled]).sum())
                    unreached = int((~scores.any(axis=1)).sum())
                    rows.append(SweepRow(metric, label_count, k, run, errors, unreached))
    return rows


def select_k(
    points: np.ndarray,
    k_range: Iterable[int],
    smacof_iters: int = 50_000,
    smacof_tol: float = 1e-9,
    tally: Counter | None = None,
) -> tuple[int, list[dict]]:
    """The k of least PNE (smallest k on ties), and the table of one ``k``,
    ``np``, ``st`` and ``pne`` row per k.

    The cloud is unfolded once, as in the sweep; each k is judged by the 2-D
    LLE embedding of its own weights on the unfolded points. ``tally`` is as
    in ``sensitivity_sweep``."""
    points = np.asarray(points, dtype=float)
    ks = _usable_ks(k_range, points.shape[0])
    d_orig = pairwise_euclidean(points)
    tally = Counter() if tally is None else tally
    unfolded, tally["unfold_iters"], tally["unfold_stop"] = unfold(
        points, smacof_iters, smacof_tol
    )
    rows: list[dict] = []
    for k in ks:
        wm = reconstruction_weights(unfolded, k)
        _count_rows(tally, wm)
        d_embed = pairwise_euclidean(lle_embedding(wm, 2))
        rows.append(
            {
                "k": k,
                "np": mf.neighborhood_preservation(d_orig, d_embed, k),
                "st": mf.stress_measure(d_orig, d_embed),
                "pne": mf.pne(d_orig, d_embed, k),
            }
        )
    return min(rows, key=lambda row: row["pne"])["k"], rows


def median_band(values) -> tuple[float, float, float]:
    """Median and 2.5/97.5 percentile band of a sample."""
    arr = np.asarray(values, dtype=float)
    return float(np.median(arr)), float(np.percentile(arr, 2.5)), float(np.percentile(arr, 97.5))


def sweep_medians(rows: Sequence[SweepRow]) -> dict[tuple[str, int, int], tuple[float, float, float]]:
    """``median_band`` of the error counts per (metric, label_count, k)."""
    cells: dict[tuple[str, int, int], list[int]] = {}
    for row in rows:
        cells.setdefault((row.metric, row.label_count, row.k), []).append(row.errors)
    return {key: median_band(values) for key, values in cells.items()}


def evaluate_fixture(
    predictions: Mapping[str, str],
    truth: Mapping[str, str],
) -> tuple[int, list[str]]:
    """Count and list disagreements between aligned entity->label mappings."""
    if set(predictions) != set(truth):
        raise ValueError("prediction and truth entity sets differ")
    misses = sorted(e for e in truth if predictions[e] != truth[e])
    return len(misses), misses
