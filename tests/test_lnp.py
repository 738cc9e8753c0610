import warnings
from collections import Counter

import numpy as np
import pytest

from relop import lnp
from relop.lnp import (
    WeightMatrix,
    evaluate_fixture,
    lle_embedding,
    predict,
    propagate,
    reconstruction_weights,
    sensitivity_sweep,
    sweep_medians,
    unfold,
)
from relop.manifold import pairwise_euclidean
from relop.synth import (
    brute_force_lnp_weights,
    gen_manifold,
    harmonic_iterate,
    procrustes_residual,
)


class TestReconstructionWeights:
    def test_symmetric_pair(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [8.0, 8.0]])
        wm = reconstruction_weights(pts, 2)
        np.testing.assert_allclose(wm.weights[0], [0.5, 0.5], atol=1e-12)
        assert wm.indices[0].tolist() == [1, 2]

    def test_coincident_neighbor_dominates(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        wm = reconstruction_weights(pts, 2)
        assert wm.weights[0][0] == pytest.approx(1.0, abs=1e-6)

    def test_row_sums(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 5):
            wm = reconstruction_weights(rng.standard_normal((12, 3)), k)
            np.testing.assert_allclose(wm.row_sums(), 1.0, atol=1e-12)

    def test_matches_line_search_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pts = rng.standard_normal((5, 2)) * 2.0
            wm = reconstruction_weights(pts, 2)
            oracle = brute_force_lnp_weights(pts[0], pts[wm.indices[0]])
            np.testing.assert_allclose(wm.weights[0], oracle, atol=1e-6)

    def test_nonnegative_mode_solves_constrained_problem(self):
        """Dual-route check of the active-set QP against scipy SLSQP."""
        from scipy.optimize import minimize

        rng = np.random.default_rng(2)
        for _ in range(10):
            pts = rng.standard_normal((8, 2))
            wm = reconstruction_weights(pts, 4)
            for row in (0, 3):
                diffs = pts[row] - pts[wm.indices[row]]
                gram = diffs @ diffs.T
                gram += 1e-3 * np.trace(gram) / 4 * np.eye(4)  # k > d conditioning

                res = minimize(
                    lambda w: w @ gram @ w,
                    np.full(4, 0.25),
                    jac=lambda w: 2.0 * gram @ w,
                    bounds=[(0.0, None)] * 4,
                    constraints={"type": "eq", "fun": lambda w: w.sum() - 1.0},
                    method="SLSQP",
                    options={"ftol": 1e-14, "maxiter": 200},
                )
                got = wm.weights[row] @ gram @ wm.weights[row]
                assert wm.weights[row].min() >= -1e-12
                assert got <= res.fun + 1e-8

    def test_nonnegative_weights_satisfy_kkt_and_match_nnls(self):
        """Every row of the batched active set is the simplex-constrained
        minimizer: KKT holds, and scipy's NNLS on min |Rv - R^-T 1| with
        G = R'R, normalized, gives the same weights."""
        from scipy.linalg import cholesky, solve_triangular
        from scipy.optimize import nnls

        pts = gen_manifold("two_moons", 60, noise=0.08, seed=12).points
        for k in range(2, 26):
            wm = reconstruction_weights(pts, k)
            for i in range(len(pts)):
                diffs = pts[i] - pts[wm.indices[i]]
                gram = diffs @ diffs.T
                if k > 2:  # k > d conditioning
                    gram += 1e-3 * np.trace(gram) / k * np.eye(k)
                w = wm.weights[i]
                grad = gram @ w
                value = w @ grad
                assert w.min() >= 0.0 and abs(w.sum() - 1.0) < 1e-12
                assert (grad >= value * (1.0 - 1e-9)).all()
                np.testing.assert_allclose(grad[w > 0], value, rtol=1e-9)
                root = cholesky(gram)
                v, _ = nnls(root, solve_triangular(root, np.ones(k), trans="T"))
                np.testing.assert_allclose(w, v / v.sum(), atol=1e-9)

    def test_fallback_ridge_only_for_coincident_neighbors(self):
        """Rows 0 and 1 coincide, so each one's Gram system (k = d, no
        structural ridge) is singular; no other row's is."""
        cloud = np.random.default_rng(13).uniform(0.0, 1.0, (12, 2)) + 10.0
        pts = np.vstack([[[0.0, 0.0], [0.0, 0.0]], cloud])
        wm = reconstruction_weights(pts, 2)
        assert wm.fallback_rows.tolist() == [0, 1]
        np.testing.assert_allclose(wm.row_sums(), 1.0, atol=1e-12)
        assert wm.weights[0][0] == pytest.approx(1.0, abs=1e-6)
        assert wm.weights[1][0] == pytest.approx(1.0, abs=1e-6)

    def test_the_ladder_is_read_at_call_time(self, monkeypatch):
        """With no fallback ridge to climb, the coincident rows cannot be
        lifted, so a patched ``FALLBACK_RIDGES`` reaches the solve."""
        monkeypatch.setattr(lnp, "FALLBACK_RIDGES", ())
        cloud = np.random.default_rng(13).uniform(0.0, 1.0, (12, 2)) + 10.0
        pts = np.vstack([[[0.0, 0.0], [0.0, 0.0]], cloud])
        with pytest.raises(np.linalg.LinAlgError, match="could not be stabilized"):
            reconstruction_weights(pts, 2)

    def test_rank_deficient_gram_settles(self):
        """Point 0 mixes 22 points that span 15 of 50 dimensions, so its
        22-neighbor Gram matrix has rank 15 and a smallest eigenvalue of
        zero up to rounding: the row gets a fallback ridge, and the active
        set settles on an exact reconstruction instead of cycling among
        singular free blocks."""
        rng = np.random.default_rng(0)
        others = rng.standard_normal((22, 15)) @ rng.standard_normal((15, 50))
        pts = np.vstack([rng.dirichlet(np.ones(22)) @ others, others])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wm = reconstruction_weights(pts, 22)
        assert 0 in wm.fallback_rows
        assert wm.unsettled_rows.size == 0
        diffs = pts[0] - pts[wm.indices[0]]
        assert wm.weights[0] @ diffs @ diffs.T @ wm.weights[0] < 1e-12

    def test_collinear_cloud_gets_the_simplex_optimum(self):
        """Every 2-neighbor Gram matrix of collinear points is singular,
        though rounding can leave its smallest eigenvalue slightly positive;
        the eigenvalue bound sends every row to a fallback ridge, so each
        settles on the brute-force simplex optimum."""
        rng = np.random.default_rng(1000)
        pts = rng.standard_normal((34, 1)) @ rng.standard_normal((1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wm = reconstruction_weights(pts, 2)
        assert wm.unsettled_rows.size == 0
        for i in range(len(pts)):
            oracle = brute_force_lnp_weights(pts[i], pts[wm.indices[i]])
            np.testing.assert_allclose(wm.weights[i], oracle, atol=1e-6)

    @pytest.mark.parametrize(
        "seed,k", [(8, 6), (12, 8), (13, 6), (20, 7), (22, 6), (23, 6), (26, 7)]
    )
    def test_rank_five_clouds_in_50d_settle(self, seed, k):
        """k above the cloud's rank of 5, but below d = 50, so no structural
        ridge: a Gram matrix singular up to rounding, taken as regular,
        leaves a row unsettled or off the simplex. Its smallest eigenvalue
        is at most ``SINGULAR_TOL`` times its scale, so it gets a fallback
        ridge, and every row meets the KKT conditions of its simplex
        problem. At (13, 6) row 25's smallest eigenvalue is zero to rounding,
        and without a ridge its active set did not settle."""
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wm = reconstruction_weights(pts, k)
        for i in range(len(pts)):
            diffs = pts[i] - pts[wm.indices[i]]
            gram = diffs @ diffs.T
            scale = np.trace(gram) / k
            grad = gram @ wm.weights[i]
            value = wm.weights[i] @ grad
            assert grad.min() >= value - 1e-9 * scale
            np.testing.assert_allclose(grad[wm.weights[i] > 0], value, atol=1e-9 * scale)

    def test_unsettled_rows_are_counted(self, monkeypatch):
        """With one active-set round, rows whose unconstrained weights have
        a negative entry take their first free solve unsettled; that is
        warned about and reported in the matrix and in a tally."""
        monkeypatch.setattr(lnp, "MAX_PIVOT_ROUNDS", 1)
        pts = np.random.default_rng(0).standard_normal((8, 2))
        with pytest.warns(UserWarning, match="did not settle"):
            wm = reconstruction_weights(pts, 2)
        assert wm.unsettled_rows.size > 0
        tally = Counter()
        with pytest.warns(UserWarning, match="did not settle"):
            predict(pts, {0: 0, 1: 1}, 2, k=2, tally=tally)
        assert 0.0 <= tally.pop("propagate_residual") <= 1e-9
        assert tally == {"fallback_rows": 0, "unsettled_rows": wm.unsettled_rows.size}

    def test_stuck_rows_take_the_positive_unconstrained_part(self, monkeypatch):
        """With one active-set round, most of these clouds leave some row
        at an all-zero iterate; it gets the positive part of its
        unconstrained solution, normalized, instead of 0/0, and stays
        unsettled and warned about."""
        monkeypatch.setattr(lnp, "MAX_PIVOT_ROUNDS", 1)
        unsettled = 0
        for seed in range(45):
            for dim in (2, 3):
                pts = np.random.default_rng(seed).standard_normal((8, dim))
                for k in (4, 5):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        wm = reconstruction_weights(pts, k)
                    assert np.isfinite(wm.weights).all()
                    warned = [w for w in caught if "did not settle" in str(w.message)]
                    assert len(warned) == (wm.unsettled_rows.size > 0)
                    unsettled += wm.unsettled_rows.size > 0
        assert unsettled >= 170

    def test_no_ridge_lifts_a_nan_row(self):
        """A NaN coordinate leaves a Gram system with no smallest eigenvalue
        that any ladder step lifts, and the solve says so."""
        pts = np.random.default_rng(0).standard_normal((8, 2))
        pts[3, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="could not be stabilized"):
            reconstruction_weights(pts, 2)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            reconstruction_weights(np.zeros((4, 2)), 4)


class TestMemo:
    """``unfold`` and ``reconstruction_weights`` share one bounded memo
    keyed by the points' content, the arguments and the solver constants."""

    @staticmethod
    def count_smacof(monkeypatch) -> list:
        calls = []
        smacof = lnp.smacof_mds

        def spy(*args, **kwargs):
            calls.append(1)
            return smacof(*args, **kwargs)

        monkeypatch.setattr(lnp, "smacof_mds", spy)
        return calls

    def test_repeat_returns_equal_read_only_results(self, monkeypatch):
        calls = self.count_smacof(monkeypatch)
        pts = np.random.default_rng(2).standard_normal((15, 3))
        first = unfold(pts, 200)
        again = unfold(pts.copy(), 200)
        assert len(calls) == 1
        assert first[0].tobytes() == again[0].tobytes() and first[1:] == again[1:]
        assert not again[0].flags.writeable
        wm = reconstruction_weights(again[0], 4)
        wm_again = reconstruction_weights(np.array(again[0]), 4)
        assert wm_again.weights.tobytes() == wm.weights.tobytes()
        assert wm_again.indices.tobytes() == wm.indices.tobytes()
        for array in (wm_again.indices, wm_again.weights, wm_again.fallback_rows,
                      wm_again.unsettled_rows):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            wm_again.weights[0, 0] = 0.5

    def test_a_point_moved_by_one_ulp_misses(self, monkeypatch):
        calls = self.count_smacof(monkeypatch)
        pts = np.random.default_rng(3).standard_normal((12, 2))
        moved = pts.copy()
        moved[5, 1] = np.nextafter(moved[5, 1], np.inf)
        unfold(pts, 50)
        unfold(moved, 50)
        assert len(calls) == 2
        hits = lnp.MEMO_HITS["reconstruction_weights"]
        reconstruction_weights(pts, 3)
        reconstruction_weights(moved, 3)
        assert lnp.MEMO_HITS["reconstruction_weights"] == hits

    def test_a_changed_solver_constant_misses(self, monkeypatch):
        pts = np.random.default_rng(4).standard_normal((12, 2))
        reconstruction_weights(pts, 3)
        hits = lnp.MEMO_HITS["reconstruction_weights"]
        changed = {"STRUCTURAL_RIDGE": 2e-3, "FALLBACK_RIDGES": (1e-9, 1e-3),
                   "SINGULAR_TOL": 1e-11, "MAX_PIVOT_ROUNDS": lnp.MAX_PIVOT_ROUNDS + 1,
                   "DUAL_TOL": 1e-11}
        for name, value in changed.items():
            monkeypatch.setattr(lnp, name, value)
            reconstruction_weights(pts, 3)
        assert lnp.MEMO_HITS["reconstruction_weights"] == hits
        assert len(lnp.MEMO) == 1 + len(changed)

    def test_stays_within_its_bound(self):
        """The least recently used result is dropped first."""
        base = np.random.default_rng(5).standard_normal((6, 2))
        clouds = [base + i for i in range(lnp.MEMO_ENTRIES + 5)]
        for cloud in clouds:
            reconstruction_weights(cloud, 2)
            assert len(lnp.MEMO) <= lnp.MEMO_ENTRIES
        assert len(lnp.MEMO) == lnp.MEMO_ENTRIES
        hits = lnp.MEMO_HITS["reconstruction_weights"]
        reconstruction_weights(clouds[-1], 2)
        reconstruction_weights(clouds[0], 2)
        assert lnp.MEMO_HITS["reconstruction_weights"] == hits + 1


class TestUnfold:
    def test_flat_grid_reproduces_geodesic_geometry(self):
        """The unfolded cloud must carry the geodesic structure: low stress
        against the shortest-path matrix and strong rank agreement with the
        intrinsic grid distances. Exact isometry to the raw grid is not
        attainable here: the minimum-connectivity neighbor graph inflates
        diagonal distances well before MDS runs."""
        from scipy.stats import spearmanr

        from relop.manifold import geodesic_distances, stress_measure

        sample = gen_manifold("flat_grid", 36, noise=0.0, seed=4, dim=4)
        geo = geodesic_distances(sample.points)
        coords, _, _ = unfold(sample.points)
        d_out = pairwise_euclidean(coords)
        assert stress_measure(geo, d_out) < 0.05
        iu = np.triu_indices(36, 1)
        intrinsic = pairwise_euclidean(sample.intrinsic)
        assert spearmanr(d_out[iu], intrinsic[iu]).statistic > 0.9

    def test_arc_unrolls_to_arc_length(self):
        t = np.linspace(0.2, np.pi - 0.2, 60)
        arc = np.column_stack([np.cos(t), np.sin(t)])
        # the Torgerson start is already near-isometric (stress ~1e-10), so
        # a step's gain is far below tol against Σd² at once
        coords, steps, stop = unfold(arc)
        assert stop == "tol" and steps <= 10
        got = pairwise_euclidean(coords)
        want = pairwise_euclidean(t.reshape(-1, 1))  # arc length on unit circle
        iu = np.triu_indices(60, 1)
        rel = np.abs(got[iu] - want[iu]) / want[iu]
        assert np.median(rel) < 0.05

    def test_duplicated_cluster_collapses(self):
        """A cloud of rank 0 unfolds into no axes at all, and geodesic
        prediction on it still names a class for every point."""
        pts = np.tile([[2.0, -1.0]], (12, 1))
        coords, _, _ = unfold(pts)
        assert pairwise_euclidean(coords).max() < 1e-9
        assert coords.shape == (12, 0)
        classes, soft = predict(pts, {0: 0, 1: 1}, 2, 3, metric="geodesic")
        assert classes.shape == (12,) and set(classes.tolist()) <= {0, 1}
        np.testing.assert_allclose(soft.sum(axis=1), 1.0)

    def test_bit_identical_across_calls(self):
        sample = gen_manifold("swiss_roll", 40, noise=0.0, seed=5)
        first, steps, stop = unfold(sample.points)
        again, steps_again, stop_again = unfold(sample.points.copy())
        assert first.tobytes() == again.tobytes()
        assert (steps, stop) == (steps_again, stop_again)

    @pytest.mark.parametrize(
        "n, iters, tol, stop",
        [
            (15, 50_000, 1e-9, "tol"),
            (15, 3, 1e-9, "cap"),
            (6, 50_000, 0.0, "rejected"),  # tol 0: only a rejected step stops
        ],
    )
    def test_reports_its_stop(self, n, iters, tol, stop):
        """The stop and step count agree with SMACOF's history from the
        Torgerson start."""
        from relop.manifold import classical_mds, geodesic_distances, smacof_mds

        pts = np.random.default_rng(6).standard_normal((n, 3))
        coords, steps, got = unfold(pts, iters, tol)
        assert got == stop
        dist = geodesic_distances(pts)
        start = classical_mds(dist, 3)
        ref_coords, history, ref_stop = smacof_mds(
            dist, start.shape[1], None, iters, tol, init=start
        )
        assert ref_stop == stop
        np.testing.assert_array_equal(coords, ref_coords)
        assert steps == len(history) - 1
        assert (steps == iters) == (stop == "cap")
        if stop == "rejected":
            assert steps > 0

    def test_returns_the_14_positive_axes(self):
        """A cloud of 24 points in 50 dimensions has a geodesic Torgerson
        start of 14 positive axes, and unfolds into those 14 columns, with
        no warning for the axes it leaves out."""
        pts = np.random.default_rng(3).standard_normal((24, 50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coords, _, stop = unfold(pts)
        assert coords.shape == (24, 14)
        assert stop == "tol"
        assert np.abs(coords).max(axis=0).min() > 0.1  # no dead column

    def test_weights_see_the_rank(self):
        """Above the rank, the structural ridge conditions every row, so no
        row needs a fallback ridge; at or below it the rows whose smallest
        eigenvalue is at most ``SINGULAR_TOL`` times the scale (9.0e-13 at
        most here, against 1.05e-12 at least for every other row) still
        climb the ladder."""
        pts = np.random.default_rng(3).standard_normal((24, 50))
        coords, _, _ = unfold(pts)
        fallback = {k: reconstruction_weights(coords, k).fallback_rows.size for k in range(2, 24)}
        assert fallback == {k: {12: 5, 13: 14, 14: 24}.get(k, 0) for k in range(2, 24)}


def chain_weights(n):
    """Symmetric nearest-neighbor chain with equal half weights inside."""
    indices = np.zeros((n, 2), dtype=np.int64)
    weights = np.full((n, 2), 0.5)
    indices[0] = [1, 2]
    indices[-1] = [n - 2, n - 3]
    for i in range(1, n - 1):
        indices[i] = [i - 1, i + 1]
    return WeightMatrix(indices, weights)


class TestLleEmbedding:
    @staticmethod
    def two_clusters():
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((24, 3))
        pts[12:, 0] += 50.0
        indicators = np.zeros((24, 2))
        indicators[:12, 0] = indicators[12:, 1] = 1.0
        return pts, indicators

    def test_dense_matches_entry_loop(self):
        wm = reconstruction_weights(self.two_clusters()[0], 5)
        expected = np.zeros((24, 24))
        for i in range(24):
            for j, w in zip(wm.indices[i], wm.weights[i]):
                expected[i, j] += w
        np.testing.assert_array_equal(wm.dense(), expected)
        rows = np.array([20, 3, 7])
        np.testing.assert_array_equal(wm.dense(rows), expected[rows])

    def test_skips_every_closed_class(self):
        # two far clusters: the weight graph has (at least) two closed
        # classes, so (I-W)'(I-W) has a null space holding both indicators
        pts, indicators = self.two_clusters()
        wm = reconstruction_weights(pts, 4)
        emb = lle_embedding(wm, 2)
        assert emb.shape == (24, 2)
        np.testing.assert_allclose(emb.T @ indicators, 0.0, atol=1e-8)
        np.testing.assert_allclose(emb.T @ emb, 24.0 * np.eye(2), atol=1e-8)

    def test_too_few_vectors_above_the_null_space(self):
        # two far pairs with k = 1: a two-dimensional null space leaves two
        # eigenvectors, fewer than three
        pts = np.array([[0.0], [1.0], [50.0], [51.0]])
        wm = reconstruction_weights(pts, 1)
        assert lle_embedding(wm, 2).shape == (4, 2)
        with pytest.raises(ValueError, match="null space"):
            lle_embedding(wm, 3)


class TestPropagate:
    def test_unanimous_neighbors(self):
        indices = np.array([[1, 2], [0, 2], [0, 1]])
        weights = np.full((3, 2), 0.5)
        labels = propagate(WeightMatrix(indices, weights), {1: 1, 2: 1}, 2)
        np.testing.assert_allclose(labels[0], [0.0, 1.0], atol=1e-8)

    def test_three_node_path_balances(self):
        indices = np.array([[1, 2], [0, 2], [0, 1]])
        weights = np.full((3, 2), 0.5)
        labels = propagate(WeightMatrix(indices, weights), {0: 0, 2: 1}, 2)
        np.testing.assert_allclose(labels[1], [0.5, 0.5], atol=1e-8)

    def test_chain_matches_harmonic_oracle(self):
        wm = chain_weights(10)
        initial = {0: 0, 9: 1}
        iterated = harmonic_iterate(wm.indices, wm.weights, initial, 2, max_iters=100000)
        direct = propagate(wm, initial, 2)
        np.testing.assert_allclose(iterated, direct, atol=1e-8)

    def test_closed_unlabeled_class(self):
        """Rows 5-7 link only among themselves, so no label reaches them and
        they stay exactly zero; rows 2-4 leak weight into that class, so
        their label mass is below one."""
        indices = np.array(
            [[1, 2], [0, 3], [0, 5], [1, 6], [2, 3], [6, 7], [5, 7], [5, 6]]
        )
        weights = np.array(
            [[0.5, 0.5], [0.5, 0.5], [0.6, 0.4], [0.7, 0.3],
             [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]
        )
        initial = {0: 0, 1: 1}
        labels = propagate(WeightMatrix(indices, weights), initial, 2)
        assert not labels[5:].any()
        assert (labels[2:5].sum(axis=1) < 0.9).all()
        oracle = harmonic_iterate(indices, weights, initial, 2)
        np.testing.assert_allclose(labels, oracle, atol=1e-8)

    def test_labeled_rows_clamped(self):
        wm = chain_weights(6)
        initial = {0: 1, 5: 0}
        labels = propagate(wm, initial, 2)
        np.testing.assert_array_equal(labels[0], [0.0, 1.0])
        np.testing.assert_array_equal(labels[5], [1.0, 0.0])

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(5)
        n, k = 20, 3
        indices = np.array(
            [rng.choice([j for j in range(n) if j != i], size=k, replace=False) for i in range(n)]
        )
        weights = rng.uniform(0.1, 1.0, (n, k))
        weights /= weights.sum(axis=1, keepdims=True)
        wm = WeightMatrix(indices, weights)
        initial = {0: 0, 1: 1}
        tol = 1e-9
        labels = propagate(wm, initial, 2, tol=tol)
        for i in range(n):
            if i in initial:
                continue
            recon = sum(weights[i, j] * labels[int(indices[i, j])] for j in range(k))
            assert np.abs(labels[i] - recon).max() < 10 * tol

    def test_signed_rows_are_rejected(self):
        """Weights that could make propagation diverge never reach it: a
        signed row or one not summing to one is rejected on construction."""
        indices = np.array([[1, 2], [0, 2], [0, 1]])
        with pytest.raises(ValueError, match="nonnegative"):
            WeightMatrix(indices, np.array([[3.0, -2.0], [0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="sum to one"):
            WeightMatrix(indices, np.array([[0.5, 0.4], [0.5, 0.5], [0.5, 0.5]]))

    def test_all_labeled_is_identity(self):
        wm = chain_weights(4)
        labels = propagate(wm, {0: 0, 1: 1, 2: 0, 3: 1}, 2)
        np.testing.assert_array_equal(labels, np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float))


class TestPredict:
    def test_all_points_labeled(self):
        pts = np.random.default_rng(7).standard_normal((6, 2))
        initial = {i: i % 2 for i in range(6)}
        classes, soft = predict(pts, initial, 2, k=2)
        assert classes.tolist() == [0, 1, 0, 1, 0, 1]
        np.testing.assert_array_equal(soft.sum(axis=1), np.ones(6))

    def test_separated_blobs_zero_errors(self):
        sample = gen_manifold("blobs", 60, noise=1.0, seed=8)
        i0 = int(np.flatnonzero(sample.classes == 0)[0])
        i1 = int(np.flatnonzero(sample.classes == 1)[0])
        classes, _ = predict(sample.points, {i0: 0, i1: 1}, 2, k=5)
        assert (classes != sample.classes).sum() == 0

    def test_invariant_under_translation_and_scale(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((30, 3))
        initial = {0: 0, 1: 1, 2: 0, 3: 1}
        base, _ = predict(pts, initial, 2, k=4)
        shifted, _ = predict(pts + 13.7, initial, 2, k=4)
        scaled, _ = predict(pts * 0.031, initial, 2, k=4)
        np.testing.assert_array_equal(base, shifted)
        np.testing.assert_array_equal(base, scaled)

    def test_deterministic_given_seed(self):
        sample = gen_manifold("two_moons", 60, noise=0.08, seed=10)
        initial = {0: 0, 40: 1}
        first = predict(sample.points, initial, 2, k=6, metric="geodesic")
        second = predict(sample.points, initial, 2, k=6, metric="geodesic")
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_tally_counts_the_weight_rows(self):
        """Rows 0 and 1 coincide, so each needs a fallback ridge (as in
        ``test_fallback_ridge_only_for_coincident_neighbors``)."""
        cloud = np.random.default_rng(13).uniform(0.0, 1.0, (12, 2)) + 10.0
        pts = np.vstack([[[0.0, 0.0], [0.0, 0.0]], cloud])
        tally = Counter()
        predict(pts, {0: 0, 5: 1}, 2, k=2, tally=tally)
        assert 0.0 <= tally.pop("propagate_residual") <= 1e-9
        assert tally == {"fallback_rows": 2, "unsettled_rows": 0}

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            predict(np.zeros((5, 2)), {0: 0}, 1, k=2, metric="hyperbolic")


@pytest.fixture(scope="module")
def moons():
    return gen_manifold("two_moons", 60, noise=0.08, seed=11)


class TestSensitivitySweep:
    def test_all_labeled_gives_zero_errors(self, moons):
        rows = sensitivity_sweep(moons.points, moons.classes, [60], [3, 5], runs=2, seed=0)
        assert rows and all(r.errors == 0 for r in rows)

    def test_deterministic(self, moons):
        kwargs = dict(label_counts=[4, 8], k_range=[3, 7], runs=3, seed=4)
        first = sensitivity_sweep(moons.points, moons.classes, **kwargs)
        second = sensitivity_sweep(moons.points, moons.classes, **kwargs)
        assert first == second

    def test_row_schema_and_counts(self, moons):
        rows = sensitivity_sweep(moons.points, moons.classes, [4], [2, 3], runs=2, seed=1)
        assert len(rows) == 2 * 2 * 2
        med = sweep_medians(rows)
        assert set(med) == {
            ("euclidean", 4, 2), ("euclidean", 4, 3),
            ("geodesic", 4, 2), ("geodesic", 4, 3),
        }

    def test_budget_below_class_count_rejected(self, moons):
        """A budget of one label for two classes draws no label at all."""
        with pytest.raises(ValueError, match="draw no labels"):
            sensitivity_sweep(moons.points, moons.classes, [1, 4], [3], runs=1)

    def test_budget_off_a_multiple_of_the_class_count_draws_in_full(self):
        """The remainder goes one label each to the first classes in index
        order: 5 labels for 2 classes draw 5, and 8 for 3 draw 8; a class
        gives no more labels than it has members."""
        cases = (
            (np.arange(20) % 2, 5, [3, 2]),
            (np.arange(20) % 3, 8, [3, 3, 2]),
            (np.array([0] + [1] * 10), 5, [1, 2]),
        )
        for truth, budget, per_class in cases:
            drawn = lnp._draw_balanced_labels(
                truth, budget, len(per_class), np.random.default_rng(0)
            )
            assert all(truth[i] == c for i, c in drawn.items())
            assert np.bincount(list(drawn.values())).tolist() == per_class

    def test_geodesic_helps_at_larger_k(self, moons):
        """Lighter version of the acceptance protocol: for some k in the
        upper half of the sweep the geodesic variant does no worse."""
        ks = range(8, 16)
        rows = sensitivity_sweep(
            moons.points, moons.classes, [8], ks, runs=8, seed=2
        )
        med = sweep_medians(rows)
        assert any(
            med[("geodesic", 8, k)][0] <= med[("euclidean", 8, k)][0] for k in ks
        )


class TestEvaluateFixture:
    def test_identical(self):
        assert evaluate_fixture({"CA": "blue"}, {"CA": "blue"}) == (0, [])

    def test_all_flipped(self):
        predictions = {"CA": "red", "NY": "red"}
        truth = {"CA": "blue", "NY": "blue"}
        assert evaluate_fixture(predictions, truth) == (2, ["CA", "NY"])

    def test_entity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_fixture({"CA": "blue"}, {"NY": "blue"})
