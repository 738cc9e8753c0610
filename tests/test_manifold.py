import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.stats import spearmanr

from relop import manifold
from relop.lnp import lle_embedding, reconstruction_weights, select_k, unfold
from relop.manifold import (
    classical_mds,
    geodesic_distances,
    knn_sets,
    neighborhood_preservation,
    pairwise_euclidean,
    pne,
    smacof_mds,
    stress_measure,
)
from relop.synth import gen_manifold, procrustes_residual


class TestPairwiseEuclidean:
    def test_identical_points(self):
        d = pairwise_euclidean(np.zeros((4, 3)))
        np.testing.assert_array_equal(d, np.zeros((4, 4)))

    def test_one_dimensional(self):
        d = pairwise_euclidean(np.array([[0.0], [3.0]]))
        assert d[0, 1] == 3.0 and d[1, 0] == 3.0

    def test_against_naive_double_loop(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((25, 4))
        d = pairwise_euclidean(pts)
        for i in range(25):
            for j in range(25):
                want = np.sqrt(np.sum((pts[i] - pts[j]) ** 2))
                assert d[i, j] == pytest.approx(want, abs=1e-12)

    def test_symmetry_and_zero_diagonal(self):
        pts = np.random.default_rng(1).standard_normal((30, 5))
        d = pairwise_euclidean(pts)
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), np.zeros(30))

    @pytest.mark.parametrize("m", [1, 2, 8, 9, 23, 50])
    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    def test_bit_identical_to_cdist(self, m, scale):
        """cdist adds the squared differences one coordinate at a time; a
        pairwise sum over the coordinates differs in the last bits from
        m = 8 on. Both memory layouts of the input give cdist's bits."""
        for seed in range(10):
            pts = np.random.default_rng(seed).standard_normal((30, m)) * scale
            want = cdist(pts, pts)
            assert np.array_equal(pairwise_euclidean(pts), want)
            assert np.array_equal(pairwise_euclidean(np.asfortranarray(pts)), want)

    def test_row_blocks_give_the_same_bits(self, monkeypatch):
        """Blocks of 7 rows, the last one short, as a cloud too large for
        one block is split."""
        pts = np.random.default_rng(3).standard_normal((40, 9))
        monkeypatch.setattr(manifold, "_BLOCK", 7 * 9 * 40)
        assert np.array_equal(pairwise_euclidean(pts), cdist(pts, pts))

    def test_import_loads_no_scipy(self):
        """The package runs on numpy alone; scipy is only the tests' oracle."""
        src = str(Path(manifold.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        code = (
            "import sys, relop, relop.pipeline\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestGeodesic:
    def test_chain_additivity(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        geo = geodesic_distances(pts)
        assert geo[0, 3] == pytest.approx(3.0)

    def test_triangle_equals_euclidean(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
        np.testing.assert_allclose(geodesic_distances(pts), pairwise_euclidean(pts), atol=1e-12)

    def test_geodesic_dominates_euclidean(self):
        sample = gen_manifold("swiss_roll", 150, noise=0.0, seed=2)
        geo = geodesic_distances(sample.points)
        euc = pairwise_euclidean(sample.points)
        assert np.all(geo >= euc - 1e-9)
        np.testing.assert_allclose(geo, geo.T, atol=1e-12)

    def test_matches_scipy_shortest_path(self):
        """Dual-route check: Floyd–Warshall versus scipy's Dijkstra."""
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 3))
        geo, m = geodesic_distances(pts, return_neighbor_size=True)
        euc = pairwise_euclidean(pts)
        masked = euc.copy()
        np.fill_diagonal(masked, np.inf)
        order = np.argsort(masked, axis=1, kind="stable")
        adjacency = np.zeros_like(euc)
        for i in range(40):
            for j in order[i, :m]:
                adjacency[i, j] = adjacency[j, i] = euc[i, j]
        want = shortest_path(adjacency, method="D", directed=False)
        np.testing.assert_allclose(geo, want, atol=1e-10)

    def test_noisy_moons_neighbor_size_and_paths_match_scipy(self):
        """A noisy 500-point two-moons cloud needs m = 20: m is the smallest
        neighbor count whose symmetrized m-NN graph scipy finds connected, and
        the distances are scipy's shortest paths over that graph."""
        pts = gen_manifold("two_moons", 500, noise=0.05, seed=1).points
        geo, m = geodesic_distances(pts, return_neighbor_size=True)
        euc = pairwise_euclidean(pts)
        masked = euc.copy()
        np.fill_diagonal(masked, np.inf)
        order = np.argsort(masked, axis=1, kind="stable")
        rows = np.arange(500)[:, None]

        def graph(size):
            adjacency = np.zeros_like(euc)
            adjacency[rows, order[:, :size]] = euc[rows, order[:, :size]]
            return np.maximum(adjacency, adjacency.T)

        components = [connected_components(graph(size), directed=False)[0] for size in range(2, 22)]
        connected = [count == 1 for count in components]
        assert m == 2 + connected.index(True) == 20
        want = shortest_path(graph(m), method="D", directed=False)
        np.testing.assert_allclose(geo, want, atol=1e-10)

    def test_minimum_connected_neighborhood(self):
        # two tight pairs far apart: m=2 already bridges them via symmetrization
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        _, m = geodesic_distances(pts, return_neighbor_size=True)
        assert m == 2

    def test_two_points(self):
        geo, m = geodesic_distances(np.array([[0.0, 0.0], [3.0, 4.0]]), return_neighbor_size=True)
        np.testing.assert_array_equal(geo, [[0.0, 5.0], [5.0, 0.0]])
        assert m == 1

    def test_coincident_points(self):
        geo, m = geodesic_distances(np.zeros((5, 2)), return_neighbor_size=True)
        np.testing.assert_array_equal(geo, np.zeros((5, 5)))
        assert m == 2
        # two coincident pairs and an outlier; zero-length edges are still edges
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        geo, m = geodesic_distances(pts, return_neighbor_size=True)
        assert m == 2
        r2 = np.sqrt(2.0)
        want = np.array(
            [
                [0.0, 0.0, r2, r2, 5.0 * r2],
                [0.0, 0.0, r2, r2, 5.0 * r2],
                [r2, r2, 0.0, 0.0, 4.0 * r2],
                [r2, r2, 0.0, 0.0, 4.0 * r2],
                [5.0 * r2, 5.0 * r2, 4.0 * r2, 4.0 * r2, 0.0],
            ]
        )
        np.testing.assert_allclose(geo, want, rtol=1e-15)

    def test_swiss_roll_spearman_advantage(self):
        sample = gen_manifold("swiss_roll", 200, noise=0.0, seed=4)
        intrinsic = pairwise_euclidean(sample.intrinsic)
        geo = geodesic_distances(sample.points)
        euc = pairwise_euclidean(sample.points)
        iu = np.triu_indices(200, 1)
        r_geo = spearmanr(geo[iu], intrinsic[iu]).statistic
        r_euc = spearmanr(euc[iu], intrinsic[iu]).statistic
        assert r_geo > r_euc + 0.05


class TestClassicalMds:
    def test_equilateral_triangle(self):
        d = np.ones((3, 3)) - np.eye(3)
        coords = classical_mds(d, 2)
        np.testing.assert_allclose(pairwise_euclidean(coords), d, atol=1e-10)

    def test_recovers_planar_configuration(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((30, 2)) * 2.0
        coords = classical_mds(pairwise_euclidean(pts), 2)
        assert procrustes_residual(coords, pts) < 1e-8

    def test_dim1_square_is_top_eigenpair(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        d = pairwise_euclidean(pts)
        coords = classical_mds(d, 1)
        n = 4
        center = np.eye(n) - np.full((n, n), 1.0 / n)
        b = -0.5 * center @ (d * d) @ center
        top = np.linalg.eigvalsh(b).max()
        assert np.var(coords[:, 0]) == pytest.approx(top / n, rel=1e-9)

    def test_returns_only_the_positive_axes(self):
        """Collinear points have one positive eigenvalue, so asking for two
        axes gives one, with no warning."""
        d = pairwise_euclidean(np.array([[0.0], [1.0], [2.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coords = classical_mds(d, 2)
        assert coords.shape == (3, 1)
        np.testing.assert_allclose(pairwise_euclidean(coords), d, atol=1e-12)
        assert classical_mds(np.zeros((4, 4)), 2).shape == (4, 0)

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((12, 3))
        d = pairwise_euclidean(pts)
        c1 = classical_mds(d, 3)
        c2 = classical_mds(d.copy(), 3)
        np.testing.assert_array_equal(c1, c2)
        for axis in range(3):
            col = c1[:, axis]
            assert col[np.argmax(np.abs(col))] >= 0.0

    def test_validates_input(self):
        with pytest.raises(ValueError):
            classical_mds(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)
        with pytest.raises(ValueError):
            classical_mds(np.zeros((3, 3)), 3)


class TestSmacof:
    def test_exact_init_converges_immediately(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((15, 3))
        d = pairwise_euclidean(pts)
        coords, history, _ = smacof_mds(d, 3, rng, init=pts)
        assert history[0] == pytest.approx(0.0, abs=1e-18)
        assert len(history) <= 2
        assert procrustes_residual(coords, pts) < 1e-9

    def test_stress_monotone_on_random_seeds(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((20, 3))
        d = pairwise_euclidean(pts)
        for seed in range(10):
            _, history, _ = smacof_mds(d, 3, np.random.default_rng(seed))
            assert np.all(np.diff(history) <= 0.0)

    def test_matches_classical_on_euclidean_input(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((25, 2))
        d = pairwise_euclidean(pts)
        classical = classical_mds(d, 2)
        coords, _, _ = smacof_mds(d, 2, np.random.default_rng(1), iters=2000, tol=1e-14)
        assert procrustes_residual(coords, classical) < 1e-6

    def test_all_zero_distances_stop_at_tol(self):
        """Σd² is 0 here; its floor still ends the run at the first step."""
        coords, history, stop = smacof_mds(np.zeros((5, 5)), 2, None, init=np.zeros((5, 2)))
        assert stop == "tol" and len(history) == 2
        np.testing.assert_array_equal(coords, np.zeros((5, 2)))

    @staticmethod
    def reference_loop(dist, dim, rng, iters, tol):
        """Stress majorization written plainly: every configuration's
        distances are computed twice, once for its stress and once for the
        next update, and iteration stops at a step that improves the stress
        by less than tol times Σ_{i<j} dist_ij² (Kruskal's scale)."""

        def raw_stress(coords):
            delta = dist - cdist(coords, coords)
            return float(np.sum(np.triu(delta, 1) ** 2))

        scale = float(np.sum(np.triu(dist, 1) ** 2))
        n = dist.shape[0]
        coords = rng.standard_normal((n, dim)) * ((float(dist.max()) or 1.0) / 4.0)
        history = [raw_stress(coords)]
        for _ in range(iters):
            d_now = cdist(coords, coords)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(d_now > 0.0, dist / d_now, 0.0)
            b = -ratio
            np.fill_diagonal(b, 0.0)
            np.fill_diagonal(b, -b.sum(axis=1))
            new_coords = (b @ coords) / n
            stress = raw_stress(new_coords)
            if stress > history[-1]:
                break
            coords = new_coords
            improvement = history[-1] - stress
            history.append(stress)
            if improvement < tol * scale:
                break
        return coords, np.array(history)

    @pytest.mark.parametrize(
        "n, dim, seed, iters, tol",
        [(15, 3, 0, 500, 1e-9), (20, 2, 1, 40, 1e-9), (12, 3, 2, 500, 1e-4)],
    )
    def test_one_distance_matrix_per_configuration(self, monkeypatch, n, dim, seed, iters, tol):
        pts = np.random.default_rng(seed).standard_normal((n, 3))
        dist = geodesic_distances(pts)
        calls = []

        distances = manifold._distances

        def counted(*args, **kwargs):
            calls.append(1)
            return distances(*args, **kwargs)

        monkeypatch.setattr(manifold, "_distances", counted)
        coords, history, _ = smacof_mds(dist, dim, np.random.default_rng(seed), iters, tol)
        monkeypatch.undo()
        assert len(calls) == len(history)
        ref_coords, ref_history = self.reference_loop(
            dist, dim, np.random.default_rng(seed), iters, tol
        )
        np.testing.assert_array_equal(coords, ref_coords)
        np.testing.assert_array_equal(history, ref_history)


class TestQualityMeasures:
    def test_np_identical_spaces(self):
        d = pairwise_euclidean(np.random.default_rng(0).standard_normal((12, 3)))
        assert neighborhood_preservation(d, d, 4) == 1.0

    def test_np_full_neighborhood_is_one(self):
        rng = np.random.default_rng(1)
        d1 = pairwise_euclidean(rng.standard_normal((10, 3)))
        d2 = pairwise_euclidean(rng.standard_normal((10, 3)))
        assert neighborhood_preservation(d1, d2, 9) == 1.0

    def test_np_against_brute_force(self):
        line = np.arange(8.0).reshape(-1, 1)
        reversed_line = line[::-1].copy()
        d1 = pairwise_euclidean(line)
        d2 = pairwise_euclidean(reversed_line)
        k = 3
        total = 0.0
        for i in range(8):
            orig = set(np.argsort(np.where(np.eye(8)[i] == 1, np.inf, d1[i]), kind="stable")[:k])
            emb = set(np.argsort(np.where(np.eye(8)[i] == 1, np.inf, d2[i]), kind="stable")[:k])
            total += len(orig & emb) / k
        assert neighborhood_preservation(d1, d2, k) == pytest.approx(total / 8)

    def test_stress_zero_and_quarter(self):
        d = pairwise_euclidean(np.random.default_rng(2).standard_normal((9, 2)))
        assert stress_measure(d, d) == 0.0
        assert stress_measure(d, 2.0 * d) == pytest.approx(0.25)

    def test_stress_against_brute_force(self):
        rng = np.random.default_rng(3)
        a = pairwise_euclidean(rng.standard_normal((7, 2)))
        b = pairwise_euclidean(rng.standard_normal((7, 2)))
        want = sum(
            (a[i, j] - b[i, j]) ** 2 for i in range(7) for j in range(7)
        ) / sum(b[i, j] ** 2 for i in range(7) for j in range(7))
        assert stress_measure(a, b) == pytest.approx(want, rel=1e-12)

    def test_stress_rejects_zero_embedding(self):
        with pytest.raises(ValueError):
            stress_measure(np.ones((3, 3)), np.zeros((3, 3)))

    def test_pne_zero_when_equal(self):
        d = pairwise_euclidean(np.random.default_rng(4).standard_normal((10, 3)))
        assert pne(d, d, 3) == 0.0

    def test_pne_single_discrepant_pair(self):
        # 4 collinear points; embedding stretches only the (0,1) gap
        orig = np.array([[0.0], [1.0], [4.0], [9.0]])
        embed = orig.copy()
        embed[0, 0] = -0.5  # d(0,1): 1.0 -> 1.5
        d_o = pairwise_euclidean(orig)
        d_e = pairwise_euclidean(embed)
        k = 1
        # neighbor sets identical (nearest neighbors unchanged); by hand the
        # contribution is |1-1.5|^2 from each of: 0's kNN, 1's kNN, both spaces
        sq = (d_o - d_e) ** 2
        expected = 0.0
        for i in range(4):
            nn_o = int(np.argsort(np.where(np.eye(4)[i] == 1, np.inf, d_o[i]), kind="stable")[0])
            nn_e = int(np.argsort(np.where(np.eye(4)[i] == 1, np.inf, d_e[i]), kind="stable")[0])
            expected += sq[i, nn_o] + sq[i, nn_e]
        expected /= 2 * 4
        assert pne(d_o, d_e, k) == pytest.approx(expected, rel=1e-12)

    def test_pne_symmetric_when_neighborhoods_coincide(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((9, 2))
        d = pairwise_euclidean(pts)
        scaled = 1.3 * d  # same neighbor sets in both spaces
        assert pne(d, scaled, 3) == pytest.approx(pne(scaled, d, 3), rel=1e-12)

    def test_knn_tie_break_by_index(self):
        d = np.array(
            [
                [0.0, 1.0, 1.0, 2.0],
                [1.0, 0.0, 1.0, 1.0],
                [1.0, 1.0, 0.0, 1.0],
                [2.0, 1.0, 1.0, 0.0],
            ]
        )
        np.testing.assert_array_equal(knn_sets(d, 2)[0], [1, 2])


class TestSelectK:
    """``lnp.select_k``: one deterministic unfolding, and each k judged by
    the LLE embedding of its own weights on the unfolded cloud."""

    @staticmethod
    def cloud(seed=7, n=15):
        return np.random.default_rng(seed).standard_normal((n, 3))

    def test_constant_pne_picks_smallest(self, monkeypatch):
        # PNE identically zero for every k -> tie broken by smallest k
        monkeypatch.setattr(manifold, "pne", lambda d_orig, d_embed, k: 0.0)
        k_star, rows = select_k(self.cloud(6, 12), range(3, 8))
        assert k_star == 3
        assert len(rows) == 5

    def test_matches_exhaustive_scan(self):
        k_star, rows = select_k(self.cloud(), range(2, 9))
        assert [row["k"] for row in rows] == list(range(2, 9))
        assert k_star == min(rows, key=lambda row: (row["pne"], row["k"]))["k"]

    def test_rows_carry_np_and_st(self):
        pts = self.cloud(10)
        _, rows = select_k(pts, range(2, 6))
        # the cloud's one unfolding, then each k's weights, then LLE
        unfolded, _, _ = unfold(pts)
        d_o = pairwise_euclidean(pts)
        for row in rows:
            k = row["k"]
            wm = reconstruction_weights(unfolded, k)
            d_e = pairwise_euclidean(lle_embedding(wm, 2))
            assert row["np"] == neighborhood_preservation(d_o, d_e, k)
            assert row["st"] == stress_measure(d_o, d_e)
            assert row["pne"] == pne(d_o, d_e, k)
        assert len(rows) == 4

    def test_deterministic(self):
        pts = self.cloud(8, 10)
        first = select_k(pts, range(2, 6))
        second = select_k(pts, range(2, 6))
        assert first == second
