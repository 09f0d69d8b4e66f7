import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_alloc import (AllocationConfig, allocate, correlation_distance, permute_matrix,
                         seriate, unpermute_weights)
from schur_alloc.errors import DimensionMismatch, InputError, ZeroVariance
from schur_alloc.seriation import Permutation, _single_linkage_order, permute_vector

from conftest import equicorrelated, random_pd


def _reference_correlation_distance(cov: np.ndarray) -> np.ndarray:
    """correlation_distance with a fresh array per step (the in-place version's oracle)."""
    vol = np.sqrt(np.diag(cov))
    corr = np.clip(cov / np.outer(vol, vol), -1.0, 1.0)
    dist = np.sqrt(np.maximum(0.5 * (1.0 - corr), 0.0))
    np.fill_diagonal(dist, 0.0)
    return dist


def _reference_single_linkage_order(dist: np.ndarray) -> list[int]:
    """Single-linkage leaf order by merging one closest cluster pair at a time.

    The cubic routine `_single_linkage_order` replaced, kept as its oracle.
    Merge selection is by minimum linkage distance with exact ties broken by
    the lexicographically smallest pair of cluster ids, where a cluster's id
    is its smallest original index. Within a merge the child with the smaller
    (total-distance-mass, id) key is placed first.
    """
    n = dist.shape[0]
    rowmass = dist.sum(axis=1)

    leaves = [[i] for i in range(n)]           # leaf lists per live cluster
    ids = list(range(n))                       # smallest original index per cluster
    keys = [(rowmass[i], i) for i in range(n)]  # ordering key per cluster
    link = dist.copy()
    np.fill_diagonal(link, np.inf)
    alive = list(range(n))

    while len(alive) > 1:
        rows = np.asarray(alive)
        sub = link[np.ix_(rows, rows)]
        d_min = sub.min()
        tie_i, tie_j = np.nonzero(sub == d_min)
        best = None
        for ti, tj in zip(tie_i.tolist(), tie_j.tolist()):
            if ti >= tj:
                continue
            i, j = alive[ti], alive[tj]
            pair_ids = (min(ids[i], ids[j]), max(ids[i], ids[j]))
            if best is None or pair_ids < best[0]:
                best = (pair_ids, (i, j))
        i, j = best[1]
        first, second = (i, j) if keys[i] <= keys[j] else (j, i)
        leaves[i] = leaves[first] + leaves[second]
        ids[i] = min(ids[i], ids[j])
        keys[i] = min(keys[i], keys[j])
        merged_link = np.minimum(link[i], link[j])
        link[i] = merged_link
        link[:, i] = merged_link
        link[i, i] = np.inf
        alive.remove(j)

    return leaves[alive[0]]


SERIATION_KINDS = ("random_pd", "equicorrelated", "block_constant", "integer_factors",
                   "duplicated")


def seriation_input(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A covariance of one kind; all but random_pd have many exactly tied distances."""
    if kind == "random_pd":
        return random_pd(rng, n)
    if kind == "equicorrelated":
        return equicorrelated(n, float(rng.choice([0.0, 0.3, 0.7])))
    if kind == "block_constant":
        label = rng.integers(0, int(rng.integers(1, 5)), n)
        cov = np.where(label[:, None] == label[None, :], 0.6, 0.2)
        np.fill_diagonal(cov, 1.0)
        return cov
    if kind == "integer_factors":
        loadings = rng.integers(-2, 3, (n, int(rng.integers(1, 4)))).astype(float)
        return loadings @ loadings.T + np.eye(n)
    # exactly duplicated or negated copies of asset 0 in a random PD matrix
    mix = np.eye(n)
    for row in rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False):
        mix[row] = 0.0
        mix[row, 0] = rng.choice([-1.0, 1.0])
    return mix @ random_pd(rng, n) @ mix.T


def skew_upper(cov: np.ndarray, rng: np.random.Generator, rel: float = 1e-13) -> np.ndarray:
    """`cov` with its upper triangle scaled by 1 +- rel: still accepted as symmetric,
    but no longer bitwise so."""
    upper = np.triu(np.ones(cov.shape, dtype=bool), 1)
    return np.where(upper, cov * (1.0 + rel * rng.choice([-1.0, 1.0], cov.shape)), cov)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def two_block_interleaved(n_per_block: int = 3, within: float = 0.8) -> np.ndarray:
    """Two correlation blocks, zero across, with members interleaved."""
    n = 2 * n_per_block
    cov = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i != j and i % 2 == j % 2:
                cov[i, j] = within
    return cov


class TestCorrelationDistance:
    def test_one_square_buffer(self):
        cov = random_pd(np.random.default_rng(14), 1000)
        assert traced_peak(correlation_distance, cov) <= cov.nbytes + 2 ** 20

    def test_perfect_correlation(self):
        dist = correlation_distance(np.ones((2, 2)))
        assert dist[0, 1] == pytest.approx(0.0)

    def test_perfect_anticorrelation(self):
        cov = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert correlation_distance(cov)[0, 1] == pytest.approx(1.0)

    def test_zero_correlation(self):
        assert correlation_distance(np.eye(2))[0, 1] == pytest.approx(np.sqrt(0.5))

    def test_variance_scaling_ignored(self):
        rng = np.random.default_rng(0)
        cov = random_pd(rng, 5)
        scale = np.diag(rng.uniform(0.5, 4.0, size=5))
        np.testing.assert_allclose(
            correlation_distance(scale @ cov @ scale), correlation_distance(cov),
            atol=1e-12,
        )

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVariance):
            correlation_distance(np.diag([1.0, 0.0]))

    def test_bitwise_equal_to_stepwise_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            vol = 10.0 ** rng.uniform(-6.0, 6.0, n)
            cov = random_pd(rng, n, ridge=float(rng.choice([1e-3, 1.0]))) * np.outer(vol, vol)
            np.testing.assert_array_equal(correlation_distance(cov),
                                          _reference_correlation_distance(cov))

    def test_asymmetric_last_bits_read_as_the_smaller_distance(self):
        skewed = skew_upper(random_pd(np.random.default_rng(12), 8), np.random.default_rng(13))
        assert not np.array_equal(skewed, skewed.T)
        dist = correlation_distance(skewed)
        each_way = _reference_correlation_distance(skewed)
        np.testing.assert_array_equal(dist, np.minimum(each_way, each_way.T))


class TestSeriate:
    def test_single_asset(self):
        assert seriate(np.eye(1)).order == (0,)

    def test_equicorrelated_ties_to_identity(self):
        perm = seriate(equicorrelated(5, 0.4))
        assert perm.order == (0, 1, 2, 3, 4)

    def test_two_block_becomes_contiguous(self):
        cov = two_block_interleaved()
        dist = correlation_distance(cov)
        # oracle: every within-block distance is strictly below every
        # across-block distance, so single linkage must keep blocks together
        within = [dist[i, j] for i in range(6) for j in range(6)
                  if i < j and i % 2 == j % 2]
        across = [dist[i, j] for i in range(6) for j in range(6)
                  if i < j and i % 2 != j % 2]
        assert max(within) < min(across)
        order = seriate(cov).order
        parities = [idx % 2 for idx in order]
        assert parities in ([0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0])

    def test_identity_method(self):
        rng = np.random.default_rng(1)
        perm = seriate(random_pd(rng, 6), method="identity")
        assert perm.order == tuple(range(6))

    def test_unknown_method(self):
        with pytest.raises(InputError):
            seriate(np.eye(2), method="spectral")

    def test_equivariant_under_relabeling(self):
        # with distinct pairwise distances the leaf order tracks the assets
        rng = np.random.default_rng(2)
        cov = random_pd(rng, 7)
        base = seriate(cov).order
        for _ in range(5):
            p = Permutation(tuple(rng.permutation(7).tolist()))
            relabeled = seriate(permute_matrix(cov, p)).order
            # position i of the relabeled matrix is original asset p.order[i]
            assert tuple(p.order[i] for i in relabeled) == base


class TestSingleLinkageOracle:
    @given(st.sampled_from(SERIATION_KINDS), st.integers(min_value=3, max_value=80),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_same_order_as_pairwise_merging(self, kind, n, seed):
        dist = correlation_distance(seriation_input(kind, n, np.random.default_rng(seed)))
        assert _single_linkage_order(dist) == _reference_single_linkage_order(dist)

    @pytest.mark.parametrize("kind", SERIATION_KINDS)
    def test_every_kind_at_n_40(self, kind):
        dist = correlation_distance(seriation_input(kind, 40, np.random.default_rng(17)))
        assert _single_linkage_order(dist) == _reference_single_linkage_order(dist)

    def test_fixed_seed_n_300(self):
        rng = np.random.default_rng(300)
        loadings = rng.normal(0.0, 0.25, (300, 10))
        samples = rng.standard_normal((900, 10)) @ loadings.T + rng.standard_normal((900, 300))
        dist = correlation_distance(np.cov(samples.T))
        assert _single_linkage_order(dist) == _reference_single_linkage_order(dist)

    def test_asymmetric_last_bits_three_assets(self):
        # d02 = 0.3 merges first; d12 and d21 then differ in their last bits
        cov = np.array([[1.0, -0.62, 0.82], [-0.62, 1.0, -0.3], [0.82, -0.3, 1.0]])
        cov[2, 1] *= 1.0 + 1e-13
        order = seriate(cov).order
        assert order == tuple(_reference_single_linkage_order(correlation_distance(cov)))
        assert order == seriate((cov + cov.T) / 2).order

    def test_asymmetric_last_bits_through_allocate(self):
        rng = np.random.default_rng(14)
        cov = random_pd(rng, 60)
        skewed = skew_upper(cov, rng)
        order = seriate(skewed).order
        assert order == tuple(_reference_single_linkage_order(correlation_distance(skewed)))
        assert order == seriate(cov).order
        report = allocate(skewed, AllocationConfig(gammas=1.0))
        assert report.order.order == order
        assert report.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ["random_pd", "equicorrelated"])
    def test_traced_peak_memory_bounded(self, kind):
        # the pairwise routine's copy of the link matrix and its slices peak near
        # 31 MB; the ordering step itself holds O(n), exactly tied distances included
        cov = seriation_input(kind, 1000, np.random.default_rng(9))
        assert traced_peak(seriate, cov) <= 20 * 2**20
        assert traced_peak(_single_linkage_order, correlation_distance(cov)) <= 2**20


class TestApplyPermutation:
    def test_identity_unchanged(self):
        rng = np.random.default_rng(3)
        cov = random_pd(rng, 4)
        perm = Permutation((0, 1, 2, 3))
        np.testing.assert_array_equal(permute_matrix(cov, perm), cov)

    def test_swap_is_involution(self):
        rng = np.random.default_rng(4)
        cov = random_pd(rng, 3)
        swap = Permutation((1, 0, 2))
        np.testing.assert_array_equal(permute_matrix(permute_matrix(cov, swap), swap), cov)

    def test_diagonal_transport(self):
        rng = np.random.default_rng(5)
        cov = random_pd(rng, 6)
        perm = Permutation(tuple(rng.permutation(6).tolist()))
        np.testing.assert_array_equal(
            np.diag(permute_matrix(cov, perm)), np.diag(cov)[np.asarray(perm.order)]
        )

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(6)
        cov = random_pd(rng, 6)
        perm = Permutation(tuple(rng.permutation(6).tolist()))
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(permute_matrix(cov, perm))),
            np.sort(np.linalg.eigvalsh(cov)),
            atol=1e-10,
        )

    def test_weights_round_trip(self):
        rng = np.random.default_rng(7)
        perm = Permutation(tuple(rng.permutation(5).tolist()))
        w = rng.standard_normal(5)
        np.testing.assert_array_equal(unpermute_weights(permute_vector(w, perm), perm), w)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            permute_matrix(np.eye(3), Permutation((0, 1)))

    def test_invalid_permutation(self):
        with pytest.raises(InputError):
            Permutation((0, 0, 1))


class TestOffDiagonalMassReduction:
    def test_two_block_b_norm_shrinks(self):
        cov = two_block_interleaved()
        order = np.asarray(seriate(cov).order)
        ordered = cov[np.ix_(order, order)]
        k = 3
        assert np.linalg.norm(ordered[:k, k:]) <= np.linalg.norm(cov[:k, k:])
