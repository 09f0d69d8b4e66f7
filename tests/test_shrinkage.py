import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schur_alloc import long_only_clip, scale_off_diagonal, shrinkage, weak_shrink
from schur_alloc._linalg import DEFAULT_RCOND, symmetrize
from schur_alloc.covmat import cov_values
from schur_alloc.errors import (
    AllNonPositive,
    NoFeasibleXi,
    SchurAllocError,
    XiOutOfRange,
    ZeroVariance,
)
from schur_alloc.seriation import Permutation, permute_matrix
from schur_alloc.shrinkage import DEFAULT_GRID_STEP, MIN_GRID_STEP, ShrinkageResult

from conftest import UNSTABLE_4X4, random_pd
from test_properties import ill_scaled, near_duplicate, t_lt_n

# A near-singular 4x4 block that the paper's configuration shrinks at terminal_size 1
# and gamma 1 in a 15-asset T < n estimate (the 73rd matrix of the hard-input corpus
# drawn at seed 7). Its clipped variance dips to its minimum at xi = 0.999, past the
# coarse minimum at 0.96; a window around that minimum alone takes 0.970, whose
# clipped variance is 63% higher.
DIP_NEAR_ONE_4X4 = np.array([
    [5.1861788892332628e-05, 4.7511859544945222e-05,
     -3.5338294095390763e-04, 2.4796117149337510e-04],
    [4.7511859544945222e-05, 5.0480048871874766e-05,
     -3.8972943455502592e-04, 2.7232738931512061e-04],
    [-3.5338294095390763e-04, -3.8972943455502592e-04,
     3.0524264336381180e-03, -2.1281642570343279e-03],
    [2.4796117149337510e-04, 2.7232738931512061e-04,
     -2.1281642570343279e-03, 1.4844063293615571e-03],
])
# A 5x5 block of a 22-asset T < n estimate (hard-input corpus at seed 8, its 97th
# matrix), singular at xi = 1: its curve falls from 0.0244 at xi = 0.98 to 0.0099 at
# 0.998, which only the window at the end of the grid reaches.
DIP_BEFORE_SINGULAR_5X5 = np.array([
    [0.9121892209182759, -0.09743750907228471, -0.8588275655810953, -0.08989479345959983,
     -0.4191445367404082],
    [-0.09743750907228471, 0.3486529077998873, 0.5166320678570145, -0.9136475135028733,
     -0.34397780316039744],
    [-0.8588275655810953, 0.5166320678570145, 2.1225798557579796, -0.8339047613017152,
     0.35563606221300886],
    [-0.08989479345959983, -0.9136475135028733, -0.8339047613017152, 2.6184225107067407,
     1.2541742394538948],
    [-0.4191445367404082, -0.34397780316039744, 0.35563606221300886, 1.2541742394538948,
     0.9092054701956621],
])


def _reference_weak_shrink(cov, grid_step: float = DEFAULT_GRID_STEP,
                           rcond: float = DEFAULT_RCOND) -> ShrinkageResult:
    """Oracle: builds the whole (1-xi) D + xi Sigma stack and solves it directly.

    Grid points are rejected on the singular values of each raw stack matrix.
    """
    values = cov_values(cov)
    steps = int(round(1.0 / grid_step))
    grid = np.linspace(0.0, 1.0, steps + 1)
    n = values.shape[0]

    diag = np.diag(np.diag(values))
    stack = grid[:, None, None] * values + (1.0 - grid)[:, None, None] * diag

    singular = np.linalg.svd(stack, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        rc = singular[:, -1] / singular[:, 0]
    valid = np.isfinite(rc) & (rc >= rcond)

    x = np.full((len(grid), n), np.nan)
    if valid.any():
        try:
            x[valid] = np.linalg.solve(stack[valid], np.ones(n))
        except np.linalg.LinAlgError:
            for idx in np.nonzero(valid)[0]:
                try:
                    x[idx] = np.linalg.solve(stack[idx], np.ones(n))
                except np.linalg.LinAlgError:
                    valid[idx] = False

    denom = x.sum(axis=1)
    with np.errstate(invalid="ignore"):
        valid &= np.isfinite(denom) & (
            np.abs(denom) > rcond * np.maximum(1.0, np.abs(x).sum(axis=1))
        )
    weights = np.where(valid[:, None], x / denom[:, None], np.nan)
    clipped = np.where(weights > 0.0, weights, 0.0)
    mass = clipped.sum(axis=1)
    valid &= mass > 0.0
    with np.errstate(invalid="ignore"):
        clipped = clipped / mass[:, None]
    variances = np.einsum("gi,ij,gj->g", clipped, values, clipped)

    if not valid.any():
        raise NoFeasibleXi("minimum-variance solve failed at every grid point")
    masked = np.where(valid, variances, np.inf)
    best = int(np.argmin(masked))
    return ShrinkageResult(
        xi=float(grid[best]),
        shrunk=stack[best],
        weights=x[best] / denom[best],
        clipped_variance=float(variances[best]),
        curve=[(float(g), float(v)) for g, v, ok in zip(grid, variances, valid) if ok],
        skipped=[float(g) for g, ok in zip(grid, valid) if not ok],
    )


def _dense_weak_shrink(cov, grid_step: float = DEFAULT_GRID_STEP,
                       rcond: float = DEFAULT_RCOND) -> ShrinkageResult:
    """`weak_shrink` on the whole grid at once, in (points x n) arrays, with the
    spectrum test taken as min|.| and max|.| over every entry of every row."""
    values = cov_values(cov)
    steps = int(round(1.0 / grid_step))
    grid = np.linspace(0.0, 1.0, steps + 1)

    s = np.sqrt(np.diag(values))
    lam, q = np.linalg.eigh(symmetrize(values / np.outer(s, s)))
    spec = (1.0 - grid)[:, None] + grid[:, None] * lam
    magnitude = np.abs(spec)
    valid = magnitude.min(axis=1) >= rcond * magnitude.max(axis=1)
    u = q.T @ (1.0 / s)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = ((u / spec) @ q.T) / s
        denom = x.sum(axis=1)
        valid &= np.isfinite(denom) & (np.abs(denom) > rcond * np.abs(x).sum(axis=1))
        weights = np.where(valid[:, None], x / denom[:, None], np.nan)
    clipped = np.where(weights > 0.0, weights, 0.0)
    mass = clipped.sum(axis=1)
    valid &= mass > 0.0
    with np.errstate(invalid="ignore"):
        clipped = clipped / mass[:, None]
    variances = np.einsum("gi,ij,gj->g", clipped, values, clipped)

    if not valid.any():
        raise NoFeasibleXi("minimum-variance solve failed at every grid point")
    best = int(np.argmin(np.where(valid, variances, np.inf)))
    return ShrinkageResult(
        xi=float(grid[best]),
        shrunk=scale_off_diagonal(values, float(grid[best])),
        weights=x[best] / denom[best],
        clipped_variance=float(variances[best]),
        curve=np.column_stack((grid[valid], variances[valid])),
        skipped=grid[~valid],
    )


def sample_covariance(rng: np.random.Generator, p: int, t: int) -> np.ndarray:
    """Sample covariance of t Gaussian draws: rank min(t - 1, p), singular at xi = 1 for t <= p."""
    return np.cov(rng.standard_normal((t, p)), rowvar=False)


def indefinite(rng: np.random.Generator, n: int) -> np.ndarray:
    """A symmetric matrix with a positive diagonal and correlations drawn from
    +-0.9: its correlation form is mostly indefinite, and then the spectrum
    1 - xi + xi * lambda changes sign over a band of xi."""
    corr = np.triu(rng.uniform(-0.9, 0.9, (n, n)), 1)
    corr = corr + corr.T + np.eye(n)
    vol = 10.0 ** rng.uniform(-3.0, 3.0, n)
    return corr * np.outer(vol, vol)


def reference_corpus():
    rng = np.random.default_rng(20241107)
    cases = [UNSTABLE_4X4]
    cases += [random_pd(rng, int(rng.integers(3, 30)), ridge=0.1) for _ in range(40)]
    for _ in range(40):
        p = int(rng.integers(5, 40))
        cases.append(sample_covariance(rng, p, int(rng.integers(2, p))))
    return cases


def rescaled(cov: np.ndarray, vol: np.ndarray) -> np.ndarray:
    """The correlation matrix of `cov` with per-asset volatilities `vol`."""
    s = np.sqrt(np.diag(cov))
    return cov / np.outer(s, s) * np.outer(vol, vol)


class TestScaleOffDiagonal:
    def test_xi_one_is_identity(self, unstable_4x4):
        np.testing.assert_array_equal(scale_off_diagonal(unstable_4x4, 1.0), unstable_4x4)

    def test_xi_zero_is_diagonal(self, unstable_4x4):
        np.testing.assert_array_equal(
            scale_off_diagonal(unstable_4x4, 0.0), np.diag(np.diag(unstable_4x4))
        )

    def test_entry_scaling(self, unstable_4x4):
        shrunk = scale_off_diagonal(unstable_4x4, 0.97)
        assert shrunk[0, 1] == pytest.approx(-1.02926114 * 0.97)
        np.testing.assert_array_equal(np.diag(shrunk), np.diag(unstable_4x4))

    def test_out_of_range(self, unstable_4x4):
        with pytest.raises(XiOutOfRange):
            scale_off_diagonal(unstable_4x4, 1.5)

    def test_preserves_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cov = random_pd(rng, 6, ridge=0.1)
            for xi in (0.0, 0.3, 0.7, 1.0):
                assert np.linalg.eigvalsh(scale_off_diagonal(cov, xi)).min() > -1e-10

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_commutes_with_permutation(self, xi, seed):
        rng = np.random.default_rng(seed)
        cov = random_pd(rng, 5)
        perm = Permutation(tuple(rng.permutation(5).tolist()))
        left = permute_matrix(scale_off_diagonal(cov, xi), perm)
        right = scale_off_diagonal(permute_matrix(cov, perm), xi)
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-14)


class TestLongOnlyClip:
    def test_already_long_only(self):
        w = np.array([0.25, 0.25, 0.25, 0.25])
        np.testing.assert_array_equal(long_only_clip(w), w)

    def test_small_short_position(self):
        clipped = long_only_clip(np.array([0.0674, -0.0068, 0.3658, 0.5735]))
        np.testing.assert_allclose(clipped, [0.06695, 0.0, 0.36337, 0.56968], atol=1e-4)

    def test_two_asset(self):
        np.testing.assert_array_equal(long_only_clip(np.array([2.0, -1.0])), [1.0, 0.0])

    def test_all_non_positive(self):
        with pytest.raises(AllNonPositive):
            long_only_clip(np.array([-0.5, -0.5, 0.0]))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(6)
        if w.max() <= 0.0:
            w[0] = 1.0
        clipped = long_only_clip(w)
        assert clipped.min() >= 0.0
        assert abs(clipped.sum() - 1.0) < 1e-12


class TestWeakShrink:
    def test_reference_matrix_xi(self, unstable_4x4):
        result = weak_shrink(unstable_4x4)
        assert 0.96 <= result.xi <= 0.98

    def test_reference_matrix_weights(self, unstable_4x4):
        result = weak_shrink(unstable_4x4)
        np.testing.assert_allclose(
            result.weights, [0.0674, -0.0068, 0.3658, 0.5735], atol=2e-3
        )

    def test_diagonal_matrix_ties_to_zero(self):
        result = weak_shrink(np.diag([1.0, 2.0, 3.0]))
        assert result.xi == 0.0
        variances = [v for _, v in result.curve]
        np.testing.assert_allclose(variances, variances[0])

    def test_shrunk_matches_definition(self, unstable_4x4):
        result = weak_shrink(unstable_4x4)
        expected = scale_off_diagonal(unstable_4x4, result.xi)
        np.testing.assert_allclose(result.shrunk, expected, atol=1e-14)

    def test_optimum_beats_endpoints(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            cov = random_pd(rng, 5, ridge=0.05)
            result = weak_shrink(cov)
            by_xi = dict(result.curve)
            assert result.clipped_variance <= by_xi[0.0] + 1e-12
            assert result.clipped_variance <= by_xi[1.0] + 1e-12

    def test_xi_invariant_to_uniform_scaling(self, unstable_4x4):
        base = weak_shrink(unstable_4x4)
        scaled = weak_shrink(4.0 * unstable_4x4)
        assert base.xi == scaled.xi

    def test_grid_step_validated(self, unstable_4x4):
        with pytest.raises(XiOutOfRange):
            weak_shrink(unstable_4x4, grid_step=0.0)

    @pytest.mark.parametrize("step", [0.99 * MIN_GRID_STEP, 1e-6])
    def test_grid_step_below_minimum_rejected(self, unstable_4x4, step):
        # a finer step would solve more than 10,001 grid points
        with pytest.raises(XiOutOfRange, match="MIN_GRID_STEP"):
            weak_shrink(unstable_4x4, grid_step=step)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_variance_rejected(self, bad):
        with pytest.raises(ZeroVariance):
            weak_shrink(np.array([[bad, 0.1], [0.1, 1.0]]))

    def test_matches_stacked_reference(self):
        for cov in reference_corpus():
            expected = _reference_weak_shrink(cov)
            result = weak_shrink(cov)
            assert result.xi == expected.xi
            np.testing.assert_array_equal(result.skipped, expected.skipped, strict=True)
            np.testing.assert_array_equal(result.shrunk, expected.shrunk)
            scale = np.abs(expected.weights).max()
            np.testing.assert_allclose(result.weights, expected.weights,
                                       rtol=0, atol=1e-9 * scale)
            # curve and skipped are float arrays; the reference scores its own LU solves' weights
            assert isinstance(result.curve, np.ndarray) and isinstance(result.skipped, np.ndarray)
            curve = np.array(expected.curve, dtype=float).reshape(-1, 2)
            assert result.curve.shape == curve.shape
            np.testing.assert_array_equal(result.curve[:, 0], curve[:, 0], strict=True)
            np.testing.assert_allclose(result.curve[:, 1], curve[:, 1], rtol=1e-7, atol=0)

    @pytest.mark.parametrize("decades", [6, 7])
    def test_ill_scaled_variances_keep_every_grid_point(self, decades):
        # The correlation form's conditioning ignores the variances' spread
        # (here 1e-decades..1e+decades); the raw stack's does not.
        rng = np.random.default_rng(11)
        n = 8
        variances = np.logspace(-decades, decades, n)
        cov = rescaled(random_pd(rng, n, ridge=0.1), np.sqrt(variances))
        result = weak_shrink(cov)
        np.testing.assert_array_equal(result.skipped, np.empty(0), strict=True)
        assert np.all(np.isfinite(result.weights))
        if decades == 7:
            with pytest.raises(NoFeasibleXi):
                _reference_weak_shrink(cov)

    @given(st.integers(min_value=0, max_value=10**6), st.booleans())
    @example(seed=0, full_rank=True)
    @settings(max_examples=25, deadline=None)
    def test_skipped_invariant_to_per_asset_scaling(self, seed, full_rank):
        # T < p skips xi = 1, where the estimate is singular; T > p skips no point
        rng = np.random.default_rng(seed)
        p = int(rng.integers(5, 20))
        samples = int(rng.integers(p + 1, 2 * p + 1) if full_rank else rng.integers(2, p))
        cov = sample_covariance(rng, p, samples)
        base = weak_shrink(cov)
        assert (base.skipped.size == 0) == full_rank
        vol = 10.0 ** rng.uniform(-3.0, 3.0, p)
        np.testing.assert_array_equal(weak_shrink(rescaled(cov, vol)).skipped, base.skipped,
                                      strict=True)

    def test_traced_peak_memory_bounded(self):
        # the grid is solved in fixed-size chunks, so the finest step (10,001
        # points) needs no more than the n x n arrays: 138 MB when it was whole
        cov = sample_covariance(np.random.default_rng(5), 300, 900)
        tracemalloc.start()
        try:
            weak_shrink(cov, grid_step=MIN_GRID_STEP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("rcond", [DEFAULT_RCOND, 1e-3])
    def test_spectrum_ends_match_dense_test(self, rcond):
        # a row's min|.| and max|.| from its end columns, and the full minimum only
        # where the row changes sign, skip exactly the points the dense test skips
        rng = np.random.default_rng(22)
        cases = [("pd", random_pd(rng, int(rng.integers(3, 30)), ridge=0.1)) for _ in range(15)]
        for _ in range(15):
            p = int(rng.integers(5, 130))
            cases.append(("T<n", rescaled(sample_covariance(rng, p, int(rng.integers(2, p))),
                                          10.0 ** rng.uniform(-3.0, 3.0, p))))
        cases += [("indefinite", indefinite(rng, int(rng.integers(3, 40)))) for _ in range(15)]
        moved = []
        for index, (kind, cov) in enumerate(cases):
            dense = _dense_weak_shrink(cov, rcond=rcond)
            result = weak_shrink(cov, rcond=rcond)
            np.testing.assert_array_equal(result.skipped, dense.skipped, strict=True)
            if result.xi != dense.xi:
                moved.append((index, kind, dense.xi, result.xi))
        assert moved == []

    def test_indefinite_input_changes_sign_over_a_band(self):
        # past 1 / (1 - lambda_min) every row changes sign and takes the full
        # min|.|: some of those points are skipped and some solve
        cov = indefinite(np.random.default_rng(22), 12)
        s = np.sqrt(np.diag(cov))
        lam_min = np.linalg.eigvalsh(cov / np.outer(s, s))[0]
        result = weak_shrink(cov, rcond=1e-3)
        changes_sign = lambda xi: 1.0 - xi + xi * lam_min < 0.0
        assert lam_min < 0.0
        assert any(changes_sign(xi) for xi in result.skipped)
        assert any(changes_sign(xi) for xi in result.curve[:, 0])

    @pytest.mark.parametrize("chunk", [1, 10**9])
    def test_chunk_boundaries_keep_the_selection(self, monkeypatch, chunk):
        # one grid row per chunk, or the whole grid in one chunk: the running argmin
        # keeps the first minimum across chunk edges, so ties still go to the smaller xi
        rng = np.random.default_rng(7)
        cases = reference_corpus() + [np.diag([1.0, 2.0, 3.0])]
        for p in (62, 125):
            cases.append(sample_covariance(rng, p, p // 2))
        default = [weak_shrink(cov, grid_step=0.01) for cov in cases]
        monkeypatch.setattr(shrinkage, "_GRID_CHUNK", chunk)
        for cov, expected in zip(cases, default):
            result = weak_shrink(cov, grid_step=0.01)
            assert result.xi == expected.xi
            np.testing.assert_array_equal(result.skipped, expected.skipped, strict=True)
            scale = np.abs(expected.weights).max()
            np.testing.assert_allclose(result.weights, expected.weights,
                                       rtol=0, atol=1e-12 * scale)
        assert weak_shrink(np.diag([1.0, 2.0, 3.0]), grid_step=0.01).xi == 0.0


    def test_grid_step_rounds_to_a_whole_number_of_steps(self, unstable_4x4):
        # the grid has round(1 / step) equal steps: 0.3 searches thirds, 0.26 quarters
        for step, steps in ((0.3, 3), (0.26, 4), (0.001, 1000)):
            result = weak_shrink(unstable_4x4, grid_step=step)
            searched = np.sort(np.concatenate((result.curve[:, 0], result.skipped)))
            np.testing.assert_array_equal(searched, np.linspace(0.0, 1.0, steps + 1), strict=True)


def small_block(seed: int) -> np.ndarray:
    """A 4..8-asset covariance: a T < n sample covariance plus a 1e-3 ridge for
    seed % 3 == 1, a random positive-definite matrix for seed % 3 == 2."""
    rng = np.random.default_rng([99, seed])
    n = int(rng.integers(4, 9))
    if seed % 3 == 1:
        return sample_covariance(rng, n, int(rng.integers(2, n + 1))) + 1e-3 * np.eye(n)
    m = rng.standard_normal((n, n))
    return m @ m.T + rng.uniform(0.01, 1.0) * np.eye(n)


class TestSearchXi:
    """The recursion's coarse-to-fine search against the full grid of `weak_shrink`."""

    @staticmethod
    def scanned_rows(monkeypatch) -> list[int]:
        rows = []

        def counted(values, spectrum, xis, rcond):
            rows.append(xis.size)
            return scan(values, spectrum, xis, rcond)

        scan = shrinkage._scan
        monkeypatch.setattr(shrinkage, "_scan", counted)
        return rows

    @given(seed=st.integers(0, 2**32 - 1),
           make=st.sampled_from([t_lt_n, ill_scaled, near_duplicate]),
           n=st.integers(6, 24))
    @settings(max_examples=100, deadline=None)
    def test_pick_is_the_minimum_row_of_the_full_curve(self, seed, make, n):
        cov = make(np.random.default_rng(seed), n)
        try:
            full = weak_shrink(cov)
        except SchurAllocError as exc:
            with pytest.raises(type(exc)):
                shrinkage._search_xi(cov)
            return
        xi, weights, variance = shrinkage._search_xi(cov)
        row = full.curve[full.curve[:, 0] == xi]
        assert row.shape == (1, 2)
        assert variance == pytest.approx(row[0, 1], rel=1e-14, abs=0)
        # and that row is the curve's minimum: a search that stops at some coarse
        # point, or misses a dip, scores higher
        assert variance <= full.clipped_variance + 1e-14 * abs(full.clipped_variance)
        assert np.all(np.isfinite(weights)) and weights.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cov, xi", [
        (UNSTABLE_4X4, 0.976),
        (DIP_NEAR_ONE_4X4, 0.999),
        (DIP_BEFORE_SINGULAR_5X5, 0.998),
        # the lowest coarse point is 0.98; the dip at 0.953 lies two coarse steps
        # below it, past 0.96, which is no local minimum
        (small_block(31016), 0.953),
        # a dip at 0.975, inside the last two coarse steps but not the last one
        (small_block(16450), 0.975),
        # two dips: the coarse minimum at 0.86 and, lower between coarse points, 0.915
        # next to the second coarse minimum at 0.92
        (small_block(26599), 0.915),
        # a T < n sample covariance whose lowest coarse point is 0.84 and whose kink
        # dips at 0.871, in the step past 0.86, the third-lowest coarse point; a
        # window of one step around 0.84 took 0.838, at 7.2e-4 higher clipped variance
        (t_lt_n(np.random.default_rng([39570, 11]), 11), 0.871),
        # a kink: the curve falls from 0.912 to 0.933, where a weight reaches zero, and
        # jumps; neither end of that coarse step is a minimum nor within two steps of
        # the lowest coarse point, 0.88, which took 0.890 at 1.1e-4 higher variance
        (ill_scaled(np.random.default_rng([71970, 17]), 17), 0.933),
    ])
    def test_fixed_blocks_pick_the_full_grid_xi(self, cov, xi):
        full = weak_shrink(cov)
        picked, weights, variance = shrinkage._search_xi(cov)
        assert full.xi == picked and round(picked, 3) == xi
        assert variance == pytest.approx(full.clipped_variance, rel=1e-14, abs=0)
        np.testing.assert_allclose(weights, full.weights, rtol=0, atol=1e-12)

    def test_scans_the_windows_and_the_kinks_near_the_minimum(self, monkeypatch):
        # 51 coarse points, then windows of 81 points around the lowest coarse point
        # and of 41 around the second-lowest coarse minimum and 0.98, and the 21 points
        # of each coarse step near the lowest whose set of positive weights changes
        scans = []

        def recorded(values, spectrum, xis, rcond):
            result = scan(values, spectrum, xis, rcond)
            scans.append((xis.size, result))
            return result

        scan = shrinkage._scan
        monkeypatch.setattr(shrinkage, "_scan", recorded)
        kinked = 0
        for cov in reference_corpus() + [np.diag([1.0, 2.0, 3.0]), small_block(16450)]:
            scans.clear()
            shrinkage._search_xi(cov)
            (coarse, (valid, variances, turns, _, _)), (fine, _) = scans
            curve = np.where(valid, variances, np.inf)
            near = np.minimum(curve[:-1], curve[1:]) <= curve.min() * (1.0 + 1e-3)
            kinks = int(np.sum(turns[1:] & near))
            kinked += kinks > 0
            assert coarse == 51 and fine <= 163 + 21 * kinks
        assert kinked > 0
        assert shrinkage._search_xi(np.diag([1.0, 2.0, 3.0]))[0] == 0.0

    def test_turns_do_not_depend_on_the_chunks(self, monkeypatch):
        # a change of the positive weights between the last point of one chunk and the
        # first of the next is reported as it is within a chunk
        values = ill_scaled(np.random.default_rng([71970, 17]), 17)
        spectrum = shrinkage._spectrum(values)
        xis = np.linspace(0.0, 1.0, 1001)[::20]
        whole = shrinkage._scan(values, spectrum, xis, DEFAULT_RCOND)
        monkeypatch.setattr(shrinkage, "_GRID_CHUNK", 3 * values.shape[0])
        chunked = shrinkage._scan(values, spectrum, xis, DEFAULT_RCOND)
        assert whole[2].sum() > 1
        np.testing.assert_array_equal(chunked[0], whole[0])
        np.testing.assert_array_equal(chunked[2], whole[2])

    @pytest.mark.parametrize("cov, error", [
        (np.diag([1e-310, 1e-310]), NoFeasibleXi),
        (np.array([[0.0, 0.1], [0.1, 1.0]]), ZeroVariance),
    ])
    def test_raises_where_weak_shrink_raises(self, monkeypatch, cov, error):
        # subnormal variances overflow every grid point's solve: with no coarse point
        # feasible the whole grid is scanned before NoFeasibleXi
        rows = self.scanned_rows(monkeypatch)
        with pytest.raises(error):
            weak_shrink(cov)
        with pytest.raises(error):
            shrinkage._search_xi(cov)
        assert rows == ([1001, 51, 1001] if error is NoFeasibleXi else [])
