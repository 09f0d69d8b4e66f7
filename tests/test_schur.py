import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_alloc import (
    AllocationConfig,
    GammaPair,
    allocate,
    augment_intra,
    b_vector,
    max_feasible_gamma,
    schur,
    schur_complement,
    split,
)
from schur_alloc._linalg import DEFAULT_RCOND, check_conditioning, checked_solve, symmetrize
from schur_alloc.errors import (
    BadIndex,
    DegenerateBVector,
    InputError,
    NumericalError,
    SchurAllocError,
    SingularComplement,
    SingularComplementBlock,
)

from conftest import equicorrelated, random_pd


@pytest.fixture
def equi3_split():
    # the 3-asset equicorrelated example at rho = 0.5, split {1,2} | {3}
    return split(equicorrelated(3, 0.5), 2)


def capped_split_cases(seed: int):
    """(kind, split, gammas) over PD, ridge and T<n covariances, each gamma
    scaled by the split's feasible cap as the allocator does."""
    rng = np.random.default_rng(seed)
    makers = {
        "pd": lambda n: random_pd(rng, n),
        "ridge": lambda n: random_pd(rng, n, ridge=0.01),
        "t_lt_n": lambda n: np.cov(rng.standard_normal((n // 2 + 1, n)), rowvar=False),
    }
    for kind, make in makers.items():
        for _ in range(15):
            n = int(rng.integers(3, 13))
            sp = split(make(n), int(rng.integers(1, n)))
            cap = min(max_feasible_gamma(sp, side) for side in ("A", "D"))
            for gammas in (GammaPair(0.6, 0.2), GammaPair(0.3), GammaPair(1.0)):
                if cap > 0.0:
                    yield kind, sp, gammas.scaled(cap)


def double_inversion(sp, side, gammas, eps_b=1e-6):
    """The inter-group matrix from its definition, (A^c^-1 * b b')^-1: the b
    floor, then two guarded solves whose failure means the side is unusable."""
    comp = schur_complement(sp, side, gammas.gamma_c)
    b = b_vector(sp, side, gammas.gamma_b)
    if np.abs(b).min() < eps_b:
        raise DegenerateBVector("|b| entry below eps_b")
    eye = np.eye(comp.shape[0])
    precision = checked_solve(comp, eye, exc=SingularComplement)
    product = symmetrize(precision * np.outer(b, b))
    return symmetrize(checked_solve(product, eye, exc=SingularComplement))


def _reference_feasible(sp, side, gamma, eps_pd=1e-8, eps_b=1e-6, rcond=DEFAULT_RCOND):
    """The bisection's test: b >= eps_b, then the complement's eigenvalues above eps_pd."""
    if b_vector(sp, side, gamma, rcond=rcond).min() < eps_b:
        return False
    try:
        comp = schur_complement(sp, side, gamma, rcond=rcond)
        return bool(np.linalg.eigvalsh(comp).min() > eps_pd)
    except np.linalg.LinAlgError:
        return False


def _reference_max_feasible_gamma(sp, side, eps_pd=1e-8, eps_b=1e-6, rcond=DEFAULT_RCOND,
                                  resolution=1e-6, max_iter=40):
    """The cap as a bisection over the affine complement and b-vector, as it was
    computed before the closed form; 0.0 at once on a singular complementary block."""
    try:
        schur._product(sp, side, "t", rcond)
    except SingularComplementBlock:
        return 0.0

    def feasible(gamma):
        return _reference_feasible(sp, side, gamma, eps_pd, eps_b, rcond)

    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(max_iter):
        if hi - lo < resolution:
            break
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def cap_corpus(seed: int, per_kind: int):
    """(kind, covariance, split index) over the seven kinds the cap meets, n in 2..40."""
    rng = np.random.default_rng(seed)

    def factor(n):
        loadings = rng.normal(0.0, 0.25, (n, 3))
        loadings[:, 0] += 0.6
        true = loadings @ loadings.T + np.diag(rng.uniform(0.2, 0.6, n))
        return np.cov(rng.multivariate_normal(np.zeros(n), true, 3 * n), rowvar=False)

    def near_duplicate(n):
        cov = random_pd(rng, n, ridge=0.1)
        j = int(rng.integers(1, n))
        cov[j, :] = cov[:, j] = cov[0, :] * (1.0 + 1e-9)
        cov[j, j] = cov[0, 0] * (1.0 + 1e-9) ** 2 + 1e-10
        return cov

    def non_psd(n):
        m = rng.standard_normal((n, n))
        cov = (m + m.T) / 2.0
        cov[np.diag_indices(n)] = np.abs(np.diag(cov)) + 0.5
        return cov

    makers = {
        "pd": lambda n: random_pd(rng, n),
        "ridge": lambda n: random_pd(rng, n, ridge=0.01),
        "t_lt_n": lambda n: np.cov(rng.standard_normal((max(2, n // 2), n)), rowvar=False),
        "factor_t_3n": factor,
        "near_duplicate": near_duplicate,
        "scaled_1e6": lambda n: 1e6 * random_pd(rng, n, ridge=0.01),
        "non_psd": non_psd,
    }
    for kind, make in makers.items():
        for _ in range(per_kind):
            n = int(rng.integers(2, 41))
            yield kind, make(n), int(rng.integers(1, n))


def shifted_is_pd(sp, side, eps_pd=1e-8):
    own = sp.a if side == "A" else sp.d
    try:
        np.linalg.cholesky(own - eps_pd * np.eye(own.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def raised(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except NumericalError as exc:
        return type(exc)
    return None


class TestGammaPair:
    def test_default_gamma_b(self):
        pair = GammaPair(0.7)
        assert pair.gamma_b == 0.7

    def test_range_checked(self):
        with pytest.raises(InputError):
            GammaPair(1.2)
        with pytest.raises(InputError):
            GammaPair(0.5, -0.1)


class TestSplit:
    def test_equicorrelated_blocks(self, equi3_split):
        np.testing.assert_array_equal(equi3_split.a, [[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_array_equal(equi3_split.b, [[0.5], [0.5]])
        np.testing.assert_array_equal(equi3_split.c, [[0.5, 0.5]])
        np.testing.assert_array_equal(equi3_split.d, [[1.0]])

    def test_two_assets(self):
        sp = split(np.array([[1.0, 0.2], [0.2, 2.0]]), 1)
        assert sp.a.shape == sp.b.shape == sp.c.shape == sp.d.shape == (1, 1)

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            split(np.eye(3), 3)
        with pytest.raises(BadIndex):
            split(np.eye(3), 0)

    def test_c_is_b_transpose(self):
        rng = np.random.default_rng(0)
        cov = random_pd(rng, 7)
        sp = split(cov, 3)
        np.testing.assert_array_equal(sp.c, sp.b.T)


class TestSchurComplement:
    def test_head_side_full_gamma(self, equi3_split):
        comp = schur_complement(equi3_split, "A", 1.0)
        np.testing.assert_allclose(comp, [[0.75, 0.25], [0.25, 0.75]])
        np.testing.assert_allclose(np.linalg.inv(comp), [[1.5, -0.5], [-0.5, 1.5]])

    def test_gamma_zero_is_raw_block(self, equi3_split):
        np.testing.assert_array_equal(schur_complement(equi3_split, "A", 0.0),
                                      equi3_split.a)

    def test_tail_side_full_gamma(self, equi3_split):
        comp = schur_complement(equi3_split, "D", 1.0)
        np.testing.assert_allclose(comp, [[2.0 / 3.0]])

    def test_outputs_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            cov = random_pd(rng, 6)
            sp = split(cov, 3)
            for side in ("A", "D"):
                comp = schur_complement(sp, side, 0.8)
                assert np.abs(comp - comp.T).max() < 1e-10


class TestBVector:
    def test_head_side(self, equi3_split):
        np.testing.assert_allclose(b_vector(equi3_split, "A", 1.0), [0.5, 0.5])

    def test_gamma_zero_is_ones(self, equi3_split):
        np.testing.assert_array_equal(b_vector(equi3_split, "A", 0.0), [1.0, 1.0])

    def test_tail_side(self, equi3_split):
        np.testing.assert_allclose(b_vector(equi3_split, "D", 1.0), [1.0 / 3.0])

    def test_carry_propagation(self, equi3_split):
        carry = np.array([2.0, 3.0, 4.0])
        expected = carry[:2] - equi3_split.b @ np.linalg.solve(equi3_split.d, carry[2:])
        np.testing.assert_allclose(b_vector(equi3_split, "A", 1.0, carry=carry), expected)


class TestAugmentations:
    def test_intra_head(self, equi3_split):
        np.testing.assert_allclose(
            augment_intra(equi3_split, "A", GammaPair(1.0)), [[3.0, 1.0], [1.0, 3.0]]
        )

    def test_intra_tail(self, equi3_split):
        np.testing.assert_allclose(
            augment_intra(equi3_split, "D", GammaPair(1.0)), [[6.0]]
        )

    def test_gamma_zero_exact_raw_block(self):
        rng = np.random.default_rng(2)
        cov = random_pd(rng, 5)
        sp = split(cov, 2)
        zero = GammaPair(0.0, 0.0)
        np.testing.assert_array_equal(augment_intra(sp, "A", zero), sp.a)
        np.testing.assert_array_equal(augment_intra(sp, "D", zero), sp.d)

    def test_intra_congruence_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            cov = random_pd(rng, 6)
            sp = split(cov, 3)
            gammas = GammaPair(rng.uniform(0.1, 1.0))
            intra = augment_intra(sp, "A", gammas)
            b = b_vector(sp, "A", gammas.gamma_b)
            comp = schur_complement(sp, "A", gammas.gamma_c)
            d_inv = np.diag(1.0 / b)
            np.testing.assert_allclose(intra, d_inv @ comp @ d_inv, atol=1e-12)

    def test_intra_matches_double_inversion(self):
        # diag(b) P diag(b) is P * b b', so (A^c^-1 * b b')^-1 = A^c / b b'
        # for every b, not only a constant one
        checked = non_constant = 0
        for _, sp, gammas in capped_split_cases(7):
            for side in ("A", "D"):
                if raised(augment_intra, sp, side, gammas):
                    continue
                intra = augment_intra(sp, side, gammas)
                comp = schur_complement(sp, side, gammas.gamma_c)
                b = b_vector(sp, side, gammas.gamma_b)
                oracle = np.linalg.inv(np.linalg.inv(comp) * np.outer(b, b))
                error = np.abs(intra - oracle).max() / np.abs(intra).max()
                assert error <= 1e-14 * np.linalg.cond(intra)
                checked += 1
                non_constant += np.ptp(b) > 1e-3
        assert checked > 150 and non_constant > 100

    def test_degenerate_b_vector_raises(self):
        eps = 5e-7
        cov = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
        sp = split(cov, 1)
        with pytest.raises(DegenerateBVector):
            augment_intra(sp, "A", GammaPair(1.0))

    def test_guard_matches_double_inversion(self):
        # raises exactly when one of the two guarded solves would have
        outcomes = {True: set(), False: set()}
        for _, sp, gammas in capped_split_cases(8):
            for side in ("A", "D"):
                size = sp.k if side == "A" else sp.parent.shape[0] - sp.k
                for scaled in (gammas, GammaPair(1.0)):
                    new = raised(augment_intra, sp, side, scaled)
                    assert new is raised(double_inversion, sp, side, scaled)
                    outcomes[size == 1].add(new)
        assert outcomes[False] >= {None, SingularComplement}
        assert None in outcomes[True]

    @pytest.mark.parametrize("cov, k, gammas, eps_b", [
        # zero complement, b = 1: A'' is zero at any scale
        ([[1.0, 1.0], [1.0, 1.0]], 1, GammaPair(1.0, 0.0), 1e-6),
        # complement 0.5, b = 1e-7: A'' ~5e13
        ([[1.0, 0.5], [0.5, 0.5]], 1, GammaPair(1.0, 1.0 - 1e-7), 1e-8),
        # complement ~1e-13, b = 0.1: A'' ~1e-11
        ([[0.81 + 1e-13, 0.9], [0.9, 1.0]], 1, GammaPair(1.0), 1e-6),
    ])
    def test_one_by_one_pivots(self, cov, k, gammas, eps_b):
        # a 1x1 A'' fails only when zero, NaN or subnormal; a pivot's size is a unit
        # choice, so the split scaled by 4^10 yields exactly 4^10 times the same A''
        cov = np.array(cov)
        sp = split(cov, k)
        comp = schur_complement(sp, "A", gammas.gamma_c)
        if comp[0, 0] == 0.0:
            for scale in (1.0, 4.0 ** 10):
                with pytest.raises(SingularComplement):
                    augment_intra(split(scale * cov, k), "A", gammas, eps_b=eps_b)
            return
        b = b_vector(sp, "A", gammas.gamma_b)
        intra = augment_intra(sp, "A", gammas, eps_b=eps_b)
        np.testing.assert_array_equal(intra, comp / (b * b)[:, None], strict=True)
        scaled = augment_intra(split(4.0 ** 10 * cov, k), "A", gammas, eps_b=eps_b)
        np.testing.assert_array_equal(scaled, 4.0 ** 10 * intra, strict=True)


class TestBlockInversionIdentity:
    def test_concatenated_solves_match_direct(self):
        # b_D must be 1 - C A^-1 1 for this to hold
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            cov = random_pd(rng, n)
            k = int(rng.integers(1, n))
            sp = split(cov, k)
            head = np.linalg.solve(schur_complement(sp, "A", 1.0), b_vector(sp, "A", 1.0))
            tail = np.linalg.solve(schur_complement(sp, "D", 1.0), b_vector(sp, "D", 1.0))
            direct = np.linalg.solve(cov, np.ones(n))
            np.testing.assert_allclose(np.concatenate([head, tail]), direct, atol=1e-8)


class TestMaxFeasibleGamma:
    def test_equicorrelated_head_is_one(self, equi3_split):
        assert max_feasible_gamma(equi3_split, "A") == 1.0

    def test_duplicate_asset_caps_below_one(self):
        rho = 0.5
        cov = np.array([[1.0, rho, 1.0], [rho, 1.0, rho], [1.0, rho, 1.0]])
        cap = max_feasible_gamma(split(cov, 2), "A")
        assert cap < 1.0

    def test_diagonal_matrix_is_one(self):
        sp = split(np.diag([1.0, 2.0, 3.0]), 2)
        assert max_feasible_gamma(sp, "A") == 1.0
        assert max_feasible_gamma(sp, "D") == 1.0

    def test_matches_bisection_on_corpus(self):
        # the bisection halves [0, 1] exactly down to a width of 2^-20, so where
        # gamma = 0 is feasible it ends on the largest feasible grid point
        capped, zeroed = set(), 0
        for kind, cov, k in cap_corpus(11, 12):
            for side in ("A", "D"):
                cap = max_feasible_gamma(split(cov, k), side)
                reference = _reference_max_feasible_gamma(split(cov, k), side)
                if shifted_is_pd(split(cov, k), side):
                    assert cap == reference, (kind, side)
                    if 0.0 < cap < 1.0:
                        capped.add(kind)
                else:
                    # gamma = 0 itself fails the margin, so no [0, gamma] is feasible;
                    # only an indefinite S lets the bisection find a positive gamma
                    assert cap == 0.0 and (reference == 0.0 or kind == "non_psd"), kind
                    zeroed += 1
        assert len(capped) >= 5 and zeroed > 0

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=20),
           st.sampled_from([0.0, 1e-3]), st.sampled_from([1e-3, 1.0, 1e3]),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_cap_is_the_largest_feasible_grid_point(self, n, samples, ridge, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((samples, n))
        cov = scale * (x.T @ x / samples + ridge * np.eye(n))
        sp = split(cov, int(rng.integers(1, n)))
        for side in ("A", "D"):
            cap = max_feasible_gamma(sp, side)
            try:
                schur._product(sp, side, "t", DEFAULT_RCOND)
            except SingularComplementBlock:
                assert cap == 0.0
                continue
            if cap > 0.0:
                assert _reference_feasible(sp, side, cap)
            if cap < 1.0:
                assert cap % schur.CAP_STEP == 0.0
                assert not _reference_feasible(sp, side, cap + schur.CAP_STEP)

    @pytest.mark.parametrize("coupling", [1e-160, 1e-310])
    def test_tiny_coupling_is_uncapped(self, coupling):
        # lambda_max ~ coupling^2 or max t ~ coupling would overflow a
        # reciprocal; tier-1 turns that RuntimeWarning into a failure
        cov = np.eye(4)
        cov[0, 2] = cov[2, 0] = coupling
        cov[1, 3] = cov[3, 1] = -coupling
        sp = split(cov, 2)
        assert max_feasible_gamma(sp, "A") == max_feasible_gamma(sp, "D") == 1.0

    def test_factorizations_per_call(self, monkeypatch):
        # both caps of a split, as the allocator takes them: each side's own block
        # minus eps_pd I is factored once, and the gamma = 1 blend once per side that
        # solves S and t; each side whose own block factors guards its complementary
        # block once, with an eigvalsh only where certificate (i) does not decide
        counts = {}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)
            return wrapper

        cholesky = np.linalg.cholesky

        def positive_definite(matrix):
            try:
                cholesky(matrix)
            except np.linalg.LinAlgError:
                return False
            return True

        check = schur.check_conditioning

        def counted_check(*args):
            # the guard's own eigvalsh is counted apart from the pencil's
            counts["eigvalsh_guard"] = counts.get("eigvalsh_guard", 0) + 1
            pencil = counts.get("eigvalsh", 0)
            try:
                check(*args)
            finally:
                counts["eigvalsh"] = pencil

        certificates = []
        guard = schur._guard

        def recorded_guard(matrix, rcond, exc, certificate):
            certificates.append(certificate)
            return guard(matrix, rcond, exc, certificate)

        for name in ("cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for name in ("schur_complement", "b_vector"):
            monkeypatch.setattr(schur, name, counting(name, getattr(schur, name)))
        monkeypatch.setattr(schur, "check_conditioning", counted_check)
        monkeypatch.setattr(schur, "_guard", recorded_guard)
        pencils = certified = uncertified = 0
        for _, cov, k in cap_corpus(12, 3):
            counts.clear()
            certificates.clear()
            sp = split(cov, k)
            for side in ("A", "D"):
                max_feasible_gamma(sp, side)
            seen = dict(counts)
            solved = [side for side in ("A", "D") if (side, "S", DEFAULT_RCOND) in sp._solved]
            factored = [side for side in ("A", "D") if shifted_is_pd(sp, side)]
            assert seen.get("cholesky", 0) == 2 + len(solved)
            assert "schur_complement" not in seen and "b_vector" not in seen
            assert len(certificates) == len(factored) and set(solved) <= set(factored)
            assert set(certificates) <= {True, None}
            assert seen.get("eigvalsh_guard", 0) == certificates.count(None)
            certified += certificates.count(True)
            uncertified += certificates.count(None)
            # the pencil is solved only where the gamma = 1 blend is not PD
            blends_not_pd = 0
            for side in solved:
                own = sp.a if side == "A" else sp.d
                blend = own - 1e-8 * np.eye(len(own)) - schur._product(sp, side, "S",
                                                                        DEFAULT_RCOND)
                blends_not_pd += not positive_definite(blend)
            assert seen.get("eigvalsh", 0) == blends_not_pd
            pencils += blends_not_pd
            # no factor outlives both caps
            assert not any(key[1] == "factor" for key in sp._solved)
        assert pencils > 0 and certified > 0 and uncertified > 0

    def test_pd_limit_binds_below_t_lt_n(self):
        # five assets from four observations: rank 3, so A - S is singular, while
        # A (2x2) and the complementary 3x3 block are both non-singular
        x = np.random.default_rng(4).standard_normal((4, 5))
        sp = split(np.cov(x, rowvar=False), 2)
        cap = max_feasible_gamma(sp, "D")
        t = schur._product(sp, "D", "t", DEFAULT_RCOND)
        s = schur._product(sp, "D", "S", DEFAULT_RCOND)
        gamma_pd = 1.0 / np.linalg.eigvals(np.linalg.solve(sp.d - 1e-8 * np.eye(3), s)).real.max()
        assert (1.0 - 1e-6) / t.max() > 1.0 > gamma_pd
        assert cap == math.floor(gamma_pd / schur.CAP_STEP) * schur.CAP_STEP < 1.0
        assert cap == _reference_max_feasible_gamma(sp, "D")

    @pytest.mark.parametrize("cov, k, side, reference", [
        # a duplicated asset inside the own block: singular, like every larger gamma
        ([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]], 2, "A", 0.0),
        # an indefinite complementary block: A - gamma S is positive definite only
        # on an interval away from 0, where the bisection stopped
        ([[4.0, -3.0, 0.0, 4.0], [-3.0, 2.0, 2.0, -5.0], [0.0, 2.0, 4.0, 4.0],
          [4.0, -5.0, 4.0, 4.0]], 2, "D", 0.0666656494140625),
    ])
    def test_own_block_not_pd_caps_at_zero(self, cov, k, side, reference):
        sp = split(np.array(cov), k)
        assert not shifted_is_pd(sp, side)
        assert max_feasible_gamma(sp, side) == 0.0
        assert _reference_max_feasible_gamma(sp, side) == reference

    def test_cap_is_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            cov = random_pd(rng, 6, ridge=0.01)
            sp = split(cov, 3)
            cap = max_feasible_gamma(sp, "A")
            if cap > 0.0:
                comp = schur_complement(sp, "A", cap)
                assert np.linalg.eigvalsh(comp).min() > 0.0


def recording(calls, fn):
    """fn, appending the shape of each call's matrix argument to `calls`."""
    def wrapper(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return fn(matrix, *args, **kwargs)
    return wrapper


class TestSolvedOnce:
    def test_complementary_block_solved_at_most_twice_per_side(self, monkeypatch):
        # both sides of this split are capped, so each side's cap reads S and t
        sp = split(random_pd(np.random.default_rng(3), 7, ridge=0.01), 4)
        solves = []
        monkeypatch.setattr(schur, "_solve", recording(solves, schur._solve))
        caps = [max_feasible_gamma(sp, side) for side in ("A", "D")]
        assert max(caps) < 1.0
        gammas = GammaPair(min(caps)).scaled(0.5)
        for side in ("A", "D"):
            augment_intra(sp, side, gammas)
            b_vector(sp, side, gammas.gamma_b)
        # A's complementary block is 3x3 and D's is 4x4
        assert solves.count((3, 3)) <= 2 and solves.count((4, 4)) <= 2

    @staticmethod
    def complementary_guards(monkeypatch, capped):
        """Each side's certificates and eigvalsh calls on its complementary block, over
        the cap, augment_intra and b_vector, with and without a carry, at two gammas."""
        sp = split(random_pd(np.random.default_rng(8), 9, ridge=0.01), 5)
        guarded = {"A": [], "D": []}
        eigvalsh_on_blocks = []
        guard, check = schur._guard, schur.check_conditioning

        def side_of(matrix):
            return "A" if matrix.shape[0] == 4 else "D"

        def counting_guard(matrix, rcond, exc, certificate):
            if np.shares_memory(matrix, sp.parent):
                guarded[side_of(matrix)].append(certificate)
            return guard(matrix, rcond, exc, certificate)

        def counting_check(matrix, *args):
            if np.shares_memory(matrix, sp.parent):
                eigvalsh_on_blocks.append(side_of(matrix))
            return check(matrix, *args)

        monkeypatch.setattr(schur, "_guard", counting_guard)
        monkeypatch.setattr(schur, "check_conditioning", counting_check)
        carry = np.random.default_rng(9).uniform(0.5, 1.5, 9)
        cap = min(max_feasible_gamma(split(sp.parent.copy(), 5), side) for side in ("A", "D"))
        assert 0.0 < cap
        if capped:
            assert cap == min(max_feasible_gamma(sp, side) for side in ("A", "D"))
        for gammas in (GammaPair(0.5 * cap), GammaPair(0.25 * cap, 0.5 * cap)):
            for side in ("A", "D"):
                augment_intra(sp, side, gammas)
                b_vector(sp, side, gammas.gamma_b)
                b_vector(sp, side, gammas.gamma_b, carry=carry)
        return guarded, eigvalsh_on_blocks

    def test_one_guard_per_complementary_block(self, monkeypatch):
        # the cap, augment_intra and b_vector share one verdict per side, which
        # certificate (i) gives without an eigvalsh; the other guard calls are on
        # the augmented matrices
        guarded, eigvalsh_on_blocks = self.complementary_guards(monkeypatch, capped=True)
        assert guarded == {"A": [True], "D": [True]} and eigvalsh_on_blocks == []

    def test_one_eigvalsh_per_complementary_block_without_cap(self, monkeypatch):
        guarded, eigvalsh_on_blocks = self.complementary_guards(monkeypatch, capped=False)
        assert guarded == {"A": [None], "D": [None]} and eigvalsh_on_blocks == ["A", "D"]

    def test_singular_complementary_block_caps_at_zero(self, monkeypatch):
        cov = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        sp = split(cov, 1)
        solves, guards = [], []
        monkeypatch.setattr(schur, "_solve", recording(solves, schur._solve))
        monkeypatch.setattr(schur, "check_conditioning", recording(guards, schur.check_conditioning))
        assert max_feasible_gamma(sp, "A") == 0.0
        assert guards == [(2, 2)] and solves == []
        # the kept verdict fails every later use of the block, without a second guard
        with pytest.raises(SingularComplementBlock):
            augment_intra(sp, "A", GammaPair(0.5))
        with pytest.raises(SingularComplementBlock):
            b_vector(sp, "A", 0.5, carry=np.ones(3))
        assert guards == [(2, 2)] and solves == []


def factor_model_sample(n: int, seed: int) -> np.ndarray:
    """A sample covariance of T = 3n draws from a 10-factor model with a market
    factor, as the benchmark's `scale_1000` workload draws them."""
    rng = np.random.default_rng(seed)
    loadings = rng.normal(0.0, 0.25, (n, 10))
    loadings[:, 0] += 0.6
    true = loadings @ loadings.T + np.diag(rng.uniform(0.2, 0.6, n))
    draws = rng.standard_normal((3 * n, n)) @ np.linalg.cholesky(true).T
    return np.cov(draws, rowvar=False)


def audit_inputs():
    """(covariance, config) pairs for the certificate audit: the cap corpus, the
    property suite's three hard-input generators and one factor-model sample."""
    from test_properties import CONFIGS, ill_scaled, near_duplicate, t_lt_n

    for index, (_, cov, _) in enumerate(cap_corpus(11, 12)):
        yield cov, AllocationConfig(terminal_size=1 + 4 * (index % 2))
    for seed in range(30):
        make = (t_lt_n, ill_scaled, near_duplicate)[seed % 3]
        cov = make(np.random.default_rng(seed), 6 + seed % 19)
        for config in CONFIGS.values():
            yield cov, replace(config, terminal_size=1 + 4 * (seed % 2))
    yield factor_model_sample(250, 101), AllocationConfig()


class TestCertificates:
    def test_every_certified_verdict_matches_eigvalsh(self, monkeypatch):
        # eigvalsh runs again wherever a certificate decided, and must agree
        decided, disagreements = {}, []
        guard = schur._guard

        def audited(matrix, rcond, exc, certificate):
            if certificate is not None:
                try:
                    check_conditioning(matrix, rcond, exc)
                    passes = True
                except exc:
                    passes = False
                kind = (exc.__name__, certificate is True)
                decided[kind] = decided.get(kind, 0) + 1
                if passes != (certificate is True):
                    disagreements.append((kind, matrix.shape))
            return guard(matrix, rcond, exc, certificate)

        monkeypatch.setattr(schur, "_guard", audited)
        for cov, config in audit_inputs():
            for gamma in (0.5, 1.0):
                try:
                    allocate(cov, config.with_gamma(gamma))
                except SchurAllocError:
                    pass
        assert disagreements == []
        # (i) passes complementary blocks; (ii) passes and (iii) fails augmented matrices
        assert set(decided) == {("SingularComplementBlock", True), ("SingularComplement", True),
                                ("SingularComplement", False)}
        assert min(decided.values()) >= 20

    def test_cap_off_decides_every_guard_by_eigvalsh(self, monkeypatch):
        certificates = []
        guard = schur._guard

        def recorded(matrix, rcond, exc, certificate):
            certificates.append(certificate)
            return guard(matrix, rcond, exc, certificate)

        monkeypatch.setattr(schur, "_guard", recorded)
        allocate(factor_model_sample(60, 7), AllocationConfig(gammas=1.0, adaptive_cap=False))
        assert len(certificates) > 0 and set(certificates) == {None}

    def test_factor_model_factorizations_per_call(self, monkeypatch):
        # n = 250 at gamma 1: 63 splits, 54 halvings and 64 terminal blocks, each
        # terminal guarded by an eigvalsh. Each split factors both sides' blocks and
        # both gamma = 1 blends. Every guard an eigvalsh, the call took 389
        cov = factor_model_sample(250, 101)
        counts = {}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        report = allocate(cov, AllocationConfig(gammas=1.0))
        assert len(report.splits) == 63 and sum(s.halvings for s in report.splits) == 54
        assert counts == {"cholesky": 4 * 63, "eigvalsh": 103}

    def test_split_side_holds_two_blocks(self):
        # own - gamma S is built and symmetrized in one buffer and divided by b b'
        # into it: the complement and one temporary, not three blocks
        sp = split(random_pd(np.random.default_rng(3), 1000, ridge=0.01), 500)
        gammas = GammaPair(0.5 * min(max_feasible_gamma(sp, side) for side in ("A", "D")))
        block = 500 * 500 * 8
        for side in ("A", "D"):
            tracemalloc.start()
            try:
                augment_intra(sp, side, gammas)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * block + 2 ** 20
