import numpy as np
import pytest

from schur_alloc import (
    GammaPair,
    augment_intra,
    b_vector,
    max_feasible_gamma,
    schur,
    schur_complement,
    split,
)
from schur_alloc._linalg import checked_solve, symmetrize
from schur_alloc.errors import (
    BadIndex,
    DegenerateBVector,
    InputError,
    NumericalError,
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
        # zero complement, b = 1: the first pivot fails
        ([[1.0, 1.0], [1.0, 1.0]], 1, GammaPair(1.0, 0.0), 1e-6),
        # complement 0.5, b = 1e-7: only the second pivot b^2 / A^c fails
        ([[1.0, 0.5], [0.5, 0.5]], 1, GammaPair(1.0, 1.0 - 1e-7), 1e-8),
        # complement ~1e-13, b = 0.1: the first pivot fails, although
        # A'' ~1e-11 itself would pass a pivot test
        ([[0.81 + 1e-13, 0.9], [0.9, 1.0]], 1, GammaPair(1.0), 1e-6),
    ])
    def test_one_by_one_pivots(self, cov, k, gammas, eps_b):
        sp = split(np.array(cov), k)
        assert raised(double_inversion, sp, "A", gammas, eps_b) is SingularComplement
        with pytest.raises(SingularComplement):
            augment_intra(sp, "A", gammas, eps_b=eps_b)


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

    def test_cap_is_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            cov = random_pd(rng, 6, ridge=0.01)
            sp = split(cov, 3)
            cap = max_feasible_gamma(sp, "A")
            if cap > 0.0:
                comp = schur_complement(sp, "A", cap)
                assert np.linalg.eigvalsh(comp).min() > 0.0


class TestSolvedOnce:
    def test_complementary_block_solved_at_most_twice_per_side(self, monkeypatch):
        # both sides of this split are capped, so the cap bisects on each
        sp = split(random_pd(np.random.default_rng(3), 7, ridge=0.01), 4)
        solves = {"A": 0, "D": 0}
        original = schur.checked_solve

        def counting(matrix, rhs, **kwargs):
            # the complementary block is a view of the parent; D is 3x3, A is 4x4
            if np.shares_memory(matrix, sp.parent):
                solves["A" if matrix.shape[0] == 3 else "D"] += 1
            return original(matrix, rhs, **kwargs)

        monkeypatch.setattr(schur, "checked_solve", counting)
        caps = [max_feasible_gamma(sp, side) for side in ("A", "D")]
        assert max(caps) < 1.0
        gammas = GammaPair(min(caps)).scaled(0.5)
        for side in ("A", "D"):
            augment_intra(sp, side, gammas)
            b_vector(sp, side, gammas.gamma_b)
        assert solves["A"] <= 2 and solves["D"] <= 2

    def test_singular_complementary_block_caps_at_zero(self, monkeypatch):
        cov = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        sp = split(cov, 1)
        original = schur.checked_solve
        calls = []

        def counting(matrix, rhs, **kwargs):
            calls.append(matrix.shape)
            return original(matrix, rhs, **kwargs)

        monkeypatch.setattr(schur, "checked_solve", counting)
        assert max_feasible_gamma(sp, "A") == 0.0
        assert calls == [(2, 2)]
        with pytest.raises(SingularComplementBlock):
            augment_intra(sp, "A", GammaPair(0.5))
