import ctypes
import json
import logging
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import schur_alloc
from schur_alloc import (
    AllocationConfig,
    GammaPair,
    allocate,
    allocate_exact,
    augment_intra,
    b_vector,
    max_feasible_gamma,
    min_var_unit,
    portfolio_variance,
    schur_complement,
    split,
)
from schur_alloc import allocator, covmat, fitness, portfolio, shrinkage
from schur_alloc.errors import (
    DimensionMismatch,
    InputError,
    NotPSD,
    NumericalError,
    SingularComplement,
    XiOutOfRange,
    ZeroVariance,
)
from schur_alloc.seriation import Permutation, permute_matrix, permute_vector
from schur_alloc.shrinkage import MIN_GRID_STEP
from schur_alloc.sim import PROFILES, default_allocation

from conftest import UNSTABLE_MINVAR, equicorrelated, random_pd


def equi3():
    return equicorrelated(3, 0.5)


def config(**kwargs) -> AllocationConfig:
    defaults = dict(terminal="minvar", terminal_size=1, seriation="identity")
    defaults.update(kwargs)
    return AllocationConfig(**defaults)


def desk_estimate(trial: int = 0) -> covmat.CovarianceMatrix:
    """A p = 40, T = 30 estimate drawn as one trial of the desk simulation profile."""
    desk = PROFILES["desk"]
    rng = np.random.default_rng([0, trial])
    anchor = covmat.rand_symm_cov(desk["p"], desk["rho"], rng)
    sigma_true = covmat.empirical_covariance(covmat.sample_gaussian(anchor, desk["a"], rng))
    return covmat.empirical_covariance(covmat.sample_gaussian(sigma_true, desk["o"], rng))


def ill_scaled_sample(samples: int) -> tuple[np.ndarray, np.ndarray]:
    """A 20-asset sample covariance of `samples` draws, and the same with per-asset
    scales 10**U(-6, 6), so variances spread over 1e-12..1e12."""
    rng = np.random.default_rng(0)
    cov = np.cov(rng.standard_normal((samples, 20)), rowvar=False)
    vol = 10.0 ** rng.uniform(-6, 6, 20)
    return cov, cov * np.outer(vol, vol)


def table1_reference_weights(cov: np.ndarray, k: int, mode: str) -> np.ndarray:
    """Brute-force one level of the two augmented-matrix recursion.

    Independent of the allocator: builds the intra and inter matrices
    directly from their definitions and combines closed-form child solves.
    """
    sp = split(cov, k)
    out = []
    for side in ("A", "D"):
        comp = schur_complement(sp, side, 1.0)
        b = b_vector(sp, side, 1.0)
        intra = comp / np.outer(b, b)
        inter = np.linalg.inv(np.linalg.inv(comp) * np.outer(b, b))
        child = min_var_unit(intra) if intra.shape[0] > 1 else np.ones(1)
        nu = 1.0 / np.linalg.solve(inter, np.ones(inter.shape[0])).sum()
        if mode == "debiased":
            child = child / b
        out.append(child / nu)
    w = np.concatenate(out)
    return w / w.sum()


class TestConfig:
    def test_hrp_forces_zero_gamma(self):
        cfg = AllocationConfig(gammas=GammaPair(0.8), mode="hrp")
        assert cfg.gammas.gamma_c == 0.0
        assert cfg.gammas.gamma_b == 0.0

    def test_bad_mode(self):
        with pytest.raises(InputError):
            AllocationConfig(mode="bogus")

    def test_bad_terminal_size(self):
        with pytest.raises(InputError):
            AllocationConfig(terminal_size=0)

    def test_dict_round_trip(self):
        cfg = AllocationConfig(gammas=GammaPair(0.5, 0.25), mode="schur_literal",
                               fitness="minvar_variance", terminal="weak_minvar",
                               terminal_size=3, seriation="identity")
        back = AllocationConfig.from_dict(cfg.to_dict())
        assert back == cfg

        # every field away from its default
        tuned = AllocationConfig(gammas=GammaPair(0.5, 0.25), mode="schur_literal",
                                 fitness="minvar_variance", terminal="weak_minvar",
                                 terminal_size=3, seriation="identity", adaptive_cap=False)
        default = AllocationConfig().to_dict()
        assert all(value != default[key] for key, value in tuned.to_dict().items())
        assert AllocationConfig.from_dict(tuned.to_dict()) == tuned
        moved = tuned.with_gamma(0.9)
        assert moved.gammas == GammaPair(0.9)
        assert moved == AllocationConfig(**{**vars(tuned), "gammas": GammaPair(0.9)})
        assert json.dumps(tuned.to_dict()) == (
            '{"gamma": 0.5, "gamma_b": 0.25, "mode": "schur_literal", '
            '"fitness": "minvar_variance", "terminal": "weak_minvar", "terminal_size": 3, '
            '"seriation": "identity", "adaptive_cap": false}'
        )

    def test_from_dict_value_kinds(self):
        loaded = AllocationConfig.from_dict({"gamma": 1, "gamma_b": None, "terminal_size": 3})
        assert loaded.gammas == GammaPair(1.0) and loaded.terminal_size == 3
        for bad in ({"terminal_size": 5.0}, {"terminal_size": True}, {"gamma": "1"},
                    {"adaptive_cap": 1}, {"mode": None}):
            with pytest.raises(InputError, match=f"field '{next(iter(bad))}'"):
                AllocationConfig.from_dict(bad)

    @pytest.mark.parametrize("name, value", [
        ("rcond", math.nan), ("rcond", -1.0), ("rcond", 0.0), ("rcond", 1.0), ("rcond", math.inf),
        ("eps_b", math.nan), ("eps_b", 0.0), ("eps_b", 1.0), ("eps_b", -1e-6),
        ("eps_pd", math.nan), ("eps_pd", -1e-8), ("eps_pd", math.inf),
        ("shrink_grid_step", math.nan), ("shrink_grid_step", 0.0), ("shrink_grid_step", 1.5),
    ])
    def test_bad_threshold(self, name, value):
        # the solver thresholds are constants, not config fields: a config that still
        # sets one is refused by the key's name, before its value is read
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            AllocationConfig(**{name: value})
        with pytest.raises(InputError, match=f"^unknown AllocationConfig keys: {name}$"):
            AllocationConfig.from_dict({name: value})

    @pytest.mark.parametrize("step", [0.99 * MIN_GRID_STEP, 1e-6])
    def test_grid_step_below_minimum(self, step):
        # a grid step is set only where weak_shrink is called directly or through the
        # public fitness; both refuse a step below MIN_GRID_STEP
        with pytest.raises(InputError, match="^unknown AllocationConfig keys: shrink_grid_step$"):
            AllocationConfig.from_dict({"shrink_grid_step": step})
        with pytest.raises(XiOutOfRange, match="^grid_step=.*MIN_GRID_STEP"):
            fitness(equi3(), "weak_minvar_variance", shrink_grid_step=step)

    @pytest.mark.parametrize("gammas", [(0.6, 0.2), [0.6, 0.2], 0.6, [0.6], (0.6, None)])
    def test_gammas_coerced_once(self, gammas):
        expected = GammaPair(*gammas) if isinstance(gammas, (tuple, list)) else GammaPair(gammas)
        assert GammaPair.coerce(gammas) == expected
        assert AllocationConfig(gammas=gammas).gammas == expected

    @pytest.mark.parametrize("bad", ["0.5", True, None, {}, (), (0.1, 0.2, 0.3), ("0.5",),
                                     (None,), (0.5, True)])
    def test_bad_gammas(self, bad):
        with pytest.raises(InputError, match="^gammas needs"):
            AllocationConfig(gammas=bad)
        with pytest.raises(InputError, match="^gammas needs"):
            allocate_exact(random_pd(np.random.default_rng(0), 4), gammas=bad)


class TestAllocateFootprint:
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_input_validated_once(self, monkeypatch, gamma):
        calls = []
        validate = covmat._validated_square

        def counted(values):
            calls.append(values.shape)
            return validate(values)

        desk = desk_estimate().values
        monkeypatch.setattr(covmat, "_validated_square", counted)
        cov = random_pd(np.random.default_rng(12), 40)
        allocate(cov, AllocationConfig().with_gamma(gamma))
        assert calls == [(40, 40)]
        # the paper's configuration: the input once, then each of the 14 weak_shrink
        # calls once on its own block, not again when it builds the shrunk matrix
        calls.clear()
        report = allocate(desk, default_allocation().with_gamma(gamma))
        assert len(report.splits) == 7
        assert calls[0] == (40, 40) and len(calls) == 15

    @pytest.mark.parametrize("mode", ["hrp", "schur_literal", "schur_debiased"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_no_svd(self, monkeypatch, mode, gamma):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.svd called inside allocate")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        rng = np.random.default_rng(13)
        t_lt_n = np.cov(rng.standard_normal((30, 60)), rowvar=False)
        for cov, cfg in ((random_pd(rng, 40), config(mode=mode)),
                         (t_lt_n, config(mode=mode, terminal_size=1)),
                         (t_lt_n, replace(default_allocation(), mode=mode))):
            allocate(cov, cfg.with_gamma(gamma))

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_terminal_block_shrunk_once(self, monkeypatch, gamma):
        # a weak_minvar terminal's shrinkage serves its parent's weak_minvar_variance
        # fitness: 8 terminals and 7 splits make 14 calls, not 8 + 14
        inputs = []

        def counted(cov, *args, **kwargs):
            values = np.asarray(cov)
            inputs.append((values.shape, values.tobytes()))
            return shrink(cov, *args, **kwargs)

        shrink = shrinkage.weak_shrink
        monkeypatch.setattr(allocator, "weak_shrink", counted)
        monkeypatch.setattr(portfolio, "weak_shrink", counted)
        report = allocate(desk_estimate(), default_allocation().with_gamma(gamma))
        assert len(report.splits) == 7
        assert len(inputs) == 14
        assert len(set(inputs)) == len(inputs)

    def test_terminal_shrinkage_reaches_its_own_fitness(self, monkeypatch):
        # each child's nu, handed a terminal's shrunk weights or not, must equal the public
        # fitness of that very block: a result handed to the wrong side would differ
        recorded = []

        def recording(values, kind, child_weights, handed=None, **thresholds):
            nu = fit(values, kind, child_weights, handed, **thresholds)
            recorded.append((values, child_weights, handed, thresholds, nu))
            return nu

        fit = allocator._fitness
        monkeypatch.setattr(allocator, "_fitness", recording)
        cfg = default_allocation()
        for trial in (0, 1):
            for gamma in (0.0, 0.5, 1.0):
                allocate(desk_estimate(trial), cfg.with_gamma(gamma))
        assert len(recorded) == 2 * 3 * 14
        for values, child_weights, handed, thresholds, nu in recorded:
            # the recursion runs fitness at its default thresholds
            assert thresholds == {}
            assert (handed is not None) == (1 < values.shape[0] <= cfg.terminal_size)
            if handed is not None:
                # a weak terminal's weights are the very vector it hands up
                assert child_weights.tobytes() == handed.tobytes()
            fresh = fitness(values, "weak_minvar_variance")
            assert nu == fresh

    @pytest.mark.parametrize("samples", [30, 12])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_ill_scaled_sample_covariance_allocates(self, samples, gamma):
        # variances spread over 1e-12..1e12: a weak terminal is judged only by
        # weak_shrink's correlation-form test, never on the raw block's scale
        cov = ill_scaled_sample(samples)[1]
        weights = allocate(cov, default_allocation().with_gamma(gamma)).weights
        assert np.all(np.isfinite(weights))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zeroed_gamma_logs_one_warning(self, caplog):
        # the hard T < n input without the cap: one split runs out of halvings and
        # drops to gamma 0; with the cap no split does
        cov = np.cov(np.random.default_rng(0).standard_normal((30, 60)), rowvar=False)
        capped = AllocationConfig(terminal_size=1)
        hard = replace(capped, adaptive_cap=False)
        with caplog.at_level(logging.WARNING, logger="schur_alloc"):
            report = allocate(cov, hard.with_gamma(1.0))
            zeroed = sum(s.gamma_zeroed for s in report.splits)
            assert zeroed > 0
            assert [r.levelname for r in caplog.records] == ["WARNING"]
            assert caplog.records[0].name == "schur_alloc"
            assert f"gamma zeroed at {zeroed} of {len(report.splits)} splits" in caplog.text
            caplog.clear()
            allocate(cov, capped.with_gamma(0.5))
            allocate(cov, capped.with_gamma(1.0))
            allocate(random_pd(np.random.default_rng(1), 30), hard.with_gamma(1.0))
            assert caplog.records == []

    def test_coupling_lost_at_every_split_logs_one_warning(self, caplog):
        # on the ill-scaled estimate the cap, not the retry loop, sets every split's
        # gamma to 0, so no split is gamma_zeroed; the unscaled estimate keeps its coupling
        plain, scaled = ill_scaled_sample(30)
        cfg = default_allocation()
        for cov, gamma, warned in ((scaled, 0.0, False), (scaled, 0.5, True),
                                   (scaled, 1.0, True), (plain, 0.5, False), (plain, 1.0, False)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="schur_alloc"):
                splits = allocate(cov, cfg.with_gamma(gamma)).splits
            at_zero = [s.gamma_c == s.gamma_b == 0.0 for s in splits]
            assert len(splits) == 3 and all(at_zero) == (cov is scaled)
            assert [(r.name, r.levelname) for r in caplog.records] == (
                [("schur_alloc", "WARNING")] if warned else [])
            if warned:
                assert not any(s.gamma_zeroed or s.halvings for s in splits)
                assert (f"gamma ({gamma:g}, {gamma:g}) requested, but all 3 splits ran at "
                        "gamma 0: 3 capped to 0, 0 zeroed after 5 halvings") in caplog.text

    def test_numpy_ma_never_imported(self):
        # numpy.ma adds about 1.5 MB of resident memory to every process that loads it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import schur_alloc\n"
            "from schur_alloc.sim import default_allocation\n"
            "m = np.random.default_rng(0).standard_normal((30, 40))\n"
            "schur_alloc.allocate(np.cov(m.T), default_allocation().with_gamma(1.0))\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        src = str(Path(schur_alloc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_malloc_thresholds_fixed_at_import(self):
        # glibc's own rule would, after a freed 16 MiB block, serve the 2 MB block from the
        # heap and keep up to 32 MiB of free heap top resident: here the 2 MB block is mapped
        # and the 11.5 MB freed by the 16 smaller blocks goes back once the top passes 8 MiB
        if platform.libc_ver()[0] != "glibc" or not hasattr(ctypes.CDLL(None), "mallinfo2"):
            pytest.skip("needs glibc 2.33 or later")
        code = (
            "import ctypes\n"
            "import numpy as np\n"
            "import schur_alloc\n"
            "class Info(ctypes.Structure):\n"
            "    _fields_ = [(f, ctypes.c_size_t) for f in ('arena', 'ordblks', 'smblks',\n"
            "                'hblks', 'hblkhd', 'usmblks', 'fsmblks', 'uordblks')]\n"
            "libc = ctypes.CDLL(None)\n"
            "libc.mallinfo2.restype = Info\n"
            "np.ones(2 ** 21).sum()\n"
            "mapped = libc.mallinfo2().hblkhd\n"
            "block = np.ones((500, 500))\n"
            "assert libc.mallinfo2().hblkhd - mapped >= block.nbytes, 'block not mapped'\n"
            "heap = libc.mallinfo2().arena\n"
            "blocks = [np.ones((300, 300)) for _ in range(16)]\n"
            "del blocks\n"
            "assert libc.mallinfo2().arena - heap < 2 ** 23, 'free heap top kept'\n"
        )
        src = str(Path(schur_alloc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestAllocateGoldenVectors:
    def test_hrp_breaks_symmetry(self):
        report = allocate(equi3(), config(mode="hrp", fitness="subportfolio_variance"))
        np.testing.assert_allclose(report.weights, [2 / 7, 2 / 7, 3 / 7], atol=1e-12)

    def test_debiased_restores_symmetry(self):
        cfg = config(gammas=1.0, mode="schur_debiased", fitness="minvar_variance")
        report = allocate(equi3(), cfg)
        np.testing.assert_allclose(report.weights, np.full(3, 1 / 3), atol=1e-10)

    def test_literal_differs(self):
        cfg = config(gammas=1.0, mode="schur_literal", fitness="minvar_variance")
        report = allocate(equi3(), cfg)
        # confirmed against the independent one-level brute force below
        np.testing.assert_allclose(report.weights, [3 / 8, 3 / 8, 1 / 4], atol=1e-10)
        brute = table1_reference_weights(equi3(), 2, "literal")
        np.testing.assert_allclose(report.weights, brute, atol=1e-10)

    def test_debiased_matches_brute_force(self):
        cfg = config(gammas=1.0, mode="schur_debiased", fitness="minvar_variance")
        report = allocate(equi3(), cfg)
        brute = table1_reference_weights(equi3(), 2, "debiased")
        np.testing.assert_allclose(report.weights, brute, atol=1e-10)

    def test_identity_matrix_equal_weights(self):
        for mode in ("hrp", "schur_literal", "schur_debiased"):
            for gamma in (0.0, 0.5, 1.0):
                cfg = config(gammas=gamma, mode=mode, fitness="minvar_variance")
                report = allocate(np.eye(6), cfg)
                np.testing.assert_allclose(report.weights, np.full(6, 1 / 6), atol=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVariance):
            allocate(np.diag([1.0, 0.0]), config())

    @pytest.mark.parametrize("terminal", ["inverse_variance", "weak_minvar"])
    def test_lost_variance_is_numerical(self, terminal):
        # T < n with the cap off: at gamma 1 an augmented block has a
        # non-positive diagonal, which is not the caller's input error
        cov = np.cov(np.random.default_rng(0).standard_normal((4, 6)), rowvar=False)
        with pytest.raises(NotPSD) as info:
            allocate(cov, AllocationConfig(gammas=1.0, adaptive_cap=False, terminal=terminal))
        assert isinstance(info.value, NumericalError)
        assert isinstance(info.value.__cause__, ZeroVariance)

    @pytest.mark.parametrize("seed, terminal_size", [(7, 1), (0, 5)])
    def test_non_positive_fitness_is_numerical(self, seed, terminal_size):
        # T < n with the cap off, a split's inverse fitness comes out 0 or slightly
        # negative: seed 7 drops a 2x2 block to gamma 0 whose 1x1 halves give nu 0.0
        # and -6.8e-18 (all-NaN weights before), seed 0 gives -8.6e-19 and -5.9e-19
        # at the top split (finite weights built on them before)
        cov = np.cov(np.random.default_rng(seed).standard_normal((4, 6)), rowvar=False)
        cfg = AllocationConfig(gammas=1.0, adaptive_cap=False, terminal_size=terminal_size)
        with pytest.raises(NotPSD, match="inverse fitness is not positive"):
            allocate(cov, cfg)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionMismatch):
            allocate(np.zeros((0, 0)))


class TestAllocateInvariants:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for mode in ("hrp", "schur_literal", "schur_debiased"):
            for _ in range(5):
                cov = random_pd(rng, 9)
                cfg = AllocationConfig(gammas=0.6, mode=mode, terminal_size=2,
                                       fitness="subportfolio_variance")
                report = allocate(cov, cfg)
                assert abs(report.weights.sum() - 1.0) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        cov = random_pd(rng, 8)
        for mode in ("hrp", "schur_literal", "schur_debiased"):
            for kind in ("subportfolio_variance", "minvar_variance"):
                cfg = AllocationConfig(gammas=0.7, mode=mode, fitness=kind,
                                       terminal_size=2)
                base = allocate(cov, cfg).weights
                scaled = allocate(17.0 * cov, cfg).weights
                np.testing.assert_allclose(base, scaled, atol=1e-10)

    def test_scale_invariance_at_one_asset_terminals(self):
        # every guard reads ratios, so 1x1 sides and budgets give the same verdict in any
        # unit: a power of 4 scales every product exactly, 1e12 within rounding
        rng = np.random.default_rng(21)
        cfg = AllocationConfig(terminal_size=1)
        for _ in range(40):
            cov = random_pd(rng, int(rng.integers(3, 30)), ridge=0.01)
            for gammas in (0.3, GammaPair(0.6, 0.2), 1.0):
                base = allocate(cov, replace(cfg, gammas=gammas))
                exact = allocate(4.0 ** 10 * cov, replace(cfg, gammas=gammas))
                np.testing.assert_array_equal(exact.weights, base.weights, strict=True)
                assert [(s.gamma_c, s.gamma_b, s.halvings) for s in exact.splits] == [
                    (s.gamma_c, s.gamma_b, s.halvings) for s in base.splits]
                large = allocate(1e12 * cov, replace(cfg, gammas=gammas)).weights
                np.testing.assert_allclose(large, base.weights, rtol=0, atol=1e-8)

    def test_gamma_zero_bitwise_equals_hrp(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cov = random_pd(rng, rng.integers(3, 12))
            hrp = allocate(cov, AllocationConfig(mode="hrp", terminal_size=2)).weights
            for mode in ("schur_literal", "schur_debiased"):
                cfg = AllocationConfig(gammas=GammaPair(0.0, 0.0), mode=mode,
                                       terminal_size=2)
                np.testing.assert_array_equal(allocate(cov, cfg).weights, hrp)

    def test_debiased_gamma_one_is_exact(self):
        rng = np.random.default_rng(3)
        for n in (4, 7, 11, 16):
            cov = random_pd(rng, n)
            for m in (1, 2, 3):
                cfg = AllocationConfig(gammas=1.0, mode="schur_debiased",
                                       fitness="minvar_variance", terminal="minvar",
                                       terminal_size=m, adaptive_cap=False)
                report = allocate(cov, cfg)
                np.testing.assert_allclose(report.weights, min_var_unit(cov), atol=1e-8)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        cov = random_pd(rng, 8)
        cfg = AllocationConfig(gammas=0.5, mode="schur_debiased",
                               fitness="subportfolio_variance", terminal_size=2)
        base = allocate(cov, cfg).weights
        for _ in range(5):
            perm = Permutation(tuple(rng.permutation(8).tolist()))
            permuted = allocate(permute_matrix(cov, perm), cfg).weights
            np.testing.assert_allclose(permuted, permute_vector(base, perm), atol=1e-10)

    def test_seriation_round_trip(self):
        # the pipeline equals: permute, allocate with identity order, unpermute
        from schur_alloc import seriate, unpermute_weights

        rng = np.random.default_rng(5)
        cov = random_pd(rng, 7)
        cfg = AllocationConfig(gammas=0.4, mode="schur_debiased", terminal_size=2,
                               fitness="subportfolio_variance")
        full = allocate(cov, cfg).weights
        perm = seriate(cov)
        inner = allocate(permute_matrix(cov, perm),
                         AllocationConfig(gammas=0.4, mode="schur_debiased",
                                          terminal_size=2,
                                          fitness="subportfolio_variance",
                                          seriation="identity")).weights
        np.testing.assert_array_equal(full, unpermute_weights(inner, perm))

    def test_variance_monotone_in_gamma_on_equicorrelated(self):
        for rho in (0.2, 0.5, 0.8):
            cov = equicorrelated(3, rho)
            variances = []
            for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
                cfg = config(gammas=float(gamma), mode="schur_debiased",
                             fitness="minvar_variance")
                variances.append(portfolio_variance(cov, allocate(cov, cfg).weights))
            assert all(b <= a + 1e-12 for a, b in zip(variances, variances[1:]))

    def test_intra_matrix_nu_consistency(self):
        # 1' (A'')^-1 1 must equal b' (A^c)^-1 b, the inter-group budget
        rng = np.random.default_rng(6)
        for _ in range(10):
            cov = random_pd(rng, 6)
            sp = split(cov, 3)
            gammas = GammaPair(rng.uniform(0.2, 1.0))
            intra = augment_intra(sp, "A", gammas)
            comp = schur_complement(sp, "A", gammas.gamma_c)
            b = b_vector(sp, "A", gammas.gamma_b)
            lhs = np.linalg.solve(intra, np.ones(3)).sum()
            rhs = b @ np.linalg.solve(comp, b)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_degenerate_b_falls_back(self):
        # near-duplicate assets drive a b entry through zero; without the
        # adaptive cap the split must retry and still produce weights
        eps = 5e-7
        cov = np.array([
            [1.0, 1.0 - eps, 0.1],
            [1.0 - eps, 1.0, 0.1],
            [0.1, 0.1, 1.0],
        ])
        cfg = config(gammas=1.0, mode="schur_debiased", fitness="minvar_variance",
                     adaptive_cap=False)
        report = allocate(cov, cfg)
        assert abs(report.weights.sum() - 1.0) < 1e-12
        assert any(s.halvings > 0 or s.gamma_zeroed for s in report.splits)

    def test_terminal_methods(self):
        cov = np.diag([1.0, 2.0, 4.0])
        inv_var = allocate(cov, config(terminal="inverse_variance", terminal_size=3))
        np.testing.assert_allclose(inv_var.weights, np.array([4, 2, 1]) / 7.0)
        equal = allocate(cov, config(terminal="equal_weight", terminal_size=3))
        np.testing.assert_allclose(equal.weights, np.full(3, 1 / 3))

    def test_adaptive_cap_recorded_in_diagnostics(self):
        rng = np.random.default_rng(7)
        cov = random_pd(rng, 6)
        cfg = AllocationConfig(gammas=1.0, mode="schur_debiased",
                               fitness="minvar_variance", terminal_size=2)
        report = allocate(cov, cfg)
        assert all(0.0 <= s.gamma_c <= 1.0 for s in report.splits)
        assert all(s.size > s.k >= 1 for s in report.splits)

    def test_capped_split_near_b_floor_retries(self):
        # the cap stops where b reaches eps_b; the augmented matrix of that
        # side is then too ill-conditioned, and the split runs at half the cap
        cov = random_pd(np.random.default_rng(7), 4, ridge=0.01)
        sp = split(cov, 2)
        cap = min(max_feasible_gamma(sp, side) for side in ("A", "D"))
        assert 0.0 < cap < 1.0
        assert min(np.abs(b_vector(sp, side, cap)).min() for side in ("A", "D")) < 1e-5
        with pytest.raises(SingularComplement):
            for side in ("A", "D"):
                augment_intra(sp, side, GammaPair(cap))
        top = allocate(cov, config(gammas=1.0)).splits[-1]
        assert top.size == 4 and top.halvings == 1 and not top.gamma_zeroed
        assert top.gamma_c == pytest.approx(cap / 2)


class TestAllocateExact:
    def test_matches_min_var_unit(self):
        rng = np.random.default_rng(8)
        for n in (3, 5, 8, 10):
            cov = random_pd(rng, n)
            expected = min_var_unit(cov)
            for m in (1, 2, 3):
                sol = allocate_exact(cov, m=m)
                np.testing.assert_allclose(sol.weights, expected, atol=1e-8)

    def test_every_split_index(self):
        rng = np.random.default_rng(9)
        cov = random_pd(rng, 7)
        expected = min_var_unit(cov)
        for k in range(1, 7):
            sol = allocate_exact(cov, split_at=lambda n, k=k: min(k, n - 1))
            np.testing.assert_allclose(sol.weights, expected, atol=1e-8)

    def test_unstable_reference(self, unstable_4x4):
        sol = allocate_exact(unstable_4x4)
        np.testing.assert_allclose(sol.weights, UNSTABLE_MINVAR, atol=1e-3)

    def test_block_diagonal_gamma_free(self):
        cov = np.block([
            [equicorrelated(2, 0.3), np.zeros((2, 2))],
            [np.zeros((2, 2)), equicorrelated(2, 0.6)],
        ])
        # m=2 stops the recursion at the blocks, where B=0 makes gamma moot
        zero = allocate_exact(cov, gammas=0.0, m=2)
        one = allocate_exact(cov, gammas=1.0, m=2)
        np.testing.assert_array_equal(zero.values, one.values)

    def test_general_budget(self):
        rng = np.random.default_rng(10)
        cov = random_pd(rng, 6)
        b = rng.uniform(0.5, 2.0, size=6)
        sol = allocate_exact(cov, b=b)
        direct = np.linalg.solve(cov, b)
        np.testing.assert_allclose(sol.values, direct, atol=1e-8)
        assert sol.weights @ b == pytest.approx(1.0)

    def test_gammas_of_any_accepted_form(self):
        cov = random_pd(np.random.default_rng(14), 7)
        expected = allocate_exact(cov, gammas=GammaPair(0.6)).weights
        for gammas in ((0.6, 0.6), [0.6, 0.6], 0.6, [0.6]):
            np.testing.assert_array_equal(allocate_exact(cov, gammas=gammas).weights, expected)
        pair = allocate_exact(cov, gammas=GammaPair(0.6, 0.2)).weights
        for gammas in ((0.6, 0.2), [0.6, 0.2]):
            np.testing.assert_array_equal(allocate_exact(cov, gammas=gammas).weights, pair)

    def test_scaled_solution_identity(self):
        rng = np.random.default_rng(11)
        cov = random_pd(rng, 5)
        sol = allocate_exact(cov)
        np.testing.assert_allclose(sol.values * sol.fitness, sol.weights, atol=1e-10)
