import pytest

from schur_alloc import AllocationConfig, ExperimentConfig, run_experiment, summarize
from schur_alloc.errors import EmptyResult, InputError
from schur_alloc.sim import (
    ExperimentResult,
    TrialRow,
    _run_trial,
    default_allocation,
    write_result_csv,
    write_summary_csv,
    write_summary_svg,
)


def small_config(**kwargs) -> ExperimentConfig:
    # light allocation profile so unit tests stay fast
    allocation = AllocationConfig(mode="schur_debiased", fitness="minvar_variance",
                                  terminal="minvar", terminal_size=3)
    defaults = dict(p=8, rho=0.3, a=20, o=15, gamma_grid=(0.0, 0.5, 1.0),
                    trials=3, seed=11, allocation=allocation)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_grid_must_contain_zero(self):
        with pytest.raises(InputError):
            small_config(gamma_grid=(0.5, 1.0))

    def test_gamma_range(self):
        with pytest.raises(InputError):
            small_config(gamma_grid=(0.0, 1.5))

    def test_p_vs_terminal_size(self):
        with pytest.raises(InputError):
            small_config(p=4)

    def test_sample_counts(self):
        with pytest.raises(InputError):
            small_config(a=1)

    def test_dict_round_trip(self):
        cfg = small_config()
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_null_allocation_is_the_default(self):
        cfg = ExperimentConfig.from_dict({"p": 20, "allocation": None})
        assert cfg.allocation == default_allocation()


class TestRunExperiment:
    def test_gamma_zero_normalizes_to_one(self):
        result = run_experiment(small_config(gamma_grid=(0.0,)))
        assert result.rows
        assert all(row.normalized == 1.0 for row in result.rows)

    def test_deterministic(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a.rows == b.rows

    def test_trials_are_order_independent(self):
        cfg = small_config()
        full = run_experiment(cfg)
        rows_by_trial = {}
        for trial in reversed(range(cfg.trials)):
            rows_by_trial[trial] = _run_trial(cfg, trial)
        reassembled = [row for t in range(cfg.trials) for row in rows_by_trial[t]]
        assert full.rows == reassembled

    def test_estimate_equals_truth_limit(self):
        # with o >> p the estimate converges to the truth, so full-gamma
        # optimization cannot lose out of sample
        cfg = small_config(o=20_000, trials=1, gamma_grid=(0.0, 1.0))
        result = run_experiment(cfg)
        at_one = [row.normalized for row in result.rows if row.gamma == 1.0]
        assert at_one[0] <= 1.0 + 1e-2


class TestSummarize:
    def test_single_trial(self):
        result = run_experiment(small_config(trials=1))
        summary = summarize(result)
        by_gamma = {row.gamma: row.normalized for row in result.rows}
        for entry in summary:
            assert entry["mean"] == by_gamma[entry["gamma"]]
            assert entry["median"] == by_gamma[entry["gamma"]]

    def test_two_value_mean(self):
        rows = [TrialRow(0, 0.5, 1.0, 0.9), TrialRow(1, 0.5, 1.0, 1.1)]
        summary = summarize(ExperimentResult(config=small_config(), rows=rows))
        assert summary[0]["mean"] == pytest.approx(1.0)

    def test_constant_quantiles(self):
        rows = [TrialRow(t, 0.0, 2.0, 1.0) for t in range(5)]
        summary = summarize(ExperimentResult(config=small_config(), rows=rows))
        assert summary[0]["q10"] == summary[0]["q90"] == 1.0

    def test_empty_result(self):
        with pytest.raises(EmptyResult):
            summarize(ExperimentResult(config=small_config(), rows=[]))


class TestOutputs:
    def test_csv_byte_identical(self, tmp_path):
        cfg = small_config()
        for name in ("a.csv", "b.csv"):
            result = run_experiment(cfg)
            write_result_csv(result, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_summary_csv_header(self, tmp_path):
        result = run_experiment(small_config(trials=1))
        path = tmp_path / "summary.csv"
        write_summary_csv(summarize(result), path)
        assert path.read_text().splitlines()[0] == "gamma,mean,median,q10,q90"

    def test_svg_written(self, tmp_path):
        result = run_experiment(small_config(trials=1))
        path = tmp_path / "curve.svg"
        write_summary_svg(summarize(result), path)
        text = path.read_text()
        assert text.startswith("<svg") and "polyline" in text
