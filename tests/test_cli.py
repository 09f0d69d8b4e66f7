import json
import logging

import numpy as np
import pytest

from schur_alloc.cli import main
from schur_alloc.covmat import read_matrix_csv
from schur_alloc.portfolio import portfolio_variance

from conftest import UNSTABLE_4X4, equicorrelated


@pytest.fixture
def equi3_csv(tmp_path):
    path = tmp_path / "equi3.csv"
    rows = "\n".join(",".join(f"{x:.17g}" for x in row) for row in equicorrelated(3, 0.5))
    path.write_text(rows + "\n")
    return str(path)


@pytest.fixture
def unstable_csv(tmp_path):
    rows = "\n".join(",".join(f"{x:.17g}" for x in row) for row in UNSTABLE_4X4)
    path = tmp_path / "unstable.csv"
    path.write_text(rows + "\n")
    return str(path)


class TestAllocate:
    def test_debiased_full_gamma(self, equi3_csv, tmp_path):
        out = tmp_path / "w.json"
        code = main(["allocate", "--cov", equi3_csv, "--gamma", "1",
                     "--mode", "schur_debiased", "--fitness", "minvar_variance",
                     "--terminal", "minvar", "--m", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        np.testing.assert_allclose(payload["weights"], [1 / 3] * 3, atol=1e-10)

    def test_hrp(self, equi3_csv, tmp_path):
        out = tmp_path / "w.json"
        code = main(["allocate", "--cov", equi3_csv, "--gamma", "0", "--mode", "hrp",
                     "--m", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        np.testing.assert_allclose(payload["weights"], [2 / 7, 2 / 7, 3 / 7], atol=1e-4)

    def test_missing_file_exit_2(self, tmp_path):
        out = tmp_path / "w.json"
        code = main(["allocate", "--cov", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_variance_round_trip(self, unstable_csv, tmp_path):
        out = tmp_path / "w.json"
        assert main(["allocate", "--cov", unstable_csv, "--gamma", "0.5",
                     "--m", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        cov = read_matrix_csv(unstable_csv)
        recomputed = portfolio_variance(cov, np.asarray(payload["weights"]))
        assert abs(recomputed - payload["diagnostics"]["variance"]) < 1e-12

    @pytest.mark.parametrize("flag, text", [("--cov", "1,0.5\n0.5\n"),
                                            ("--returns", "a,b\n0.1,0.2\n0.3\n")])
    def test_ragged_rows_exit_2(self, tmp_path, capsys, flag, text):
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        out = tmp_path / "w.json"
        assert main(["allocate", flag, str(path), "--out", str(out)]) == 2
        assert "row 2 of the" in capsys.readouterr().err
        assert not out.exists()

    def test_returns_input(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 3))
        path = tmp_path / "returns.csv"
        path.write_text("a,b,c\n" + "\n".join(",".join(map(str, row)) for row in data) + "\n")
        out = tmp_path / "w.json"
        assert main(["allocate", "--returns", str(path), "--m", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["labels"] == ["a", "b", "c"]
        assert abs(sum(payload["weights"]) - 1.0) < 1e-12


class TestShrink:
    def test_reference_matrix(self, unstable_csv, tmp_path):
        out = tmp_path / "shrink.json"
        assert main(["shrink", "--cov", unstable_csv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert 0.96 <= payload["xi"] <= 0.98
        shrunk = read_matrix_csv(payload["shrunk_csv"])
        assert shrunk.values.shape == (4, 4)
        curve = (tmp_path / "shrink_curve.csv").read_text().splitlines()
        assert curve[0] == "xi,clipped_variance"

    def test_diagonal_ties_to_zero(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("1,0,0\n0,2,0\n0,0,3\n")
        out = tmp_path / "shrink.json"
        assert main(["shrink", "--cov", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["xi"] == 0.0

    def test_rank_deficient_report_lists_skipped_grid(self, tmp_path):
        # 3 samples of 4 assets: the sample covariance is singular at xi = 1 only
        cov = np.cov(np.random.default_rng(1).standard_normal((3, 4)), rowvar=False)
        path = tmp_path / "cov.csv"
        path.write_text("\n".join(",".join(f"{x:.17g}" for x in row) for row in cov) + "\n")
        out = tmp_path / "shrink.json"
        assert main(["shrink", "--cov", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["skipped_xi"] == [1.0]
        curve = (tmp_path / "shrink_curve.csv").read_text().splitlines()
        assert len(curve) == 1 + 1000

    def test_non_square_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0,0\n0,1,0\n")
        assert main(["shrink", "--cov", str(path), "--out", str(tmp_path / "o.json")]) == 2


    @pytest.mark.parametrize("step", ["9.9e-5", "1e-6"])
    def test_grid_step_below_minimum_exit_2(self, unstable_csv, tmp_path, capsys, step):
        out = tmp_path / "o.json"
        assert main(["shrink", "--cov", unstable_csv, "--grid-step", step, "--out", str(out)]) == 2
        assert "MIN_GRID_STEP" in capsys.readouterr().err
        assert not out.exists()


class TestSeriate:
    def test_equicorrelated_identity(self, equi3_csv, tmp_path):
        out = tmp_path / "order.json"
        assert main(["seriate", "--cov", equi3_csv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["order"] == [0, 1, 2]


class TestSimulate:
    def run(self, tmp_path, name, extra=()):
        out = tmp_path / f"{name}.csv"
        summary = tmp_path / f"{name}_summary.csv"
        code = main(["simulate", "-p", "10", "--a", "15", "--o", "12",
                     "--trials", "2", "--gamma-grid", "0,1", "--seed", "3",
                     "--out", str(out), "--summary", str(summary), *extra])
        return code, out, summary

    def test_deterministic_files(self, tmp_path):
        code1, out1, sum1 = self.run(tmp_path, "first")
        code2, out2, sum2 = self.run(tmp_path, "second")
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert sum1.read_bytes() == sum2.read_bytes()

    def test_gamma_zero_only(self, tmp_path):
        out = tmp_path / "r.csv"
        summary = tmp_path / "s.csv"
        code = main(["simulate", "-p", "10", "--a", "15", "--o", "12",
                     "--trials", "2", "--gamma-grid", "0", "--seed", "3",
                     "--out", str(out), "--summary", str(summary)])
        assert code == 0
        lines = summary.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == 1.0

    def test_invalid_gamma_exit_2(self, tmp_path):
        code = main(["simulate", "-p", "10", "--a", "15", "--o", "12",
                     "--trials", "1", "--gamma-grid", "0,1.5",
                     "--out", str(tmp_path / "r.csv"),
                     "--summary", str(tmp_path / "s.csv")])
        assert code == 2

    def test_svg_output(self, tmp_path):
        code, out, summary = self.run(tmp_path, "svg",
                                      extra=["--svg", str(tmp_path / "c.svg")])
        assert code == 0
        assert (tmp_path / "c.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("config, named", [
        ({"p": 10, "bogus": 1}, "bogus"),
        ({"p": 10, "allocation": {"gamma": 1.0, "colour": "red", "alpha": 2}}, "alpha, colour"),
        ({"allocation": "minvar"}, "str"),
        ([1, 2], "list"),
        ({"p": "abc"}, "ExperimentConfig field 'p' needs an integer, got str"),
        ({"allocation": {"terminal_size": "5"}}, "field 'terminal_size' needs an integer"),
        # the solver thresholds are constants now, no longer AllocationConfig fields:
        # a config naming one, at any value, exits 2 as an unknown key (the ids keep the
        # names of the range checks these cases ran when the thresholds were fields)
        pytest.param({"allocation": {"rcond": float("nan")}}, "unknown AllocationConfig keys: rcond",
                     id="config6-rcond=nan outside (0, 1)"),
        pytest.param({"allocation": {"rcond": -1}}, "unknown AllocationConfig keys: rcond",
                     id="config7-rcond=-1 outside (0, 1)"),
        pytest.param({"allocation": {"rcond": 0}}, "unknown AllocationConfig keys: rcond",
                     id="config8-rcond=0 outside (0, 1)"),
        pytest.param({"allocation": {"eps_b": 1.0}}, "unknown AllocationConfig keys: eps_b",
                     id="config9-eps_b=1.0 outside (0, 1)"),
        pytest.param({"allocation": {"eps_b": float("nan")}}, "unknown AllocationConfig keys: eps_b",
                     id="config10-eps_b=nan"),
        pytest.param({"allocation": {"eps_pd": -1e-8}}, "unknown AllocationConfig keys: eps_pd",
                     id="config11-eps_pd=-1e-08 outside [0, inf)"),
        pytest.param({"allocation": {"eps_pd": float("inf")}}, "unknown AllocationConfig keys: eps_pd",
                     id="config12-eps_pd=inf"),
        pytest.param({"allocation": {"shrink_grid_step": 0}}, "unknown AllocationConfig keys: shrink_grid_step",
                     id="config13-shrink_grid_step=0 outside (0, 1]"),
        pytest.param({"allocation": {"shrink_grid_step": float("nan")}}, "unknown AllocationConfig keys: shrink_grid_step",
                     id="config14-shrink_grid_step=nan"),
    ])
    def test_bad_config_file_exit_2(self, tmp_path, capsys, config, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "r.csv"),
                     "--summary", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not (tmp_path / "r.csv").exists()


class TestLogging:
    @pytest.mark.parametrize("name, level", [("warning", logging.WARNING), ("Debug", logging.DEBUG),
                                             ("basic_format", logging.ERROR),
                                             ("nonsense", logging.ERROR)])
    def test_level_from_environment(self, monkeypatch, equi3_csv, tmp_path, name, level):
        # only an int attribute of logging names a level: BASIC_FORMAT is a string,
        # which basicConfig would reject with ValueError before any command ran
        seen = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: seen.append(kwargs["level"]))
        monkeypatch.setenv("SCHUR_ALLOC_LOG", name)
        assert main(["seriate", "--cov", equi3_csv, "--out", str(tmp_path / "order.json")]) == 0
        assert seen == [level]
