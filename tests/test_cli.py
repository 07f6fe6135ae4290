import json
import numpy as np
import pytest

from mwstab import cli
from mwstab.cli import (main, RunConfig, parse_mu_grid,
                        resolve_config, ConfigError,
                        EXIT_OK, EXIT_INDETERMINATE, EXIT_SOLVER, EXIT_CONFIG)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigPlumbing:
    def test_mu_grid_parsing(self):
        assert parse_mu_grid("0.0:0.5:11") == (0.0, 0.5, 11)
        with pytest.raises(ConfigError):
            parse_mu_grid("0.5:0.0:11")
        with pytest.raises(ConfigError):
            parse_mu_grid("0:1:1")
        with pytest.raises(ConfigError):
            parse_mu_grid("nonsense")
        for text in ("0:inf:5", "-inf:0.5:5", "nan:0.5:5"):
            with pytest.raises(ConfigError, match="finite"):
                parse_mu_grid(text)

    def test_config_file_round_trip(self, tmp_path):
        config = RunConfig(model="B", gamma=2.0, k=1.5, a=0.03, n_modes=32,
                           mu_grid=(0.001, 0.01, 5), tol=1e-11,
                           out=None, format="json")
        path = tmp_path / "run.cfg"
        path.write_text(config.serialize())

        class Args:
            model = gamma = k = a = modes = mu_grid = tol = None
            out = format = None
            config = str(path)

        resolved = resolve_config(Args())
        assert resolved == config

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model = A\nk = 2.0\n")

        class Args:
            model = "B"
            gamma = k = a = modes = mu_grid = tol = None
            out = format = None
            config = str(path)

        resolved = resolve_config(Args())
        assert resolved.model == "B"
        assert resolved.k == 2.0

    def test_config_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("wavenumber = 2.0\n")

        class Args:
            model = gamma = k = a = modes = mu_grid = tol = None
            out = format = None
            config = str(path)

        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config(Args())


class TestWaveCommand:
    def test_trivial_wave(self, capsys):
        code, out, _ = run_cli(capsys, "wave", "--model", "A", "--a", "0",
                               "--modes", "16")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["c"] == 0.5773502691896258
        assert all(value == 0.0 for value in payload["cos_coeffs"])

    def test_speed_correction(self, capsys):
        code, out, _ = run_cli(capsys, "wave", "--model", "A", "--k", "1",
                               "--a", "0.05", "--modes", "32")
        assert code == EXIT_OK
        payload = json.loads(out)
        # c0 + c2 a^2 = 0.577711...; the solved speed differs by O(a^4)
        expected = 1.0 / np.sqrt(3.0) + 0.05**2 / (4.0 * np.sqrt(3.0))
        assert payload["c"] == pytest.approx(expected, abs=5e-6)
        assert payload["residual_norm"] <= 1e-12

    def test_model_b_gamma_one(self, capsys):
        code, out, _ = run_cli(capsys, "wave", "--model", "B", "--gamma",
                               "1", "--k", "1", "--a", "0.05",
                               "--modes", "32")
        assert code == EXIT_OK
        assert json.loads(out)["c"] == pytest.approx(1.0, abs=1e-6)

    def test_validity_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "wave", "--a", "0.5")
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "validity"

    def test_solver_failure_is_machine_readable(self, capsys, monkeypatch):
        from mwstab.waves import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("did not converge", 0.25)

        monkeypatch.setattr(cli, "solve_wave", boom)
        code, _, err = run_cli(capsys, "wave", "--a", "0.05")
        assert code == EXIT_SOLVER
        payload = json.loads(err)
        assert payload["error"] == "convergence"
        assert payload["residual_norm"] == 0.25

    def test_writes_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "wave.json"
        code, out, _ = run_cli(capsys, "wave", "--a", "0", "--modes", "16",
                               "--out", str(out_path))
        assert code == EXIT_OK and out == ""
        assert json.loads(out_path.read_text())["a"] == 0.0


class TestSpectrumCommand:
    def test_flat_sweep_rows(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "A", "--a", "0",
                               "--modes", "12", "--mu-grid", "0.0:0.4:5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "mu,re_lambda,im_lambda,branch_id"
        rows = [line.split(",") for line in lines[1:]]
        # 2N+1 rows per mu, minus the filtered singular direction at mu=0
        assert len(rows) == 5 * 25 - 1
        assert all(abs(float(row[1])) <= 1e-10 for row in rows)
        mus = [float(row[0]) for row in rows]
        assert mus == sorted(mus)

    def test_unstable_rows_present(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--model", "B", "--gamma",
                               "3", "--a", "0.02", "--modes", "24",
                               "--mu-grid", "0.002:0.01:3")
        assert code == EXIT_OK
        re_parts = [float(line.split(",")[1])
                    for line in out.strip().splitlines()[1:]]
        assert max(re_parts) > 1e-6

    def test_byte_determinism(self, capsys):
        args = ("spectrum", "--model", "A", "--a", "0.03", "--modes", "16",
                "--mu-grid", "0.1:0.3:3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestIndexCommand:
    def test_model_a_default_grid_is_stable(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--model", "A", "--a", "0.02",
                               "--modes", "32")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "stable"
        assert payload["threshold_estimate"] is None
        assert len(payload["disc_samples"]) == 10

    def test_model_b_unstable_with_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--model", "B", "--gamma",
                               "2", "--a", "0.01", "--modes", "24",
                               "--mu-grid", "0.002:0.01:4",
                               "--gamma-lo", "0", "--gamma-hi", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "unstable"
        assert 0.95 <= payload["threshold_estimate"] <= 1.05

    def test_indeterminate_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--model", "B", "--gamma",
                               "1.1", "--a", "0.01", "--modes", "24",
                               "--mu-grid", "0.001:0.005:2")
        assert code == EXIT_INDETERMINATE
        assert json.loads(out)["verdict"] == "indeterminate"

    def test_threshold_requires_model_b(self, capsys):
        code, _, err = run_cli(capsys, "index", "--model", "A",
                               "--gamma-lo", "0", "--gamma-hi", "2")
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"


class TestCollisionsCommand:
    def test_default_table(self, capsys):
        code, out, _ = run_cli(capsys, "collisions")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,mu0,omega"
        assert len(lines) == 3
        assert lines[1] == "-1,1,0.0,0.0"
        fields = lines[2].split(",")
        assert fields[:2] == ["0", "-3"]
        assert float(fields[2]) == pytest.approx(0.3819660112501051)
        assert float(fields[3]) == pytest.approx(-1.9364916731037085)

    def test_omega_scales_with_k(self, capsys):
        _, out, _ = run_cli(capsys, "collisions", "--k", "2.0")
        omega = float(out.strip().splitlines()[2].split(",")[3])
        assert omega == pytest.approx(-np.sqrt(15.0), rel=1e-12)


class TestExpandCommand:
    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_check_golden_passes(self, capsys, variant):
        code, out, _ = run_cli(capsys, "expand", "--model", variant,
                               "--check-golden")
        assert code == EXIT_OK
        assert "0 diffs" in out

    def test_model_b_leading_discriminant_text(self, capsys):
        _, out, _ = run_cli(capsys, "expand", "--model", "B",
                            "--check-golden")
        assert "disc = 4*mu^2 + (1-gamma)*k^4*a^2 + higher order" in out

    def test_json_dump_structure(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--model", "A")
        assert code == EXIT_OK
        dump = json.loads(out)
        assert dump["det_b1"]["a^0 mu^1"] == "-8/3*sqrt3*k^-1"

    def test_text_dump(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--model", "A",
                               "--format", "csv")
        assert code == EXIT_OK
        assert "[op_T0a]" in out


class TestArgumentErrors:
    def test_unknown_flag_exits_config(self, capsys):
        code, _, err = run_cli(capsys, "wave", "--frequency", "3")
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"

    def test_bad_grid_exits_config(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--mu-grid", "0.4:0.1:5")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ("wave", "--a", "nan"),
        ("wave", "--k", "inf"),
        ("wave", "--model", "B", "--gamma", "nan"),
        ("wave", "--tol", "nan"),
        ("index", "--mu-grid=0:inf:5"),
        ("index", "--mu-grid=-inf:0.05:5"),
        ("index", "--model", "B", "--a", "0.01", "--modes", "16",
         "--mu-grid", "0.002:0.01:2", "--gamma-lo", "0",
         "--gamma-hi", "inf"),
    ])
    def test_non_finite_input_exits_config(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        assert json.loads(err)["error"] == "config"


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestSolverFailures:
    def test_stalled_newton_exits_solver(self, capsys):
        code, out, err = run_cli(capsys, "wave", "--a", "0.05",
                                 "--tol", "1e-300")
        assert code == EXIT_SOLVER and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "convergence"
        assert "stalled" in payload["message"]
        assert 0.0 < payload["residual_norm"] < 1e-15

    def test_singular_jacobian_exits_solver(self, capsys, monkeypatch):
        from mwstab import waves

        monkeypatch.setattr(waves, "_jacobian",
                            lambda model, eta, c, k: np.zeros(
                                (eta.n_modes + 2, eta.n_modes + 2)))
        code, _, err = run_cli(capsys, "wave", "--a", "0.05",
                               "--modes", "16")
        assert code == EXIT_SOLVER
        assert _strict_json(err)["error"] == "convergence"

    def test_singular_bordered_system_exits_solver(self, capsys,
                                                   monkeypatch):
        from mwstab import modulation

        def singular(branch):
            raise ArithmeticError("bordered tangent system is singular")

        monkeypatch.setattr(modulation, "branch_derivative", singular)
        code, _, err = run_cli(capsys, "index", "--a", "0.02",
                               "--modes", "16")
        assert code == EXIT_SOLVER
        assert _strict_json(err)["error"] == "numeric"

    def test_non_finite_residual_is_null(self, capsys, monkeypatch):
        from mwstab.waves import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("diverged", float("nan"))

        monkeypatch.setattr(cli, "solve_wave", boom)
        code, _, err = run_cli(capsys, "wave", "--a", "0.05")
        assert code == EXIT_SOLVER
        assert _strict_json(err)["residual_norm"] is None
