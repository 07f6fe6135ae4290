import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwstab import cli
from mwstab.cli import (main, parse_mu_grid,
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
        config = SimpleNamespace(model="B", gamma=2.0, k=1.5, a=0.03,
                                 modes=32, mu_grid=(0.001, 0.01, 5),
                                 tol=1e-11, out=None, format="json")
        path = tmp_path / "run.cfg"
        path.write_text("model = B\ngamma = 2.0\nk = 1.5\na = 0.03\n"
                        "modes = 32\nmu_grid = 0.001:0.01:5\ntol = 1e-11\n"
                        "format = json\n")

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


#: config-file key -> (a value other than the default, a value refused)
#: for every setting; an output path that is a directory cannot be written
SETTING_VALUES = {
    "model": ("B", "C"),
    "gamma": ("2.5", "nan"),
    "k": ("1.5", "0"),
    "a": ("0.03", "x"),
    "modes": ("32", "4"),
    "mu_grid": ("0.001:0.01:5", "0.4:0.1:5"),
    "tol": ("1e-11", "-1e-3"),
    "out": ("run.json", "."),
    "format": ("csv", "xml"),
}

#: the config ``resolve_config`` gives when no setting is set
UNSET = resolve_config(SimpleNamespace())


#: command -> the settings it reads, and its own flags' attributes
READS = {
    "wave": "model gamma k a modes tol out",
    "spectrum": "model gamma k a modes mu_grid tol out",
    "index": "model gamma k a modes mu_grid tol out",
    "collisions": "k out",
    "expand": "model out format",
}
OWN = {"index": "gamma_lo gamma_hi", "collisions": "n_min",
       "expand": "check_golden"}

READ_PAIRS = [(command, key) for command, reads in READS.items()
              for key in reads.split()]
UNREAD_PAIRS = [(command, key) for command, reads in READS.items()
                for key in SETTING_VALUES if key not in reads.split()]


def _reader(key):
    """The first command that reads the setting ``key``."""
    return next(command for command, key_ in READ_PAIRS if key_ == key)


#: a setting read only alongside another -> that other's key and value:
#: gamma is model B's alone
ALONGSIDE = {"gamma": ("model", "B")}


def _flag_and_file(tmp_path, key, value):
    """The flags and the config file that set ``key`` to ``value``, with
    the setting that makes it read (``ALONGSIDE``) by the same source."""
    lines = [(key, value)]
    if key in ALONGSIDE:
        lines.insert(0, ALONGSIDE[key])
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines))
    flags = [text for k, v in lines for text in (f"--{k.replace('_', '-')}",
                                                  v)]
    return flags, ["--config", str(path)]


@pytest.fixture
def no_solve(monkeypatch):
    """Every solve ``cli`` starts fails the test."""
    def solve(*args, **kwargs):
        raise AssertionError("a solve started before the check")

    for name in ("solve_wave", "sweep_mus", "discriminant_sweep",
                 "threshold_bisect", "find_collisions",
                 "det_and_discriminant", "load_golden"):
        monkeypatch.setattr(cli, name, solve)


class TestSettingsTable:
    """Each setting is read by one converter and checked once, whether it
    comes from a flag or from a config-file entry; a command accepts only
    the settings it reads, from either source."""

    def test_every_setting_is_covered(self):
        assert list(SETTING_VALUES) == list(cli._SETTINGS)
        slots = 0
        for command, reads in READS.items():
            args = vars(cli.parse_args([command]))
            assert set(args) == {"func", "config", *reads.split(),
                                 *OWN.get(command, "").split()}
            slots += len(args) - 1  # a flag for each but func
        assert slots == 37 and len(READ_PAIRS) == 28  # config-file keys

    def test_nothing_set_resolves_to_the_defaults(self, tmp_path):
        defaults = {key: default
                    for key, (_, default) in cli._SETTINGS.items()}
        assert vars(UNSET) == defaults and list(vars(UNSET)) == list(defaults)
        path = tmp_path / "empty.cfg"
        path.write_text("")
        for command in READS:
            config = resolve_config(cli.parse_args([command, "--config",
                                                    str(path)]))
            assert config == UNSET

    @pytest.mark.parametrize("key", sorted(SETTING_VALUES))
    def test_file_value_resolves_as_its_flag(self, tmp_path, key):
        value = SETTING_VALUES[key][0]
        flags, file = _flag_and_file(tmp_path, key, value)
        command = _reader(key)
        from_flag = resolve_config(cli.parse_args([command, *flags]))
        from_file = resolve_config(cli.parse_args([command, *file]))
        assert from_file == from_flag != UNSET
        assert getattr(from_flag, key) == cli._SETTINGS[key][0](value)

    @pytest.mark.parametrize("command, key", READ_PAIRS)
    def test_read_setting_resolves_from_flag_and_file(self, tmp_path,
                                                      command, key):
        flags, file = _flag_and_file(tmp_path, key, SETTING_VALUES[key][0])
        from_flag = resolve_config(cli.parse_args([command, *flags]))
        from_file = resolve_config(cli.parse_args([command, *file]))
        assert from_file == from_flag != UNSET

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command, key", UNREAD_PAIRS)
    def test_unread_setting_exits_config(self, capsys, tmp_path, no_solve,
                                         command, key, source):
        flag = f"--{key.replace('_', '-')}"
        value = SETTING_VALUES[key][0]
        if source == "flag":
            argv = [command, flag, value]
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"{key} = {value}\n")
            argv = [command, "--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "config"
        if source == "flag":
            assert payload["message"] == \
                f"unrecognized argument {flag!r} for {command}"
        else:
            assert payload["message"] == f"{path}:1: unknown key {key!r}"

    @pytest.mark.parametrize("argv, refused", [
        (("collisions", "--model", "B", "--gamma", "2"), "--model"),
        (("index", "--format", "csv"), "--format"),
        (("expand", "--model", "A", "--k", "7", "--a", "9",
          "--check-golden"), "--k"),
    ], ids=["collisions-model", "index-format", "expand-k"])
    def test_a_setting_the_command_ignores_is_refused(self, capsys, no_solve,
                                                       argv, refused):
        # these printed model A's table, JSON, and 0 diffs, with exit 0
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "config"
        assert payload["message"] == \
            f"unrecognized argument {refused!r} for {argv[0]}"

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("argv, lines, message", [
        (("wave", "--model", "A", "--gamma", "5", "--a", "0"),
         "model = A\ngamma = 5\na = 0\n", "gamma is a setting of model B"),
        (("spectrum", "--gamma", "2"), "gamma = 2\n",
         "gamma is a setting of model B"),
        (("index", "--model", "A", "--gamma", "0"), "model = A\ngamma = 0\n",
         "gamma is a setting of model B"),
        (("expand", "--check-golden", "--format", "csv"), "format = csv\n",
         "--check-golden prints its diff as text"),
    ], ids=["wave-gamma", "spectrum-gamma", "index-gamma", "golden-format"])
    def test_a_setting_the_run_does_not_read_is_refused(
            self, capsys, tmp_path, no_solve, argv, lines, message, source):
        # wave --model A --gamma 5 --a 0 printed "gamma": 5.0, and the
        # golden diff took a format it never read, both with exit 0
        if source == "file":
            path = tmp_path / "run.cfg"
            path.write_text(lines)
            argv = [argv[0], "--config", str(path),
                    *(["--check-golden"] if "--check-golden" in argv
                      else [])]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "config"
        assert payload["message"].startswith(message)

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key", sorted(SETTING_VALUES))
    def test_bad_value_exits_config(self, capsys, tmp_path, monkeypatch,
                                    key, source):
        monkeypatch.chdir(tmp_path)
        value = SETTING_VALUES[key][1]
        if source == "flag":
            argv = [_reader(key), f"--{key.replace('_', '-')}", value]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            argv = [_reader(key), "--config", "run.cfg"]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        assert _strict_json(err)["error"] == "config"


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

    # |a| passes the amplitude guard, but a k^2 (125; inf) is not small
    @pytest.mark.parametrize("k,a", [("50", "0.05"), ("1e200", "0.01")])
    def test_expansion_parameter_guard(self, capsys, k, a):
        code, out, err = run_cli(capsys, "wave", "--k", k, "--a", a)
        assert code == EXIT_CONFIG and out == ""
        payload = json.loads(err)
        assert payload["error"] == "validity"
        assert "|a| k^2" in payload["message"]

    # a = 0 passes both amplitude guards; Python's 1/k**2 divided by zero
    # (exit 3)
    @pytest.mark.parametrize("model", ["A", "B"])
    def test_tiny_wavenumber_is_a_validity_error(self, capsys, model):
        code, out, err = run_cli(capsys, "wave", "--model", model,
                                 "--k", "1e-200", "--a", "0", "--modes", "16")
        assert code == EXIT_CONFIG and out == ""
        payload = json.loads(err)
        assert payload["error"] == "validity"
        assert "1/k^4 overflows" in payload["message"]

    # a = 0 passes both amplitude guards; Python's k**2 overflowed (exit 3)
    @pytest.mark.parametrize("k", ["1e200", "1e80"])
    def test_huge_wavenumber_is_a_validity_error(self, capsys, k):
        code, out, err = run_cli(capsys, "wave", "--k", k, "--a", "0",
                                 "--modes", "16")
        assert code == EXIT_CONFIG and out == ""
        payload = json.loads(err)
        assert payload["error"] == "validity"
        assert "k^4 overflows" in payload["message"]

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

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # a threaded LAPACK call splits its work by the thread count: at
        # N = 128 both the wave and the slices moved at rounding level
        argv = [sys.executable, "-m", "mwstab.cli", "spectrum", "--model",
                "A", "--a", "0.1", "--k", "1.5", "--modes", "128",
                "--mu-grid=-0.3:0.5:9"]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("OPENBLAS_NUM_THREADS", None)  # the host's default
        one, default = (subprocess.run(argv, env=e, capture_output=True,
                                       check=True).stdout
                        for e in (dict(env, OPENBLAS_NUM_THREADS="1"), env))
        assert one == default


class TestHostThreads:
    def test_wave_and_index_bytes_at_one_and_two_blas_threads(
            self, capsys, blas_threads):
        # the wave moved at rounding level with the thread count at N = 128
        wave = ("wave", "--model", "A", "--a", "0.1", "--k", "1.5",
                "--modes", "128")
        index = ("index", "--model", "B", "--gamma", "2", "--a", "0.03",
                 "--modes", "128", "--mu-grid=0.002:0.05:3",
                 "--gamma-lo", "0.3", "--gamma-hi", "1.8")
        runs = []
        for count in (1, 2):
            blas_threads(count)
            runs.append([run_cli(capsys, *argv) for argv in (wave, index)])
        (wave_one, index_one), (wave_two, index_two) = runs
        assert wave_one == wave_two and wave_one[0] == EXIT_OK
        assert index_one == index_two and index_one[0] == EXIT_OK
        assert json.loads(index_one[1])["max_growth"] > 1e-6


class TestIndexCommand:
    def test_model_a_default_grid_is_stable(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--model", "A", "--a", "0.02",
                               "--modes", "32")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "stable"
        assert payload["threshold_estimate"] is None
        assert len(payload["disc_samples"]) == 10
        assert payload["disc_at_zero"] > 0.0
        assert payload["band_edge"] is None

    def test_model_b_unstable_with_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--model", "B", "--gamma",
                               "2", "--a", "0.01", "--modes", "24",
                               "--mu-grid", "0.002:0.01:4",
                               "--gamma-lo", "0", "--gamma-hi", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "unstable"
        assert 0.95 <= payload["threshold_estimate"] <= 1.05

    def test_missed_band_is_reported(self, capsys):
        # the grid starts beyond the unstable band mu < a k^2 sqrt(gamma-1)/2,
        # so the verdict rule says stable; D(0) and the band edge show it
        code, out, _ = run_cli(capsys, "index", "--model", "B", "--gamma",
                               "3", "--a", "0.02", "--mu-grid=0.05:0.1:6")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "stable"
        assert payload["disc_at_zero"] < 0.0
        assert payload["band_edge"] == pytest.approx(0.02 * np.sqrt(2) / 2,
                                                     rel=1e-2)

    def test_threshold_at_an_endpoint_of_a_wave_solved_to_tol(self, capsys):
        # solved at k = 2, the gamma = 1 wave stopped at Newton residual
        # 3.3e-13 and left D(0) at 6.1e-13; solved at k = 1 (a k^2 = 0.04)
        # it reaches 2.8e-19, and D(0) lies within its rounding floor
        code, out, _ = run_cli(capsys, "index", "--model", "B", "--gamma",
                               "2", "--k", "2", "--a", "0.01",
                               "--mu-grid=0.002:0.02:3",
                               "--gamma-lo", "0", "--gamma-hi", "1")
        assert code == EXIT_OK
        assert abs(json.loads(out)["threshold_estimate"] - 1.0) <= 1e-6

    def test_threshold_at_an_endpoint_left_at_its_newton_residual(self,
                                                                  capsys):
        # at a k^2 = 0.035 the gamma = 1 wave stops at Newton residual
        # 4.6e-13, which leaves D(0) at 2.1e-13, above its rounding floor of
        # 5.7e-14; the root test allows for the residual, so the endpoint is
        # the root (without the allowance the bracket [0, 1] has no sign
        # change)
        code, out, _ = run_cli(capsys, "index", "--model", "B", "--gamma",
                               "2", "--a", "0.035", "--mu-grid=0.002:0.02:3",
                               "--gamma-lo", "0", "--gamma-hi", "1")
        assert code == EXIT_OK
        assert json.loads(out)["threshold_estimate"] == 1.0

    @pytest.mark.parametrize("a", ["0", "1e-8"])
    def test_a_bracket_no_wave_in_it_resolves_is_a_config_error(self, capsys,
                                                                a):
        # D(0) of these waves is within its rounding floor at every gamma:
        # the lower end used to be printed as the threshold, with exit 0
        code, out, err = run_cli(capsys, "index", "--model", "B", "--a", a,
                                 "--modes", "16", "--gamma-lo", "5",
                                 "--gamma-hi", "7")
        assert code == EXIT_CONFIG and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "config"
        assert "resolves no root" in payload["message"]
        assert "D(5.0)=" in payload["message"]
        assert "D(7.0)=" in payload["message"]

    def test_indeterminate_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--model", "B", "--gamma",
                               "1.1", "--a", "0.01", "--modes", "24",
                               "--mu-grid", "0.001:0.005:2")
        assert code == EXIT_INDETERMINATE
        assert json.loads(out)["verdict"] == "indeterminate"

    def test_noise_of_the_double_zero_is_not_growth(self, capsys):
        # D > 0 at every sample; the mu = 0 pair's rounding noise (4.6e-5)
        # used to set max_growth and make this indeterminate
        code, out, _ = run_cli(capsys, "index", "--model", "A", "--k", "30",
                               "--a", "0.0005", "--mu-grid=0:0.05:6")
        assert code == EXIT_OK
        payload = _strict_json(out)
        assert payload["verdict"] == "stable"
        assert payload["max_growth"] == 0.0
        assert min(disc for _, disc in payload["disc_samples"]) > 0.0

    @pytest.mark.parametrize("argv", [
        ("--a", "0", "--modes", "16", "--mu-grid=1e-13:2e-13:2"),
        ("--model", "B", "--gamma", "2", "--a", "0.02",
         "--mu-grid=0.009999687555778063:0.05:2")],
        ids=["flat-wave", "collision"])
    def test_a_coinciding_critical_pair_is_measured(self, capsys, argv):
        # the verdict reads the pair's real parts alone, so a pair that
        # coincides to 1e-12 (a flat wave's at |mu| below 7.6e-7; model B's
        # at the first point, where the pair collides) no longer exits 3
        code, out, err = run_cli(capsys, "index", *argv)
        assert code == EXIT_INDETERMINATE and err == ""
        payload = _strict_json(out)
        assert payload["verdict"] == "indeterminate"
        assert payload["max_growth"] == 0.0

    def test_threshold_requires_model_b(self, capsys):
        code, _, err = run_cli(capsys, "index", "--model", "A",
                               "--gamma-lo", "0", "--gamma-hi", "2")
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"

    @pytest.mark.parametrize("argv", [
        ("--model", "A", "--gamma-lo", "0", "--gamma-hi", "2"),
        ("--model", "B", "--gamma", "2", "--gamma-lo", "0"),
    ])
    def test_bracket_is_checked_before_the_sweep(self, capsys, monkeypatch,
                                                 argv):
        def sweep(*args, **kwargs):
            raise AssertionError("the verdict sweep ran before the check")

        monkeypatch.setattr(cli, "discriminant_sweep", sweep)
        code, out, err = run_cli(capsys, "index", *argv)
        assert code == EXIT_CONFIG and out == ""
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

    @pytest.mark.parametrize("n_min", ["-1024", "-3"])
    def test_n_min_admits_its_bounds(self, capsys, n_min):
        code, out, _ = run_cli(capsys, "collisions", "--n-min", n_min)
        assert code == EXIT_OK
        assert out.splitlines()[-1].split(",")[1] == n_min

    @pytest.mark.parametrize("n_min, message", [
        ("-1025", "n-min must be at least -1024"),
        ("-2", "n-min must be at most -3")])
    def test_n_min_outside_its_bounds_exits_config(self, capsys, no_solve,
                                                   n_min, message):
        # -2 read "n_min must be <= -3", from find_collisions
        code, out, err = run_cli(capsys, "collisions", "--n-min", n_min)
        assert code == EXIT_CONFIG and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "config"
        assert payload["message"] == message


class TestWavenumberIsAUnit:
    """Waves with the same ``a k^2`` are one wave in other units: the
    verdict and the exit code follow ``a k^2``, and what is reported scales
    by the table in ``mwstab.waves``."""

    def test_large_k_reads_as_its_unit_twin(self, capsys):
        grid = "--mu-grid=0.01:0.05:3"
        code, out, _ = run_cli(capsys, "index", "--model", "A", "--k",
                               "2000", "--a", "4.75e-8", grid)
        assert code == EXIT_OK
        far = _strict_json(out)
        assert far["verdict"] == "stable"
        _, out, _ = run_cli(capsys, "index", "--model", "A", "--k", "1",
                            "--a", "0.19", grid)
        near = _strict_json(out)
        for (mu, disc), (mu_1, disc_1) in zip(far["disc_samples"],
                                             near["disc_samples"]):
            assert mu == mu_1
            assert disc * 2000.0**2 == pytest.approx(disc_1, rel=1e-9)

    def test_huge_k_with_a_tiny_amplitude_is_solved(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--model", "A", "--k=5e5",
                               "--a=1e-12", "--mu-grid=0.01:0.05:3",
                               "--modes", "16")
        assert code == EXIT_OK
        assert _strict_json(out)["verdict"] == "stable"

    def test_the_one_bound_is_on_a_k2(self, capsys):
        # a k^2 = 0.45 both; |a| = 0.3125 passes now that |a| alone is free
        code, out, _ = run_cli(capsys, "wave", "--k", "1.2", "--a", "0.3125")
        assert code == EXIT_OK
        assert _strict_json(out)["residual_norm"] <= 1e-12
        verdicts = []
        for k, a in (("1.2", "0.3125"), ("2", "0.1125")):
            code, out, _ = run_cli(capsys, "index", "--k", k, "--a", a)
            assert code == EXIT_OK
            verdicts.append(_strict_json(out)["verdict"])
        assert verdicts == ["stable", "stable"]
        code, out, err = run_cli(capsys, "wave", "--k", "1", "--a", "0.46")
        assert code == EXIT_CONFIG and out == ""
        assert _strict_json(err)["error"] == "validity"

    def test_collision_table_is_certified_at_unit_k(self, capsys):
        code, out, _ = run_cli(capsys, "collisions", "--k", "100",
                               "--n-min", "-10")
        assert code == EXIT_OK
        _, unit, _ = run_cli(capsys, "collisions", "--n-min", "-10")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        unit_rows = [line.split(",") for line in unit.splitlines()[1:]]
        assert len(rows) == len(unit_rows) == 9
        for row, unit_row in zip(rows, unit_rows):
            assert row[:3] == unit_row[:3]
            assert float(row[3]) == pytest.approx(100.0 * float(unit_row[3]),
                                                  rel=1e-15)

    def test_collision_table_reaches_the_deepest_mode(self, capsys):
        code, out, _ = run_cli(capsys, "collisions", "--n-min", "-1024")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1 + 1023
        code, out, err = run_cli(capsys, "collisions", "--n-min", "-1025")
        assert code == EXIT_CONFIG and out == ""
        assert _strict_json(err)["message"] == "n-min must be at least -1024"


#: sha256 of each ``expand`` output; the dumps are the exact engine's
#: regression oracle, so any change to its arithmetic or rendering shows here
EXPAND_SHA256 = {
    ("A", "--check-golden"):
    "6ef05ce0b03c25173a4d91bc074695a77792c153dc70ac74ebb568576193d5ea",
    ("A", "--format json"):
    "3a052bf5c72d0902efa6cb77f1fc791e4bec2b45f2a1155857b79470089fea83",
    ("A", "--format csv"):
    "1a31176bcc02e14ce8f37cd549f83abe8ac212a59961a421e27cd14dc3b17610",
    ("B", "--check-golden"):
    "61d36100558fe8876aa766144392441cf50f9145c7fcf97bbab863b047f183ea",
    ("B", "--format json"):
    "eb83bfc51877760c7009fae50091d1892bb588db34c3e1022f9a8eb154f463f0",
    ("B", "--format csv"):
    "2897b9366d87a39e5c14fd66b8e178923657efcf9f0343c65aea49338aea5873",
}


class TestExpandCommand:
    @pytest.mark.parametrize("variant, flags", sorted(EXPAND_SHA256))
    def test_outputs_are_byte_identical(self, capsys, variant, flags):
        code, out, _ = run_cli(capsys, "expand", "--model", variant,
                               *flags.split())
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == EXPAND_SHA256[variant, flags]

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_check_golden_passes(self, capsys, variant):
        code, out, _ = run_cli(capsys, "expand", "--model", variant,
                               "--check-golden")
        assert code == EXIT_OK
        assert "0 diffs" in out

    def test_check_golden_reads_the_tables_once(self, capsys, monkeypatch):
        from mwstab.exact import expansions

        load = expansions.load_golden
        reads = []

        def counted(variant):
            reads.append(variant)
            return load(variant)

        monkeypatch.setattr(cli, "load_golden", counted)
        monkeypatch.setattr(expansions, "load_golden", counted)
        code, out, _ = run_cli(capsys, "expand", "--model", "A",
                               "--check-golden")
        assert code == EXIT_OK and "0 diffs" in out
        assert reads == ["A"]

    def test_golden_diff_exits_with_its_own_code(self, capsys, monkeypatch):
        from mwstab.exact import expansions

        golden = expansions.load_golden("A")
        golden["stokes_c"]["a^2"] = "1/13*sqrt3*k^3"
        monkeypatch.setattr(cli, "load_golden", lambda variant: golden)
        code, out, err = run_cli(capsys, "expand", "--model", "A",
                                 "--check-golden")
        assert code == cli.EXIT_GOLDEN_DIFF and err == ""
        lines = out.splitlines()
        assert lines[0] == (f"model A: 1 diffs against {len(golden)} "
                            f"transcribed sections")
        assert lines[1] == ("stokes_c[a^2]: engine '1/12*sqrt3*k^3' vs "
                            "golden '1/13*sqrt3*k^3'")

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
        code, _, err = run_cli(capsys, "spectrum", "--mu-grid", "0.4:0.1:5")
        assert code == EXIT_CONFIG
        assert "start must be below stop" in json.loads(err)["message"]

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("grid", ["0:0.6:3", "-0.5:0.5:3"])
    def test_spectrum_grid_outside_the_floquet_domain_exits_config(
            self, capsys, tmp_path, no_solve, grid, source):
        # 0:0.6:3 was refused only after the wave and two slices were solved
        if source == "flag":
            argv = ("spectrum", "--modes", "8", f"--mu-grid={grid}")
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"mu_grid = {grid}\n")
            argv = ("spectrum", "--modes", "8", "--config", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "config"
        start, stop = (float(end) for end in grid.split(":")[:2])
        assert payload["message"] == (
            f"mu grid must lie in the Floquet domain (-1/2, 1/2], "
            f"got {start!r}:{stop!r}")

    def test_spectrum_grid_may_end_at_one_half(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--a", "0", "--modes",
                               "8", "--mu-grid=0:0.5:3")
        assert code == EXIT_OK
        assert out.splitlines()[-1].startswith("0.5,")

    def test_sweep_grid_guard_message(self, capsys):
        code, out, err = run_cli(capsys, "index", "--mu-grid=-0.2:0.05:3")
        assert code == EXIT_CONFIG and out == ""
        assert "|mu| <= 0.1" in json.loads(err)["message"]

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
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert "is not a finite number" in payload["message"]

    @pytest.mark.parametrize("command", ["wave", "spectrum", "index"])
    def test_modes_above_the_cap_exit_config(self, capsys, monkeypatch,
                                             command):
        def solve(*args, **kwargs):
            raise AssertionError("a solve started before the check")

        for name in ("solve_wave", "sweep_mus", "discriminant_sweep"):
            monkeypatch.setattr(cli, name, solve)
        code, out, err = run_cli(capsys, command, "--modes", str(10**9))
        assert code == EXIT_CONFIG and out == ""
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert payload["message"] == f"modes must be at most {cli.MAX_MODES}"

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", ["spectrum", "index"])
    def test_grid_count_above_the_cap_exits_config(
            self, capsys, monkeypatch, tmp_path, command, source):
        # a count of 1e12 failed to allocate its grid, with a traceback
        def solve(*args, **kwargs):
            raise AssertionError("a solve started before the check")

        for name in ("solve_wave", "sweep_mus", "discriminant_sweep"):
            monkeypatch.setattr(cli, name, solve)
        grid = "0:0.05:1000000000000"
        if source == "flag":
            argv = (command, "--mu-grid", grid)
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"mu_grid = {grid}\n")
            argv = (command, "--config", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "config"
        assert payload["message"].endswith(
            f"mu grid count must be at most {cli.MAX_MU_POINTS}")

    def test_grid_count_cap_admits_its_value(self):
        count = cli.MAX_MU_POINTS
        assert parse_mu_grid(f"0:0.05:{count}") == (0.0, 0.05, count)

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_output_exits_config(self, capsys, tmp_path,
                                            monkeypatch, target):
        # a missing directory or a directory as the file: both raised an
        # OSError traceback and exit 1
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "collisions", "--out", target)
        assert code == EXIT_CONFIG and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "config"
        assert payload["message"].startswith("cannot write output file: ")

    def test_modes_cap_admits_its_value(self):
        config = resolve_config(cli.parse_args(
            ["wave", "--modes", str(cli.MAX_MODES)]))
        assert config.modes == cli.MAX_MODES

    @pytest.mark.parametrize("argv", [
        ("wave", "--k"),
        ("index", "--a", "0.01", "--gamma-lo"),
        ("wave", "--gamma-lo", "0"),
        ("index", "--check-golden"),
        ("expand", "--check-golden=yes"),
        ("spectrum", "--mu=0:0.5:3"),
        ("wave", "extra"),
        (),
        ("frequency",),
        ("--model", "A"),
    ])
    def test_malformed_command_line_exits_config(self, capsys, argv):
        """A missing value, a flag of another command or none, an
        abbreviation, a stray word, and a missing or unknown command."""
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        assert json.loads(err)["error"] == "config"


class TestArgumentParsing:
    @pytest.mark.parametrize("flag, value", [
        ("--n-min", "-5"), ("--k", "1.5"), ("--out", "-")])
    def test_both_value_forms_agree(self, capsys, tmp_path, monkeypatch,
                                    flag, value):
        monkeypatch.chdir(tmp_path)
        runs = [run_cli(capsys, "collisions", flag, value),
                run_cli(capsys, "collisions", f"{flag}={value}")]
        assert runs[0] == runs[1]
        assert runs[0][0] == EXIT_OK

    def test_negative_value_after_a_space(self, capsys):
        code, out, _ = run_cli(capsys, "collisions", "--n-min", "-5")
        assert code == EXIT_OK
        assert min(int(row.split(",")[1])
                   for row in out.splitlines()[1:]) == -5

    def test_negative_grid_after_a_space(self, capsys):
        argv = ("spectrum", "--a", "0", "--modes", "8")
        spaced = run_cli(capsys, *argv, "--mu-grid", "-0.05:0.05:3")
        joined = run_cli(capsys, *argv, "--mu-grid=-0.05:0.05:3")
        assert spaced == joined
        assert spaced[0] == EXIT_OK
        assert spaced[1].splitlines()[1].startswith("-0.05,")

    def test_last_occurrence_of_a_flag_wins(self):
        args = cli.parse_args(["wave", "--k", "2", "--k=3"])
        assert args.k == 3.0

    @pytest.mark.parametrize("argv", [
        ("-h",), ("--help",), ("index", "-h"),
        ("expand", "--model", "B", "--help")])
    def test_help_prints_usage(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK and err == ""
        assert out.startswith("usage: mwstab")
        for command in ("wave", "spectrum", "index", "collisions", "expand"):
            assert f"\n  {command} " in out

    def test_import_loads_no_argparse(self):
        code = ("import sys, mwstab.cli; "
                "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"


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

    @pytest.mark.parametrize("argv", [
        ("wave", "--model", "B", "--gamma", "1e300", "--a", "0.02"),
        ("index", "--model", "B", "--gamma-lo", "1e300", "--gamma-hi",
         "2e300")])
    def test_non_finite_newton_residual_exits_solver(self, capsys, argv):
        # the seed's residual overflows: Newton stops there, before any
        # warning or a non-finite iterate reaches the operator's bands
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_SOLVER and out == "" and caught == []
        assert err.count("\n") == 1 and err.endswith("\n")
        payload = _strict_json(err)
        assert payload["error"] == "convergence"
        assert "not finite" in payload["message"]
        assert payload["residual_norm"] is None

    def test_diverging_newton_exits_solver(self, capsys):
        code, out, err = run_cli(capsys, "wave", "--model", "B", "--gamma",
                                 "1e20", "--a", "0.02")
        assert code == EXIT_SOLVER and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        payload = _strict_json(err)
        assert payload["error"] == "convergence"
        assert "diverges" in payload["message"]
        assert 0.0 < payload["residual_norm"] < 1e70

    def test_singular_jacobian_exits_solver(self, capsys, monkeypatch):
        from mwstab import waves

        monkeypatch.setattr(waves, "_bordered_jacobian",
                            lambda model, terms, eta, c: np.zeros(
                                (eta.n_modes + 2, eta.n_modes + 2)))
        code, _, err = run_cli(capsys, "wave", "--a", "0.05",
                               "--modes", "16")
        assert code == EXIT_SOLVER
        assert _strict_json(err)["error"] == "convergence"

    def test_singular_bordered_system_exits_solver(self, capsys,
                                                   monkeypatch):
        from mwstab import modulation, waves

        # the wave converges; its own bordered tangent system is singular
        solve = modulation.solve_wave

        def solved(*args, **kwargs):
            branch = solve(*args, **kwargs)
            monkeypatch.setattr(waves, "_bordered_jacobian",
                                lambda model, terms, eta, c: np.zeros(
                                    (eta.n_modes + 2, eta.n_modes + 2)))
            return branch

        monkeypatch.setattr(modulation, "solve_wave", solved)
        code, out, err = run_cli(capsys, "index", "--a", "0.02",
                                 "--modes", "16")
        assert code == EXIT_SOLVER and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "numeric"
        assert "bordered tangent system is singular" in payload["message"]

    def test_unsettled_critical_subspace_exits_solver(self, capsys,
                                                      monkeypatch):
        from mwstab import modulation

        monkeypatch.setattr(modulation, "_MAX_SUBSPACE_STEPS", 1)
        code, out, err = run_cli(capsys, "index", "--a", "0.02",
                                 "--modes", "16")
        assert code == EXIT_SOLVER and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "convergence"
        assert "critical subspace" in payload["message"]
        assert payload["residual_norm"] > 0.0

    @pytest.mark.parametrize("collapse", ["rank", "zero"])
    def test_rank_deficient_critical_subspace_exits_solver(
            self, capsys, monkeypatch, collapse):
        from mwstab import modulation

        step = modulation._subspace_step

        def collapsed(matrix, basis):
            # an image that has lost a dimension
            if collapse == "zero":
                return step(np.zeros_like(matrix), basis)
            return step(matrix, basis[..., [0, 0]])

        monkeypatch.setattr(modulation, "_subspace_step", collapsed)
        code, out, err = run_cli(capsys, "index", "--a", "0.02",
                                 "--modes", "16")
        assert code == EXIT_SOLVER and out == ""
        payload = _strict_json(err)
        assert payload["error"] == "numeric"
        assert "critical subspace" in payload["message"]
        assert "nan" not in err.lower() and "inf" not in err.lower()

    def test_non_finite_residual_is_null(self, capsys, monkeypatch):
        from mwstab.waves import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("diverged", float("nan"))

        monkeypatch.setattr(cli, "solve_wave", boom)
        code, _, err = run_cli(capsys, "wave", "--a", "0.05")
        assert code == EXIT_SOLVER
        assert _strict_json(err)["residual_norm"] is None



@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from("AB"), log_k=st.floats(-76.0, 76.0),
       a_share=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
       gamma=st.floats(-10.0, 10.0),
       ends=st.lists(st.one_of(st.just(0.0), st.floats(-0.1, 0.1)),
                     min_size=2, max_size=2, unique=True),
       count=st.integers(2, 6))
def test_accepted_index_runs_end_in_json(model, log_k, a_share, gamma, ends,
                                         count):
    """Every ``index`` run that the guards accept ends with exit 0 or 2 and
    a verdict on stdout, or exit 3 and a JSON error on stderr, never with a
    traceback.  The guards accept |a| k^2 <= 0.45 at any k whose k^4 and
    1/k^4 are finite, and |mu| <= 0.1."""
    k = 10.0**log_k
    a = a_share * 0.45 / k**2
    start, stop = sorted(ends)
    # gamma is model B's alone; model A refuses it
    argv = ["index", "--model", model, f"--k={k!r}", f"--a={a!r}",
            *([f"--gamma={gamma!r}"] if model == "B" else []),
            f"--mu-grid={start!r}:{stop!r}:{count}", "--modes", "16"]
    out, err = io.StringIO(), io.StringIO()
    with np.errstate(all="ignore"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_INDETERMINATE, EXIT_SOLVER), argv
    if code == EXIT_SOLVER:
        assert out.getvalue() == ""
        assert _strict_json(err.getvalue())["error"] in ("convergence",
                                                         "numeric")
    else:
        assert _strict_json(out.getvalue())["verdict"] in (
            "stable", "unstable", "indeterminate")


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with np.errstate(all="ignore"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _scaled(x, k, power):
    """``x`` at k = 1 scaled by ``k**power``, compared loosely enough for
    the two roundings of the scaling and for a subnormal ``x``."""
    return pytest.approx(x * k**power, rel=1e-12, abs=1e-300)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=st.sampled_from("AB"), log_k=st.floats(-3.0, 3.0),
       share=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
       gamma=st.floats(-10.0, 10.0),
       ends=st.lists(st.one_of(st.just(0.0), st.floats(-0.1, 0.1)),
                     min_size=2, max_size=2, unique=True),
       count=st.integers(2, 6))
def test_results_depend_on_a_k2_alone(model, log_k, share, gamma, ends,
                                      count):
    """``index`` and a two-mu ``spectrum`` at (a, k) and at (a k^2, 1) give
    the same verdict, exit code, band edge and threshold, and ``D`` and the
    eigenvalues agree after the unit table's scaling: lambda by k and D by
    1/k^2 for model A, neither for model B."""
    k = 10.0**log_k
    a = share * 0.45 / k**2
    power = 1 if model == "A" else 0
    start, stop = sorted(ends)
    common = ["--model", model, "--modes", "16"]
    if model == "B":  # gamma is model B's alone; model A refuses it
        common += [f"--gamma={gamma!r}"]
    index = ["index", *common, f"--mu-grid={start!r}:{stop!r}:{count}"]
    if model == "B":
        index += ["--gamma-lo", "0", "--gamma-hi", "2"]
    spectrum = ["spectrum", *common, f"--mu-grid={start!r}:{stop!r}:2"]
    for argv in (index, spectrum):
        code, out, err = _run_quietly(
            argv + [f"--k={k!r}", f"--a={a!r}"])
        unit_code, unit_out, unit_err = _run_quietly(
            argv + ["--k=1.0", f"--a={a * k * k!r}"])
        assert code == unit_code, argv
        # a solver failure, or a threshold bracket no wave in it resolves
        # (a flat wave's), fails alike at both
        if code in (EXIT_SOLVER, EXIT_CONFIG):
            assert _strict_json(err)["message"] == \
                _strict_json(unit_err)["message"]
            continue
        if argv is index:
            have, want = _strict_json(out), _strict_json(unit_out)
            for key in ("verdict", "band_edge", "threshold_estimate"):
                assert have[key] == want[key]
            for (mu, disc), (unit_mu, unit_disc) in zip(
                    have["disc_samples"], want["disc_samples"]):
                assert mu == unit_mu
                assert disc == _scaled(unit_disc, k, -2 * power)
            assert have["disc_at_zero"] == \
                _scaled(want["disc_at_zero"], k, -2 * power)
            assert have["max_growth"] == \
                _scaled(want["max_growth"], k, power)
        else:
            rows = [line.split(",") for line in out.splitlines()]
            unit_rows = [line.split(",") for line in unit_out.splitlines()]
            assert len(rows) == len(unit_rows)
            for row, unit_row in zip(rows[1:], unit_rows[1:]):
                assert (row[0], row[3]) == (unit_row[0], unit_row[3])
                for part, unit_part in zip(row[1:3], unit_row[1:3]):
                    assert float(part) == _scaled(float(unit_part), k, power)
