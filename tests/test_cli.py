import pytest

from afw3d import cli


def test_converge_rejects_a_list_of_levels(tmp_path, capsys):
    code = cli.main(["converge", "--levels", "1,2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG_ERROR == 2
    assert "Traceback" not in err and "--levels" in err
    assert not (tmp_path / "converge.json").exists()


def test_infsup_rejects_a_level_that_is_not_an_integer(tmp_path, capsys):
    code = cli.main(["infsup", "--levels", "1,x", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG_ERROR
    assert "Traceback" not in capsys.readouterr().err


def test_missing_mesh_file_is_a_config_error(tmp_path, capsys):
    code = cli.main(["solve", "--mesh", str(tmp_path / "absent.txt"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG_ERROR == 2
    assert "Traceback" not in err and "absent.txt" in err


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    from afw3d import assembly

    def breakdown(*args, **kwargs):
        raise assembly.FactorizationBreakdown("algebraic residual 1.0e+00")

    monkeypatch.setattr(assembly, "solve_case", breakdown)
    code = cli.main(["solve", "--case", "patch", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERICAL_FAILURE == 3
    assert err.count("\n") == 1 and "FactorizationBreakdown" in err


def _clear_signature_caches():
    from afw3d import assembly, interp, monomials, polyspace

    for module in (assembly, interp, monomials, polyspace):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_reports_are_byte_identical_with_cold_and_warm_caches(tmp_path):
    runs = (["solve", "--n", "1", "--r", "1", "--case", "patch"], ["infsup", "--levels", "1"])
    outputs = []
    for attempt in range(2):
        if attempt == 0:
            _clear_signature_caches()
        for argv in runs:
            assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
                        if p.suffix in (".json", ".csv")})
    assert sorted(outputs[0]) == ["infsup.csv", "infsup.json", "solution_samples.csv",
                                  "solve.csv", "solve.json"]
    assert outputs[0] == outputs[1]


def test_verify_commute_passes_at_its_defaults(tmp_path):
    assert cli.main(["verify", "commute", "--out", str(tmp_path)]) == cli.EXIT_OK


def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["infsup", "--n", "3", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == cli.EXIT_CONFIG_ERROR
    assert "Traceback" not in err and "--n" in err
    assert not (tmp_path / "infsup.json").exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import afw3d

    src = str(Path(afw3d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "afw3d", "verify", "tensor", "--out",
                           str(tmp_path)], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "verify_tensor.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--n", "0"], "--n"),
    (["mesh", "gen", "--n", "0"], "--n"),
    (["mesh", "gen", "--n", "-1"], "--n"),
    (["infsup", "--levels", "0"], "--levels"),
    (["infsup", "--levels", ","], "--levels"),
    (["verify", "commute", "--samples", "-1"], "--samples"),
    (["converge", "--r", "5"], "--r"),
    (["solve", "--tol-scale", "0"], "--tol-scale"),
])
def test_out_of_range_input_is_a_config_error(tmp_path, capsys, argv, flag):
    code = cli.main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG_ERROR
    assert err.count("\n") == 1 and "Traceback" not in err and flag in err
    assert not list(tmp_path.glob("*.json"))


def test_out_of_range_config_file_value_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 0\n")
    code = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG_ERROR
    assert "--n" in capsys.readouterr().err


def test_verify_commute_honours_zero_samples(tmp_path, monkeypatch):
    from afw3d import stability_lab

    seen = []
    suite = stability_lab.commuting_diagram_suite

    def recording(*args, **kwargs):
        seen.append(kwargs["n_samples"])
        return suite(*args, **kwargs)

    monkeypatch.setattr(stability_lab, "commuting_diagram_suite", recording)
    assert cli.main(["verify", "commute", "--samples", "0", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert seen == [0]


def _assert_config_error(code, capsys):
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG_ERROR
    assert err.count("\n") == 1 and err.startswith("config error:")


def test_lame_value_that_is_not_a_number_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "material.cfg"
    config.write_text("lame_lambda=abc\n")
    code = cli.main(["solve", "--config", str(config), "--out", str(tmp_path)])
    _assert_config_error(code, capsys)


@pytest.mark.parametrize("argv", [["--lambda", "inf"], ["--mu", "inf"], ["--mu", "nan"]])
def test_lame_value_that_is_not_finite_is_a_config_error(tmp_path, capsys, argv):
    code = cli.main(["solve", "--case", "patch", "--out", str(tmp_path)] + argv)
    _assert_config_error(code, capsys)


def test_infinite_mu_in_a_config_file_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "material.cfg"
    config.write_text("mu=inf\n")
    code = cli.main(["infsup", "--levels", "1", "--config", str(config), "--out", str(tmp_path)])
    _assert_config_error(code, capsys)


@pytest.mark.parametrize("orders", ["0 1 0 1 0", "0 1 -1 1 0 1", "0 1 9 1 0 1"],
                         ids=["count", "negative", "above-cap"])
def test_mesh_file_orders_are_checked_like_the_orders_flag(tmp_path, capsys, orders):
    assert cli.main(["mesh", "gen", "--n", "1", "--orders", "0,1,0,1,0,1",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    lines = (tmp_path / "mesh.txt").read_text().splitlines()
    assert lines[-2] == "orders"
    path = tmp_path / "bad_mesh.txt"
    path.write_text("\n".join(lines[:-1] + [orders]) + "\n")
    capsys.readouterr()
    code = cli.main(["solve", "--mesh", str(path), "--out", str(tmp_path)])
    _assert_config_error(code, capsys)


def test_verify_commute_fails_on_a_nan_residual(tmp_path, monkeypatch):
    from afw3d import interp

    monkeypatch.setattr(interp, "l2_norm", lambda *args, **kwargs: float("nan"))
    code = cli.main(["verify", "commute", "--samples", "0", "--out", str(tmp_path)])
    assert code == cli.EXIT_CHECK_FAILED


def test_infsup_fails_on_a_nan_beta(tmp_path, monkeypatch):
    from afw3d import stability_lab

    betas = iter([0.5, float("nan")])
    monkeypatch.setattr(stability_lab, "infsup_constant", lambda *args: next(betas))
    code = cli.main(["infsup", "--levels", "1,1", "--out", str(tmp_path)])
    assert code == cli.EXIT_CHECK_FAILED


ONE_TET = ["0 0 0", "1 0 0", "0 1 0", "0 0 1"]


@pytest.mark.parametrize("lines", [
    ["4"] + ONE_TET[:3] + ["nan 0 1", "1", "0 1 2 3"],
    ["-1", "1", "0 1 2 3"],
    ["4"] + ONE_TET + ["0"],
], ids=["non-finite-coordinate", "negative-count", "no-tets"])
def test_malformed_mesh_file_is_a_config_error(tmp_path, capsys, lines):
    path = tmp_path / "bad_mesh.txt"
    path.write_text("\n".join(["afw3d-mesh v1"] + lines) + "\n")
    code = cli.main(["solve", "--mesh", str(path), "--out", str(tmp_path)])
    _assert_config_error(code, capsys)
