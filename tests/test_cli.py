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
