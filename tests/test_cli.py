"""Command-line behaviour: subcommands, config files, flag precedence, exits."""

import json

import pytest

from boolevo.cli import main
from boolevo.engine import RunConfig, run


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search_prints_and_writes_record(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    code, stdout, _ = run_cli(
        capsys,
        "search",
        "--n", "4",
        "--population-size", "6",
        "--budget", "200",
        "--seed", "3",
        "--out", str(out),
    )
    assert code == 0
    assert "best nl" in stdout
    line = out.read_text().splitlines()[0]
    record = json.loads(line)
    assert record["seed"] == 3
    assert record["label"] == "TT"


def test_search_record_matches_library_run(tmp_path, capsys):
    # a flag left out takes the RunConfig default, so the echoed config agrees
    out = tmp_path / "run.jsonl"
    code, _, _ = run_cli(
        capsys, "search", "--n", "5", "--population-size", "6", "--budget", "200",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0
    config = RunConfig(n=5, population_size=6, evaluation_budget=200, seed=1)
    assert out.read_text() == run(config).to_json() + "\n"


def test_search_is_reproducible(tmp_path, capsys):
    args = ("search", "--n", "4", "--population-size", "6", "--budget", "200", "--seed", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("wall time")]
    assert strip(first) == strip(second)


def test_campaign_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "results"
    code, stdout, _ = run_cli(
        capsys,
        "campaign",
        "--n", "4",
        "--population-size", "6",
        "--budget", "150",
        "--runs", "3",
        "--seed-base", "5",
        "--out", str(out),
    )
    assert code == 0
    assert (out / "runs.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "boxplot.csv").exists()
    assert "TT: runs=3" in stdout
    seeds = [json.loads(l)["seed"] for l in (out / "runs.jsonl").read_text().splitlines()]
    assert seeds == [5, 6, 7]


def test_campaign_reports_target(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "campaign",
        "--n", "4",
        "--population-size", "6",
        "--budget", "2000",
        "--runs", "2",
        "--target-nl", "0",
    )
    assert code == 0
    assert "target reached in 2/2 runs" in stdout


def _no_search(*_):
    raise AssertionError("a run started before its output was checked")


def test_search_fails_on_a_bad_out_path_before_searching(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("boolevo.cli.run", _no_search)
    out = tmp_path / "nodir" / "run.jsonl"
    code, stdout, stderr = run_cli(capsys, "search", "--n", "4", "--out", str(out))
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: [Errno 2]") and stderr.count("\n") == 1
    assert not out.parent.exists()


def test_campaign_fails_on_a_bad_out_directory_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("boolevo.harness.run", _no_search)
    out = tmp_path / "results"
    out.write_text("not a directory")
    code, stdout, stderr = run_cli(capsys, "campaign", "--n", "4", "--runs", "2", "--out", str(out))
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: [Errno 17]") and stderr.count("\n") == 1
    assert out.read_text() == "not a directory"


def test_verify_subcommand(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "111e", "--n", "4")
    assert code == 0
    assert "nonlinearity       6" in stdout
    assert "bent" in stdout


def test_verify_rejects_garbage(capsys):
    code, _, stderr = run_cli(capsys, "verify", "zz", "--n", "3")
    assert code == 1
    assert "error" in stderr


def test_verify_rejects_digits_that_are_not_ascii_hex(capsys):
    # int("\u0663", 16) == 3, but an Arabic-Indic three is no hex digit
    code, stdout, stderr = run_cli(capsys, "verify", "\u0663\u0663", "--n", "3")
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: invalid hex string") and stderr.count("\n") == 1


def test_orbits_subcommand(capsys):
    code, stdout, _ = run_cli(capsys, "orbits", "--n", "7")
    assert code == 0
    assert "orbits          20" in stdout
    code, stdout, _ = run_cli(capsys, "orbits", "--n", "3", "--list")
    assert stdout.count("size") >= 4


def test_bounds_subcommand(capsys):
    code, stdout, _ = run_cli(capsys, "bounds", "--n", "9")
    assert code == 0
    assert "quadratic       240" in stdout
    assert "best known      242" in stdout
    assert "upper bound     244" in stdout


def test_bounds_rejects_even_n(capsys):
    code, _, stderr = run_cli(capsys, "bounds", "--n", "8")
    assert code == 1
    assert "odd" in stderr


def test_config_file_supplies_defaults(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[search]\n"
        "n = 4\n"
        "population-size = 6\n"
        "budget = 150\n"
        "seed = 11\n"
    )
    code, stdout, _ = run_cli(capsys, "--config", str(ini), "search")
    assert code == 0
    assert "seed           11" in stdout
    assert "evaluations    150" in stdout


@pytest.mark.parametrize(
    "word, listed", [("false", False), ("Off", False), ("true", True), ("1", True)]
)
def test_config_file_reads_on_off_flags_as_booleans(tmp_path, capsys, word, listed):
    ini = tmp_path / "orbits.ini"
    ini.write_text(f"[orbits]\nn = 3\nlist = {word}\n")
    code, stdout, _ = run_cli(capsys, "--config", str(ini), "orbits")
    assert code == 0
    assert ("size 3" in stdout) == listed


def test_config_file_rejects_a_non_boolean_flag_value(tmp_path, capsys):
    ini = tmp_path / "orbits.ini"
    ini.write_text("[orbits]\nn = 3\nlist = maybe\n")
    code, stdout, stderr = run_cli(capsys, "--config", str(ini), "orbits")
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: config key list") and stderr.count("\n") == 1


def test_flags_override_config_file(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[search]\nn = 4\npopulation-size = 6\nbudget = 150\nseed = 11\n")
    code, stdout, _ = run_cli(
        capsys, "--config", str(ini), "search", "--seed", "12", "--budget", "160"
    )
    assert code == 0
    assert "seed           12" in stdout
    assert "evaluations    160" in stdout


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[search]\nn = 4\nwarp-speed = 9\n")
    code, _, stderr = run_cli(capsys, "--config", str(ini), "search")
    assert code == 1
    assert "warp-speed" in stderr


def test_config_file_without_the_subcommands_section_supplies_nothing(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[search]\nn = 4\n")
    assert run_cli(capsys, "--config", str(ini), "bounds", "--n", "7") == run_cli(
        capsys, "bounds", "--n", "7"
    )


def test_config_file_needs_a_subcommand(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[search]\nn = 4\n")
    with pytest.raises(SystemExit) as error:
        main(["--config", str(ini)])
    assert error.value.code == 2
    assert capsys.readouterr().err.endswith("error: a subcommand is required\n")


@pytest.mark.parametrize(
    "path, text, argv, want",
    [
        ("orbits", "[search]\nn = 5\nbudget = 200\n", ["search"], "evaluations    200"),
        ("search", "[orbits]\nlist = yes\n", ["orbits", "--n", "3"], "size 3"),
    ],
    ids=["orbits-holds-search", "search-holds-orbits"],
)
def test_config_path_named_like_a_subcommand_reads_the_commands_section(
    tmp_path, monkeypatch, capsys, path, text, argv, want
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / path).write_text(text)
    code, stdout, _ = run_cli(capsys, "--config", path, *argv)
    assert code == 0
    assert want in stdout


def test_missing_config_file(capsys):
    code, _, stderr = run_cli(capsys, "--config", "/nonexistent.ini", "search", "--n", "4")
    assert code == 1
    assert "cannot read" in stderr


def test_invalid_run_configuration_exits_nonzero(capsys):
    code, _, stderr = run_cli(
        capsys, "search", "--n", "4", "--encoding", "float", "--decode", "3"
    )
    assert code == 1
    assert "decode" in stderr


def test_search_rejects_an_unreachable_target(capsys):
    code, out, stderr = run_cli(capsys, "search", "--n", "7", "--target-nl", "100")
    assert code == 1 and out == ""
    assert stderr == "error: target nonlinearity 100 is above the odd-n upper bound 58 at n = 7\n"


@pytest.mark.parametrize("limit", ["nan", "inf", "0"])
def test_time_limit_must_be_positive_and_finite(capsys, limit):
    code, _, stderr = run_cli(capsys, "search", "--n", "4", "--time-limit", limit)
    assert code == 1
    assert stderr == "error: time limit must be a positive finite number\n"


@pytest.mark.parametrize("n, mode", [("7", "general"), ("9", "rs")])
def test_search_float_with_default_decode(tmp_path, capsys, n, mode):
    out = tmp_path / "run.jsonl"
    code, _, stderr = run_cli(
        capsys, "search", "--n", n, "--mode", mode, "--encoding", "float",
        "--population-size", "6", "--budget", "100", "--seed", "1", "--out", str(out),
    )
    assert code == 0, stderr
    assert json.loads(out.read_text())["config"]["decode"] == 4
