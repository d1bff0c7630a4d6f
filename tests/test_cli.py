"""Command-line behaviour: subcommands, spec files, flag precedence, exits."""

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


def write_spec(path, spec) -> str:
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def test_config_file_supplies_defaults(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "run.json", {"n": 4, "population_size": 6, "evaluation_budget": 150, "seed": 11}
    )
    code, stdout, _ = run_cli(capsys, "search", "--spec", spec)
    assert code == 0
    assert "seed           11" in stdout
    assert "evaluations    150" in stdout


def test_flags_override_config_file(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "run.json", {"n": 4, "population_size": 6, "evaluation_budget": 150, "seed": 11}
    )
    code, stdout, _ = run_cli(capsys, "search", "--spec", spec, "--seed", "12", "--budget", "160")
    assert code == 0
    assert "seed           12" in stdout
    assert "evaluations    160" in stdout


def test_campaign_spec_runs_seeds_from_its_seed_base(tmp_path, capsys):
    spec = write_spec(
        tmp_path / "campaign.json",
        {
            "n": 4, "population_size": 6, "evaluation_budget": 150,
            "num_runs": 3, "seed_base": 5, "workers": 1,
        },
    )
    out = tmp_path / "results"
    code, stdout, _ = run_cli(capsys, "campaign", "--spec", spec, "--out", str(out))
    assert code == 0
    assert "TT: runs=3" in stdout
    seeds = [json.loads(l)["seed"] for l in (out / "runs.jsonl").read_text().splitlines()]
    assert seeds == [5, 6, 7]


@pytest.mark.parametrize(
    "spec, flags",
    [
        ({"p_mutation": 1}, ["--p-mutation", "1"]),
        ({"time_limit": 5}, ["--time-limit", "5"]),
    ],
    ids=["p_mutation", "time_limit"],
)
def test_an_int_float_option_writes_one_record_from_every_entry_point(
    tmp_path, capsys, spec, flags
):
    base = {"n": 5, "population_size": 6, "evaluation_budget": 200, "seed": 1}
    from_spec, from_flags = tmp_path / "spec.jsonl", tmp_path / "flags.jsonl"
    path = write_spec(tmp_path / "run.json", {**base, **spec})
    assert run_cli(capsys, "search", "--spec", path, "--out", str(from_spec))[0] == 0
    argv = ["--n", "5", "--population-size", "6", "--budget", "200", "--seed", "1", *flags]
    assert run_cli(capsys, "search", *argv, "--out", str(from_flags))[0] == 0
    line = run(RunConfig(**base, **spec)).to_json() + "\n"
    assert from_spec.read_text() == from_flags.read_text() == line
    assert isinstance(json.loads(line)["config"][next(iter(spec))], float)


def _one_line_error(capsys, argv, path):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert stderr.startswith(f"error: spec file {path!r}") and stderr.count("\n") == 1
    return stderr


def test_missing_config_file(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    stderr = _one_line_error(capsys, ["search", "--spec", path, "--n", "4"], path)
    assert "No such file" in stderr


@pytest.mark.parametrize(
    "content, want",
    [
        (b'{"n": 4, "label": "\xff"}', "can't decode byte 0xff"),
        (b'{"n": 4,\n "seed": }', "Expecting value at line 2 column 10"),
        (b'[{"n": 4}]', "must hold one JSON object, not a list"),
        (b'{"n": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "JSON nested too deeply"),
    ],
    ids=["not-utf8", "bad-json", "not-an-object", "too-deep"],
)
def test_malformed_config_file_is_a_one_line_error(tmp_path, capsys, content, want):
    spec = tmp_path / "run.json"
    spec.write_bytes(content)
    assert want in _one_line_error(capsys, ["search", "--spec", str(spec)], str(spec))


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    spec = write_spec(tmp_path / "run.json", {"n": 4, "warp_speed": 9})
    stderr = _one_line_error(capsys, ["search", "--spec", spec], spec)
    assert "unknown keys for search: ['warp_speed']" in stderr


def test_campaign_spec_refuses_a_seed(tmp_path, capsys):
    # a campaign's seeds are seed_base + run index
    spec = write_spec(tmp_path / "campaign.json", {"n": 4, "seed": 3})
    stderr = _one_line_error(capsys, ["campaign", "--spec", spec], spec)
    assert "unknown keys for campaign: ['seed']" in stderr


@pytest.mark.parametrize("with_spec", [False, True])
def test_n_is_required_from_the_flags_or_the_spec(tmp_path, capsys, with_spec):
    argv = ["search", "--budget", "150"]
    if with_spec:
        argv += ["--spec", write_spec(tmp_path / "run.json", {"population_size": 6})]
    with pytest.raises(SystemExit) as error:
        main(argv)
    assert error.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --n\n"
    )


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"n": "9"}, "number of variables must be an integer of at least 1, got '9'"),
        ({"n": 5, "label": 5}, "label must be a string, got 5"),
        ({"n": 5, "ls": "ls9"}, "unknown local search variant 'ls9'"),
    ],
    ids=["n", "label", "ls"],
)
def test_a_wrong_typed_spec_value_is_validates_error(tmp_path, capsys, spec, message):
    path = write_spec(tmp_path / "run.json", spec)
    code, stdout, stderr = run_cli(capsys, "search", "--spec", path)
    assert code == 1 and stdout == ""
    assert stderr == f"error: {message}\n"


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
