"""Campaign reproducibility, exports, summaries, and verification logic."""

import csv
import math
from dataclasses import replace

import pytest

from boolevo import harness
from boolevo.engine import RunConfig, RunRecord
from boolevo.harness import (
    BOXPLOT_FILE,
    RECORDS_FILE,
    SUMMARY_FILE,
    Campaign,
    SummaryRow,
    export_boxplot_data,
    read_records,
    run_campaign,
    summarize,
    verify_hex,
    verify_table,
    write_records,
)
from boolevo.truthtable import TruthTable


def tiny_campaign(**overrides):
    config = RunConfig(n=4, encoding="bitstring", population_size=6, evaluation_budget=120)
    base = dict(config=config, num_runs=4, seed_base=100, workers=1)
    base.update(overrides)
    return Campaign(**base)


def test_campaign_seeds_are_consecutive():
    campaign = tiny_campaign()
    seeds = [cfg.seed for cfg in campaign.run_configs()]
    assert seeds == [100, 101, 102, 103]


def test_campaign_repeats_byte_identically(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_campaign(tiny_campaign(), out_dir=first)
    run_campaign(tiny_campaign(), out_dir=second)
    for name in (RECORDS_FILE, SUMMARY_FILE, BOXPLOT_FILE):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_campaign_worker_count_does_not_change_results(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    run_campaign(tiny_campaign(), out_dir=serial)
    run_campaign(tiny_campaign(workers=2), out_dir=parallel)
    assert (serial / RECORDS_FILE).read_bytes() == (parallel / RECORDS_FILE).read_bytes()


def test_campaign_records_round_trip(tmp_path):
    records, rows = run_campaign(tiny_campaign(), out_dir=tmp_path)
    loaded = read_records(tmp_path / RECORDS_FILE)
    assert [r.to_json() for r in loaded] == [r.to_json() for r in records]
    assert len(rows) == 1 and rows[0].num_runs == 4


def test_campaign_validation():
    # a bool would run one run, a float would fail inside range() or the pool
    for bad in (0, True, 2.5, -1, "3"):
        with pytest.raises(ValueError, match="num_runs must be an integer of at least 1"):
            run_campaign(tiny_campaign(num_runs=bad))
        with pytest.raises(ValueError, match="workers must be an integer of at least 1"):
            run_campaign(tiny_campaign(workers=bad))


@pytest.mark.parametrize("bad", [True, "3", -1, 1.5])
def test_campaign_refuses_a_seed_base_that_is_no_seed(bad, tmp_path):
    # True ran seeds 1, 2, ...; "3" failed on the first seed with a traceback
    with pytest.raises(ValueError, match="^seed_base must be an integer of at least 0, got "):
        run_campaign(tiny_campaign(seed_base=bad), out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_checks_its_config_before_making_anything(workers, tmp_path, monkeypatch):
    # each run checked it, after the directory was made and the pool started
    def refuse(*args, **kwargs):
        raise AssertionError("a pool started before the config was checked")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
    config = replace(tiny_campaign().config, evaluation_budget=1)
    campaign = tiny_campaign(config=config, workers=workers)
    with pytest.raises(ValueError, match="^evaluation budget must be an integer of at least 6, "):
        run_campaign(campaign, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_campaign_starts_no_more_workers_than_runs(monkeypatch):
    # a fork pool launches all of max_workers at once, so idle ones would fork too
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    records, _ = run_campaign(tiny_campaign(num_runs=2, workers=8))
    assert started == [2]
    assert [record.seed for record in records] == [100, 101]


def fake_record(label, fitness, nl=4):
    return RunRecord(
        label=label,
        seed=0,
        config={},
        evaluations=10,
        best_fitness=fitness,
        best_nonlinearity=nl,
        best_genotype={},
        best_truth_table="0000",
        trajectory=[],
        target_reached=False,
        stop_reason="budget",
    )


def test_summarize_statistics():
    records = [fake_record("A", 2.0), fake_record("A", 4.0), fake_record("B", 1.5)]
    rows = summarize(records)
    assert [row.label for row in rows] == ["A", "B"]
    a, b = rows
    assert a.num_runs == 2 and a.max_fitness == 4.0 and a.avg_fitness == 3.0
    assert a.std_fitness == pytest.approx(math.sqrt(2.0))
    # single run: sample std defined as zero
    assert b.num_runs == 1 and b.std_fitness == 0.0


def test_boxplot_csv_layout(tmp_path):
    records = [
        fake_record("B", 1.0),
        fake_record("A", 2.0),
        fake_record("B", 3.0),
        fake_record("B", 4.0),
    ]
    path = tmp_path / "box.csv"
    export_boxplot_data(records, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["A", "B"]  # labels sorted
    assert rows[1] == ["2.0", "1.0"]
    assert rows[2] == ["", "3.0"]  # ragged columns padded
    assert rows[3] == ["", "4.0"]


def test_boxplot_single_label_shape(tmp_path):
    records = [fake_record("TT", float(i)) for i in range(30)]
    path = tmp_path / "box.csv"
    export_boxplot_data(records, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["TT"]
    assert len(rows) == 31  # header + 30 runs


def test_write_records_one_line_each(tmp_path):
    records = [fake_record("A", 1.0), fake_record("A", 2.0)]
    path = tmp_path / "runs.jsonl"
    write_records(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("{") for line in lines)


@pytest.mark.parametrize(
    "bad,message",
    [
        ("{not json", "Expecting property name enclosed in double quotes at column 2"),
        ('{"label": "A"}', "run record has unknown keys [] and missing keys ["),
        ("[1, 2]", "a run record must be a JSON object"),
    ],
)
def test_read_records_names_the_bad_line(tmp_path, bad, message):
    path = tmp_path / "runs.jsonl"
    good = fake_record("A", 1.0).to_json()
    path.write_text(f"{good}\n\n{bad}\n{good}\n", encoding="utf-8")
    with pytest.raises(ValueError) as error:
        read_records(path)
    assert str(error.value).startswith(f"{path}:3: {message}")
    assert "\n" not in str(error.value)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("best_fitness", "high", "must be a finite number, got 'high'"),
        ("best_fitness", True, "must be a finite number, got True"),
        ("best_fitness", float("nan"), "must be a finite number, got nan"),
        ("best_nonlinearity", "x", "must be an integer of at least 0, got 'x'"),
        ("best_nonlinearity", 4.0, "must be an integer of at least 0, got 4.0"),
        ("evaluations", None, "must be an integer of at least 0, got None"),
        ("evaluations", True, "must be an integer of at least 0, got True"),
        ("seed", -1, "must be an integer of at least 0, got -1"),
        ("label", 3, "must be a str, got 3"),
        ("trajectory", 5, "must be a list, got 5"),
        ("target_reached", "no", "must be a bool, got 'no'"),
        ("config", [], "must be a dict, got []"),
        ("stop_reason", "done", "must be one of ('budget', 'time', 'target'), got 'done'"),
        ("wall_time_s", "1s", "must be a number, got '1s'"),
    ],
)
def test_read_records_names_a_bad_field_value(tmp_path, field, value, message):
    path = tmp_path / "runs.jsonl"
    bad = replace(fake_record("A", 1.0), **{field: value}).to_json(include_timing=True)
    path.write_text(f"{fake_record('A', 1.0).to_json()}\n{bad}\n", encoding="utf-8")
    with pytest.raises(ValueError) as error:
        read_records(path)
    assert str(error.value) == f"{path}:2: record field {field!r} {message}"


def test_read_records_accepts_a_null_seed_and_a_wall_time(tmp_path):
    path = tmp_path / "runs.jsonl"
    record = replace(fake_record("A", 1.0), seed=None, wall_time_s=0.5)
    path.write_text(record.to_json(include_timing=True) + "\n", encoding="utf-8")
    assert read_records(path) == [record]


def test_read_records_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "runs.jsonl"
    good = fake_record("A", 1.0).to_json().encode()
    path.write_bytes(good + b"\n" + good[:20] + b"\xff" + good[20:] + b"\n")
    with pytest.raises(ValueError) as error:
        read_records(path)
    assert str(error.value).startswith(f"{path}:2: 'utf-8' codec can't decode byte 0xff")
    assert "\n" not in str(error.value)



def test_read_records_names_a_line_nested_too_deeply(tmp_path):
    path = tmp_path / "runs.jsonl"
    good = fake_record("A", 1.0).to_json().encode()
    path.write_bytes(good + b"\n" + b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n")
    with pytest.raises(ValueError) as error:
        read_records(path)
    assert str(error.value) == f"{path}:2: JSON nested too deeply"

# ---------------------------------------------------------------------------
# verify


def test_verify_bent_function():
    report = verify_hex("111e", 4)  # x1x2 XOR x3x4
    assert report.properties.nonlinearity == 6
    assert not report.rotation_symmetric
    assert any("bent" in line for line in report.classification)


def test_verify_quadratic_level_odd_n():
    # the expanded symmetric function from 4 orbit bits 0110 has nl 2 at n=3
    report = verify_hex("7e", 3)
    assert report.properties.nonlinearity == 2
    assert report.rotation_symmetric
    assert any("upper bound 2" in line for line in report.classification)
    assert any("meets the proven upper bound" in line for line in report.classification)


def test_verify_flags_best_known_comparison():
    from boolevo.engine import RunConfig, run

    record = run(
        RunConfig(
            n=7,
            encoding="bitstring",
            mode="rs",
            population_size=30,
            evaluation_budget=200_000,
            target_nonlinearity=56,
            seed=1,
        )
    )
    assert record.best_nonlinearity == 56
    report = verify_hex(record.best_truth_table, 7)
    assert report.rotation_symmetric
    assert any("matches the best published value 56" in line for line in report.classification)


def test_verify_table_low_nonlinearity():
    report = verify_table(TruthTable(5, [0] * 32))
    assert report.properties.nonlinearity == 0
    assert any("below the proven upper bound" in line for line in report.classification)
    assert any("below the quadratic-construction value" in line for line in report.classification)


#: (n, nl) -> classification, every phrase of each bound: at n = 4 the bent
#: bound 6; at n = 9 the upper bound 244, the quadratic value 240 and the
#: best published value 242
STANDINGS = {
    (4, 6): ("bent: meets the even-dimension bound 6",),
    (4, 5): ("below the even-dimension bound 6",),
    (9, 245): (
        "IMPOSSIBLE: exceeds the proven upper bound 244",
        "above the quadratic-construction value 240",
        "NEW RECORD: beats the best published value 242",
    ),
    (9, 244): (
        "meets the proven upper bound 244",
        "above the quadratic-construction value 240",
        "NEW RECORD: beats the best published value 242",
    ),
    (9, 242): (
        "below the proven upper bound 244",
        "above the quadratic-construction value 240",
        "matches the best published value 242",
    ),
    (9, 241): (
        "below the proven upper bound 244",
        "above the quadratic-construction value 240",
        "below the best published value 242",
    ),
    (9, 240): (
        "below the proven upper bound 244",
        "matches the quadratic-construction value 240",
        "below the best published value 242",
    ),
    (9, 239): (
        "below the proven upper bound 244",
        "below the quadratic-construction value 240",
        "below the best published value 242",
    ),
    # no published value at n = 15
    (15, 16256): (
        "below the proven upper bound 16292",
        "matches the quadratic-construction value 16256",
    ),
}


@pytest.mark.parametrize("n,nl", list(STANDINGS))
def test_verify_table_words_every_standing(monkeypatch, n, nl):
    # no real table reaches most of these, so the report is patched
    real = harness.property_report
    monkeypatch.setattr(
        harness, "property_report", lambda table: replace(real(table), nonlinearity=nl)
    )
    report = verify_table(TruthTable(n, [0] * (1 << n)))
    assert report.classification == STANDINGS[n, nl]
