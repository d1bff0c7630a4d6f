"""Campaign reproducibility, exports, summaries, and verification logic."""

import csv
import math

import pytest

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
    with pytest.raises(ValueError, match="a campaign needs at least one run"):
        run_campaign(tiny_campaign(num_runs=0))
    with pytest.raises(ValueError, match="worker count must be positive"):
        run_campaign(tiny_campaign(workers=0))
    # a bool would run one run, a float would fail inside range() or the pool
    for bad in (True, 2.5, -1, "3"):
        with pytest.raises(ValueError, match="num_runs must be an integer of at least 1"):
            run_campaign(tiny_campaign(num_runs=bad))
        with pytest.raises(ValueError, match="workers must be an integer of at least 1"):
            run_campaign(tiny_campaign(workers=bad))


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
