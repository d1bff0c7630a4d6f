"""Campaigns of independent runs, result exports and function verification.

A campaign repeats one configuration ``num_runs`` times with seeds
``seed_base + run_index``.  Records come back ordered by run index no matter
how many worker processes executed them, so campaign outputs are
byte-identical across repeats and across worker counts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .engine import RunConfig, RunRecord, run
from .orbits import is_rotation_symmetric
from .truthtable import (
    BEST_KNOWN_NONLINEARITY,
    PropertyReport,
    TruthTable,
    check_int,
    covering_radius_bound,
    odd_upper_bound,
    property_report,
    quadratic_bound,
)

RECORDS_FILE = "runs.jsonl"
SUMMARY_FILE = "summary.csv"
BOXPLOT_FILE = "boxplot.csv"


@dataclass
class Campaign:
    """A batch of identically configured runs with consecutive seeds."""

    config: RunConfig
    num_runs: int = 30
    seed_base: int = 0
    workers: int = 1

    def run_configs(self) -> list[RunConfig]:
        return [
            replace(self.config, seed=self.seed_base + index)
            for index in range(self.num_runs)
        ]


@dataclass(frozen=True)
class SummaryRow:
    """Across-run statistics of the best fitness for one label."""

    label: str
    num_runs: int
    max_fitness: float
    avg_fitness: float
    std_fitness: float
    max_nonlinearity: int


def run_campaign(
    campaign: Campaign, out_dir: Optional[str] = None
) -> tuple[list[RunRecord], list[SummaryRow]]:
    """Run all campaign members and optionally write the three artefacts.

    Writes ``runs.jsonl`` (one canonical record per line, run order),
    ``summary.csv`` and ``boxplot.csv`` into ``out_dir`` when given.
    """
    # True, 2.5 or -1 would otherwise reach range(), the pool or the seeds
    check_int("num_runs", campaign.num_runs, 1)
    check_int("workers", campaign.workers, 1)
    check_int("seed_base", campaign.seed_base, 0)
    # a bad config fails before the directory is made or a pool starts
    campaign.config.validate()
    configs = campaign.run_configs()
    # the fork start method launches every worker at once, idle or not
    workers = min(campaign.workers, campaign.num_runs)
    if out_dir is not None:
        # made before the runs, so a bad directory fails at once, not after them
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
    if workers == 1:
        # run is looked up at call time, so a caller may wrap harness.run
        records = [run(config) for config in configs]
    else:
        # imported here: it pulls in multiprocessing, which costs every
        # `import boolevo` tens of ms, and single-worker campaigns never use it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run, configs))
    rows = summarize(records)
    if out_dir is not None:
        write_records(records, directory / RECORDS_FILE)
        write_summary(rows, directory / SUMMARY_FILE)
        export_boxplot_data(records, directory / BOXPLOT_FILE)
    return records, rows


def write_records(records: list[RunRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_json() + "\n")


def read_records(path) -> list[RunRecord]:
    """The records of a ``runs.jsonl`` file; a bad line is a one-line error
    that starts ``path:line:``."""
    records = []
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            try:
                # a UnicodeDecodeError is a ValueError, so it names this line too
                line = line.decode("utf-8")
                if line.strip():
                    records.append(RunRecord.from_json(line))
            except json.JSONDecodeError as error:
                # json's own position counts from the line, not the file
                raise ValueError(f"{path}:{number}: {error.msg} at column {error.colno}") from None
            except ValueError as error:
                raise ValueError(f"{path}:{number}: {error}") from None
            except RecursionError:
                # json gives up on deep nesting with the interpreter's recursion limit
                raise ValueError(f"{path}:{number}: JSON nested too deeply") from None
    return records


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """One row per label, labels sorted; sample std, zero for a single run."""
    by_label: dict[str, list[RunRecord]] = {}
    for record in records:
        by_label.setdefault(record.label, []).append(record)
    rows = []
    for label in sorted(by_label):
        fits = [record.best_fitness for record in by_label[label]]
        count = len(fits)
        mean = sum(fits) / count
        if count > 1:
            std = math.sqrt(sum((f - mean) ** 2 for f in fits) / (count - 1))
        else:
            std = 0.0
        rows.append(
            SummaryRow(
                label=label,
                num_runs=count,
                max_fitness=max(fits),
                avg_fitness=mean,
                std_fitness=std,
                max_nonlinearity=max(r.best_nonlinearity for r in by_label[label]),
            )
        )
    return rows


def write_summary(rows: list[SummaryRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["label", "runs", "max_fitness", "avg_fitness", "std_fitness", "max_nonlinearity"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.label,
                    row.num_runs,
                    repr(row.max_fitness),
                    repr(row.avg_fitness),
                    repr(row.std_fitness),
                    row.max_nonlinearity,
                ]
            )


def export_boxplot_data(records: list[RunRecord], path) -> None:
    """Best fitness per run as CSV columns, one column per label (sorted).

    Row ``i`` holds each label's ``i``-th run; shorter columns leave blanks.
    """
    by_label: dict[str, list[float]] = {}
    for record in records:
        by_label.setdefault(record.label, []).append(record.best_fitness)
    labels = sorted(by_label)
    height = max((len(v) for v in by_label.values()), default=0)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(labels)
        for i in range(height):
            writer.writerow(
                [repr(by_label[l][i]) if i < len(by_label[l]) else "" for l in labels]
            )


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerifyReport:
    """Properties of a submitted function plus its standing among the bounds."""

    properties: PropertyReport
    rotation_symmetric: bool
    classification: tuple[str, ...]


def _standing(nl: int, value: int, above: str, equal: str, what: str) -> str:
    """One line placing ``nl`` against one bound: ``above``, ``equal`` or
    "below", then ``what`` and the bound's value."""
    phrase = above if nl > value else equal if nl == value else "below"
    return f"{phrase} {what} {value}"


def verify_table(table: TruthTable) -> VerifyReport:
    properties = property_report(table)
    n, nl = table.n, properties.nonlinearity
    if n % 2 == 0:
        # no function lies above the bent bound, so only meeting it is named
        bound = covering_radius_bound(n)
        lines = [_standing(nl, bound, "below", "bent: meets", "the even-dimension bound")]
    else:
        upper, quad = odd_upper_bound(n), quadratic_bound(n)
        lines = [
            _standing(nl, upper, "IMPOSSIBLE: exceeds", "meets", "the proven upper bound"),
            _standing(nl, quad, "above", "matches", "the quadratic-construction value"),
        ]
        if n in BEST_KNOWN_NONLINEARITY:
            best = BEST_KNOWN_NONLINEARITY[n]
            lines.append(
                _standing(nl, best, "NEW RECORD: beats", "matches", "the best published value")
            )
    return VerifyReport(properties, is_rotation_symmetric(table), tuple(lines))


def verify_hex(digits: str, n: int) -> VerifyReport:
    return verify_table(TruthTable.from_hex(digits, n))
