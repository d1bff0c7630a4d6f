"""Campaigns of independent runs, result exports and function verification.

A campaign repeats one configuration ``num_runs`` times with seeds
``seed_base + run_index``.  Records come back ordered by run index no matter
how many worker processes executed them, so campaign outputs are
byte-identical across repeats and across worker counts.
"""

from __future__ import annotations

import csv
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
    bounds,
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
    num_runs: int
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
    if campaign.num_runs < 1:
        raise ValueError("a campaign needs at least one run")
    if campaign.workers < 1:
        raise ValueError("worker count must be positive")
    configs = campaign.run_configs()
    if campaign.workers == 1:
        # run is looked up at call time, so a caller may wrap harness.run
        records = [run(config) for config in configs]
    else:
        # imported here: it pulls in multiprocessing, which costs every
        # `import boolevo` tens of ms, and single-worker campaigns never use it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=campaign.workers) as pool:
            records = list(pool.map(run, configs))
    rows = summarize(records)
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        write_records(records, directory / RECORDS_FILE)
        write_summary(rows, directory / SUMMARY_FILE)
        export_boxplot_data(records, directory / BOXPLOT_FILE)
    return records, rows


def write_records(records: list[RunRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_json() + "\n")


def read_records(path) -> list[RunRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        return [RunRecord.from_json(line) for line in handle if line.strip()]


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


def verify_table(table: TruthTable) -> VerifyReport:
    properties = property_report(table)
    symmetric = is_rotation_symmetric(table)
    lines = []
    n, nl = table.n, properties.nonlinearity
    if n % 2 == 0:
        radius = covering_radius_bound(n)
        if nl == radius:
            lines.append(f"bent: meets the even-dimension bound {radius}")
        else:
            lines.append(f"below the even-dimension bound {radius}")
    else:
        quad = quadratic_bound(n)
        upper = odd_upper_bound(n)
        if nl > upper:
            lines.append(f"IMPOSSIBLE: exceeds the proven upper bound {upper}")
        elif nl == upper:
            lines.append(f"meets the proven upper bound {upper}")
        else:
            lines.append(f"below the proven upper bound {upper}")
        if nl > quad:
            lines.append(f"above the quadratic-construction value {quad}")
        elif nl == quad:
            lines.append(f"matches the quadratic-construction value {quad}")
        else:
            lines.append(f"below the quadratic-construction value {quad}")
        if n in BEST_KNOWN_NONLINEARITY:
            best = bounds(n).best_known
            if nl > best:
                lines.append(f"NEW RECORD: beats the best published value {best}")
            elif nl == best:
                lines.append(f"matches the best published value {best}")
            else:
                lines.append(f"below the best published value {best}")
    return VerifyReport(properties, symmetric, tuple(lines))


def verify_hex(digits: str, n: int) -> VerifyReport:
    return verify_table(TruthTable.from_hex(digits, n))
