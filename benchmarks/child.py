"""One benchmark repetition, run in a fresh process.

Usage: python3 benchmarks/child.py WORKLOAD SEED OUT_DIR {setup,plain,traced}

The process imports boolevo from the checkout's ``src`` directory, builds
one cold ``FitnessEvaluator`` per workload config (this and the import are
the set-up time), then runs the workload's campaigns through
``harness.run_campaign`` with ``workers=1``, writing their outputs under
OUT_DIR.  It then checks every record against the reference transform in
``boolevo.truthtable`` and prints one JSON object as its last stdout line.
``setup`` stops after set-up (the benchmark's discarded warm-up);
``traced`` also records spans (see tracer.py) and writes them to
OUT_DIR/spans.tsv.  ``setup`` and ``plain`` time ``reference()`` three
times after set-up, and ``plain`` once more before each search run, so
the benchmark can scale the child's times by the machine's speed while it
ran.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import SEED_STRIDE, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
# references timed right after set-up: enough for a set-up-only child's
# median to scale its one set-up sample
SETUP_REFERENCES = 3


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work.

    On a shared host the same code runs up to twice as slow while
    neighbours are busy, in spells that can cover a whole benchmark run.
    This work does not depend on boolevo and resembles its instruction mix
    (Python loops over ints, dicts and lists; numpy calls on 128- and
    8192-entry arrays), so a change to the program leaves its time alone,
    while a slow spell stretches it as it stretches the program.  It takes
    about 36 ms and allocates well under 1 MiB.
    """
    import numpy as np  # already loaded by boolevo; not part of set-up

    begun = time.perf_counter()
    total = 0
    table = {}
    for i in range(75_000):
        total += i * i
        table[i & 255] = [total, i]
    small = np.arange(128, dtype=np.int64)
    for i in range(3_000):
        total += int((small ^ i).sum())
    vec = np.arange(8192, dtype=np.int64)
    for i in range(300):
        vec = (vec * 3 + i) & 0xFFFF
        total += int(vec.sum())
    return time.perf_counter() - begun


def check_record(record, config, boolevo) -> list[str]:
    """Problems found when recomputing one record with the reference code."""
    table = boolevo.TruthTable.from_hex(record.best_truth_table, config.n)
    problems = []
    nl = boolevo.nonlinearity(boolevo.walsh_transform(table))
    if nl != record.best_nonlinearity:
        problems.append(f"nonlinearity {record.best_nonlinearity} != reference {nl}")
    fit = boolevo.fitness(table)
    if fit != record.best_fitness:
        problems.append(f"fitness {record.best_fitness!r} != reference {fit!r}")
    if config.mode == boolevo.ROTATION and not boolevo.is_rotation_symmetric(table):
        problems.append("rotation-symmetric run returned an asymmetric function")
    if record.evaluations != config.evaluation_budget:
        problems.append(
            f"spent {record.evaluations} evaluations, budget {config.evaluation_budget}"
        )
    return [f"{record.label} seed {record.seed}: {p}" for p in problems]


def main(argv: list[str]) -> dict:
    workload, seed, out_dir, mode = argv[1], int(argv[2]), Path(argv[3]), argv[4]
    campaigns = WORKLOADS[workload]
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    import boolevo
    from boolevo import harness

    if not Path(boolevo.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported boolevo from {boolevo.__file__}, not from {SRC}")
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    configs = [boolevo.RunConfig(**kwargs) for kwargs, _ in campaigns]
    for config in configs:
        boolevo.FitnessEvaluator(config.n, config.encoding, config.mode, config.decode)
    setup_s = time.perf_counter() - started
    # the reference is not timed in a traced child, where it would show as
    # harness self time; the traced run needs raw times only
    measure_speed = mode != "traced"
    setup_ref_s = [reference() for _ in range(SETUP_REFERENCES)] if measure_speed else []
    if mode == "setup":
        return {"setup_s": setup_s, "setup_ref_s": setup_ref_s}
    setup_spans = len(tracer.start) if tracer else 0

    run_s: list[float] = []
    run_ref_s: list[float] = []
    inner_run = harness.run

    def timed_run(config):
        if measure_speed:
            run_ref_s.append(reference())
        begun = time.perf_counter()
        try:
            return inner_run(config)
        finally:
            run_s.append(time.perf_counter() - begun)

    harness.run = timed_run

    campaign_s: list[float] = []
    # each campaign's time outside engine.run and the references: set-up,
    # bookkeeping and writes
    outside_s: list[float] = []
    failed = 0
    problems: list[str] = []
    finished = []
    for index, (config, (_, runs)) in enumerate(zip(configs, campaigns)):
        directory = out_dir / f"campaign-{index}"
        campaign = boolevo.Campaign(config, runs, seed_base=seed * SEED_STRIDE, workers=1)
        runs_before = len(run_s)
        begun = time.perf_counter()
        try:
            harness.run_campaign(campaign, str(directory))
        except Exception:
            traceback.print_exc()
            failed += runs
            problems.append(f"campaign {index} ({config.derived_label()}) raised")
            continue
        finally:
            campaign_s.append(time.perf_counter() - begun)
            inside = sum(run_s[runs_before:]) + sum(run_ref_s[runs_before:])
            outside_s.append(campaign_s[-1] - inside)
        finished.append((config, runs, directory / harness.RECORDS_FILE))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(runs for _, runs in campaigns)
    expected_runs = sum(runs for _, runs, _ in finished)
    if len(run_s) != expected_runs:
        problems.append(f"timed {len(run_s)} engine.run calls, expected {expected_runs}")
    digest = hashlib.sha256()
    evaluations = 0
    fitness_sum = 0.0
    hits = 0
    for config, runs, path in finished:
        digest.update(path.read_bytes())
        records = harness.read_records(path)
        if len(records) != runs:
            problems.append(f"{path.name}: {len(records)} records, expected {runs}")
            failed += runs
            continue
        target = boolevo.quadratic_bound(config.n)
        for record in records:
            wrong = check_record(record, config, boolevo)
            problems.extend(wrong)
            failed += bool(wrong)
            evaluations += record.evaluations
            fitness_sum += record.best_fitness
            hits += record.best_nonlinearity >= target

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "run_s": run_s,
        "run_ref_s": run_ref_s,
        "outside_s": outside_s,
        "evaluations": evaluations,
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failed": failed,
        "fitness_sum": fitness_sum,
        "hits": hits,
        "digest": digest.hexdigest(),
        "problems": problems,
    }
    if tracer is not None:
        expected_init = sum(c.population_size * runs for c, runs, _ in finished)
        layers, coverage = tracer.layer_metrics(setup_spans, evaluations, expected_init)
        result["layers"] = layers
        problems.extend(coverage)
        tracer.write(out_dir / "spans.tsv")
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
