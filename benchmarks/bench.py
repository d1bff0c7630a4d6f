"""boolevo's benchmark: one workload, repeated a fixed number of times.

Usage, from the root of a checkout:

    python3 benchmarks/bench.py --workload n7-sst --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: a fixed number of repetitions
of the workload (``workloads.REPETITIONS``) run one after another, each in
a fresh child process (child.py).  A discarded set-up-only child runs
first, so byte-compilation and a cold file cache are not measured.
``--seconds`` is a cap: no repetition starts that would likely end after
it, once MIN_REPS are done.  With ``--trace 0`` the last stdout line
reports the end-to-end metrics of BENCHMARK.json, with set-up-only
children between the repetitions for more set-up samples and every time
scaled by the machine's speed (see ``speed_scale``); with ``--trace 1`` two
fifths as many plain and traced repetitions alternate and it reports the
per-layer metrics of the traced ones.  Every record is checked, and every
repetition must write byte-identical records.
Outputs go to ``.bench_out/<workload>`` in the checkout.  README.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REPETITIONS, SEED_STRIDE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
MIN_TRACED_REPS = 2
# set-up is one short piece per child, so its median needs more children
# than the repetitions give: with four, setup_s spread 0.22 over ten seeds
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 60
# the reference's median time on the machine README.md describes: timed
# pieces are reported in seconds of a machine running at that speed
REFERENCE_S = 0.036
# no repetition starts that would likely end after this, so a run ends in time
LAST_END_S = 150
# one client on one core: numerical libraries may not start worker threads
CHILD_ENV = dict(
    os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
)


class BenchError(Exception):
    pass


def run_child(workload: str, seed: int, out_dir: Path, mode: str) -> dict:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), str(out_dir), mode],
            cwd=ROOT,
            env=CHILD_ENV,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition took longer than {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} repetition exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def speed_scale(rep: dict) -> float:
    """Factor that turns a child's times into seconds of the usual machine.

    On a shared machine the same piece runs up to twice as slow while
    neighbours are busy, in spells that can cover a whole benchmark run, so
    neither a run's median nor its fastest time is steady from run to run.
    The reference (``child.reference``) is stretched by the same spells and
    does not depend on the program, so dividing by it keeps the program's
    own cost: a change that makes the program faster lowers it in full.
    The child's median reference is used, since one reference alone varies
    by about a sixth.
    """
    return REFERENCE_S / statistics.median([*rep["setup_ref_s"], *rep.get("run_ref_s", [])])


def summed_medians(reps: list[list[float]]) -> float:
    """Sum over the timed pieces of each piece's median over the repetitions.

    A piece is one search run, or one campaign's time outside its runs.
    Every repetition does the same pieces in the same order, with
    byte-identical records, so piece ``i`` has one sample per repetition.
    """
    if len({len(times) for times in reps}) != 1:
        raise BenchError("repetitions timed different numbers of pieces")
    return sum(statistics.median(column) for column in zip(*reps))


def end_to_end(plain: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """Reported value and per-repetition samples of every end-to-end metric.

    ``setups`` are the set-up-only children that add ``setup_s`` samples.
    """
    evaluations = plain[0]["evaluations"]
    scales = [speed_scale(r) for r in plain]
    run = [[t * k for t in r["run_s"]] for r, k in zip(plain, scales)]
    outside = [[t * k for t in r["outside_s"]] for r, k in zip(plain, scales)]
    samples = {
        "evals_per_s": [evaluations / sum(times) for times in run],
        "wall_s": [sum(a) + sum(b) for a, b in zip(run, outside)],
        "setup_s": [r["setup_s"] * speed_scale(r) for r in plain + setups],
        "peak_rss_mib": [r["peak_rss_mib"] for r in plain],
        "best_fitness_mean": [r["fitness_sum"] / r["attempted"] for r in plain],
    }
    values = {name: statistics.median(values) for name, values in samples.items()}
    values["evals_per_s"] = evaluations / summed_medians(run)
    values["wall_s"] = summed_medians(run) + summed_medians(outside)
    return values, samples


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Reported value and per-traced-repetition samples of every per-layer metric."""
    samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    # plain and traced repetitions alternate, so raw times compare fairly
    untraced = summed_medians([r["run_s"] for r in plain])
    samples["trace.overhead_ratio"] = [sum(r["run_s"]) / untraced for r in traced]
    # counts repeat exactly, so they keep their integer value
    values = {
        name: values[0] if len(set(values)) == 1 else statistics.median(values)
        for name, values in samples.items()
    }
    values["trace.overhead_ratio"] = summed_medians([r["run_s"] for r in traced]) / untraced
    return values, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "boolevo" / "__init__.py").is_file():
        raise BenchError(f"no boolevo package under {ROOT / 'src'}")

    out = ROOT / ".bench_out" / args.workload
    run_child(args.workload, args.seed, out / "setup", "setup")  # warm-up, discarded
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    planned = REPETITIONS[args.workload]
    if args.trace:
        # a plain plus a traced repetition costs up to 2.5 plain ones
        planned = max(MIN_TRACED_REPS, planned * 2 // 5)
    minimum = MIN_TRACED_REPS if args.trace else MIN_REPS
    started = time.perf_counter()
    while len(plain) < planned:
        iteration_started = time.perf_counter()
        plain.append(run_child(args.workload, args.seed, out / "plain", "plain"))
        if args.trace:
            traced.append(run_child(args.workload, args.seed, out / "traced", "traced"))
        else:
            # set-up-only children spread evenly between the plain ones, so
            # setup_s is a median of SETUP_SAMPLES whatever the repetitions
            while len(plain) + len(setups) < SETUP_SAMPLES * len(plain) / planned:
                setups.append(run_child(args.workload, args.seed, out / "setup", "setup"))
        # stop when another iteration as long as the last would end too late
        now = time.perf_counter()
        finish = now - started + (now - iteration_started)
        if (len(plain) >= minimum and finish > args.seconds) or finish > LAST_END_S:
            break

    reps = plain + traced
    problems = sorted({p for r in reps for p in r["problems"]})
    digests = sorted({r["digest"] for r in reps})
    if len(digests) != 1:
        problems.append(f"records differ between repetitions: {len(digests)} digests")
    if args.trace:
        values, samples = per_layer(plain, traced)
        for metric in declared:
            if metric["unit"] == "count" and len(set(samples[metric["name"]])) != 1:
                problems.append(f"count {metric['name']} differs between traced repetitions")
    else:
        values, samples = end_to_end(plain, setups)
    names = sorted(metric["name"] for metric in declared)
    if names != sorted(values):
        raise BenchError(f"computed metrics {sorted(values)} != BENCHMARK.json {names}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    print(f"workload {args.workload}, seed {args.seed} (runs seeded from "
          f"{args.seed * SEED_STRIDE}), {len(plain)} plain + {len(traced)} traced "
          f"repetitions of {planned} planned in {time.perf_counter() - started:.1f} s")
    print(f"records sha256 {' '.join(digests)}")
    runs = plain[0]["attempted"]
    print(f"runs per repetition {runs}, target hit rate {plain[0]['hits'] / runs:.3f}, "
          f"failed share {failed / attempted:.3f}")
    print(f"{'metric':40} {'unit':>7} {'value':>12}   per repetition: "
          f"{'q1':>12} {'median':>12} {'q3':>12}  n")
    for metric in declared:
        name = metric["name"]
        q1, median, q3 = quartiles(samples[name])
        print(f"{name:40} {metric['unit']:>7} {values[name]:12.6g}   {'':16}"
              f"{q1:12.6g} {median:12.6g} {q3:12.6g}  {len(samples[name])}")
    if not args.trace:
        references = [t for r in plain for t in r["run_ref_s"]]
        unscaled = plain[0]["evaluations"] / summed_medians([r["run_s"] for r in plain])
        print(f"reference median {statistics.median(references):.4f} s (REFERENCE_S "
              f"{REFERENCE_S} s); unscaled evals_per_s {unscaled:.6g}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "digests": digests,
        "problems": problems,
        "values": values,
        "samples": samples,
        "repetitions": reps,
    }
    (out / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }))
    return 0


if __name__ == "__main__":
    # a terminated run still kills and waits for its child (see subprocess.run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
