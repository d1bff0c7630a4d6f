"""The benchmark's span tracer sees every charged evaluation exactly once.

``benchmarks/tracer.py`` wraps the package's names from outside, so a rename
or a new evaluation path that bypasses the wrapped names shows only in a
traced benchmark run.  This test installs the tracer, unchanged, in a fresh
process and runs one small run of each search loop through ``harness.run``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from boolevo import RunConfig, run

ROOT = Path(__file__).resolve().parent.parent

# SST, DE, TT-RI+LS1 and TT+LS2: both generation loops and both local searches
CONFIGS = [
    dict(n=7, population_size=20, evaluation_budget=400, seed=5),
    dict(n=7, encoding="float", algorithm="de", population_size=20, evaluation_budget=400, seed=5),
    dict(n=9, mode="rs", ls="ls1", population_size=20, evaluation_budget=300, seed=5),
    dict(n=9, ls="ls2", population_size=20, evaluation_budget=300, seed=5),
]

TRACED = """
import json, sys
from tracer import Tracer
tracer = Tracer()
tracer.install()
from boolevo import RunConfig, harness
configs = [RunConfig(**kwargs) for kwargs in json.loads(sys.argv[1])]
records = [harness.run(config) for config in configs]
evaluations = sum(record.evaluations for record in records)
init = sum(config.population_size for config in configs)
metrics, problems = tracer.layer_metrics(0, evaluations, init)
print(json.dumps({
    "records": [record.to_json() for record in records],
    "metrics": metrics,
    "problems": problems,
}))
"""


def test_traced_runs_charge_every_evaluation_once():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")]),
    )
    result = subprocess.run(
        [sys.executable, "-c", TRACED, json.dumps(CONFIGS)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(result.stdout)
    metrics = traced["metrics"]
    assert traced["problems"] == []
    records = [run(RunConfig(**kwargs)) for kwargs in CONFIGS]
    # the wrappers change nothing the run sees
    assert traced["records"] == [record.to_json() for record in records]
    evaluations = sum(record.evaluations for record in records)
    charged = metrics["evaluation.evaluate.calls"] + metrics["evaluation.try_flip.calls"]
    assert charged == evaluations == 1400
    # every loop and local search ran under its wrapped name
    assert metrics["engine.sst_step.calls"] > 0
    # a de_step span is a generation: 19 whole ones, and one cut at its first trial
    assert metrics["engine.de_step.calls"] == 20
    assert metrics["localsearch.apply_ls.calls"] > 0 and metrics["evaluation.try_flip.calls"] > 0
    # and each stage reached its climbs through the wrapped ls_mutation and commit
    assert metrics["localsearch.ls1_accept_ratio"] > 0
    assert metrics["localsearch.ls2_commit_ratio"] > 0
