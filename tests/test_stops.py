"""Where whole runs stop: budget, target and time stops against one longer run.

For a config C, seed 3 and one run of C with budget B' = 1,500, a run
that stops earlier is that run cut short, each with the entries up to its
stop as its trajectory: a budget stop at B after exactly B evaluations, a
target stop at the first entry that reaches the target, and a time stop at
the first multiple of 1024 evaluations past the deadline, whose own
evaluation is charged but never noted.  Runs cut from the same code move
together, so the long run is also held to what its entries mean: the
trajectory is the running record of the keys its evaluations return, each
at its own evaluation, so a charge or a note that moves by one child shows.
"""

import time

import pytest
from test_engine import SST_SPACES

from boolevo import engine
from boolevo.encodings import ROTATION
from boolevo.engine import RunConfig, run
from boolevo.evaluation import BitFlipSession, FitnessEvaluator, key_to_fitness

SEED = 3
LONG_BUDGET = 1500
CONFIGS = {
    **{f"sst-{name}": dict(space, population_size=12) for name, space in SST_SPACES.items()},
    "de-float-n6": dict(n=6, encoding="float", algorithm="de", population_size=12),
    "ls1-general-n5": dict(n=5, ls="ls1", population_size=12),
    "ls2-general-n5": dict(n=5, ls="ls2", population_size=12),
    "ls3-rs-n7": dict(n=7, mode=ROTATION, ls="ls3", population_size=12),
}


def _logged(method, keys):
    """``method``, appending each key it returns, one per evaluation charged."""

    def logged(self, *args):
        key = method(self, *args)
        keys.append(key)
        return key

    return logged


def _timed(generation, ends):
    """``generation``, appending the evaluations charged when it returns."""

    def timed(state):
        generation(state)
        ends.append(state.evaluator.evaluations)

    return timed


@pytest.fixture(scope="module", params=list(CONFIGS))
def reference(request):
    """The config's options, its run with budget B', the key of each of that
    run's evaluations in order, and the evaluations at each generation end
    (local search included)."""
    options = dict(CONFIGS[request.param], seed=SEED)
    keys, ends = [], []
    with pytest.MonkeyPatch.context() as patch:
        # every charge is an evaluate call or an LS2 probe
        for owner, name in ((FitnessEvaluator, "evaluate"), (BitFlipSession, "try_flip")):
            patch.setattr(owner, name, _logged(getattr(owner, name), keys))
        for name in ("_sst_generation", "de_step"):
            patch.setattr(engine, name, _timed(getattr(engine, name), ends))
        record = run(RunConfig(evaluation_budget=LONG_BUDGET, **options))
    return options, record, keys, ends


def test_each_entry_is_a_new_best_at_its_own_evaluation(reference):
    options, record, keys, _ = reference
    assert (record.stop_reason, record.evaluations) == ("budget", LONG_BUDGET)
    assert len(keys) == LONG_BUDGET  # every charge was logged
    records, best = [], -1
    for evaluation, key in enumerate(keys, 1):
        if key > best:
            records.append([evaluation, key_to_fitness(key, options["n"])])
            best = key
    assert record.trajectory == records


def test_a_budget_stop_is_the_long_run_cut_at_its_budget(reference):
    # every budget through the first two generations, and so through the
    # first local-search round, which follows the first generation
    options, record, _, ends = reference
    assert len(ends) >= 2
    for budget in range(options["population_size"], ends[1] + 1):
        short = run(RunConfig(evaluation_budget=budget, **options))
        want = [entry for entry in record.trajectory if entry[0] <= budget]
        got = (short.stop_reason, short.evaluations, short.trajectory, short.best_fitness)
        assert got == ("budget", budget, want, want[-1][1]), f"budget {budget}"


def test_a_target_stop_falls_on_the_first_entry_at_its_level(reference):
    options, record, _, _ = reference
    firsts = {}  # each nonlinearity level of the trajectory: its first entry
    for index, (_, fitness) in enumerate(record.trajectory):
        firsts.setdefault(int(fitness), index)
    for level, index in firsts.items():
        short = run(RunConfig(evaluation_budget=LONG_BUDGET, target_nonlinearity=level, **options))
        want = record.trajectory[: index + 1]
        got = (short.stop_reason, short.evaluations, short.trajectory, short.best_nonlinearity)
        assert got == ("target", want[-1][0], want, level), f"level {level}"


def test_a_time_stop_falls_on_a_multiple_of_1024(reference, monkeypatch):
    options, record, _, _ = reference
    reads = iter([0.0])  # the evaluator's deadline read; every later read is past it
    monkeypatch.setattr(time, "perf_counter", lambda: next(reads, 1e9))
    short = run(RunConfig(evaluation_budget=LONG_BUDGET, time_limit=1.0, **options))
    stop = short.evaluations
    want = [entry for entry in record.trajectory if entry[0] < stop]
    assert (short.stop_reason, stop % 1024) == ("time", 0)
    assert (short.trajectory, short.best_fitness) == (want, want[-1][1])
