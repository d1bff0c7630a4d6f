"""Search-loop invariants: determinism, elitism, budgets, record round trips."""

import hashlib
import json

import numpy as np
import pytest
from oracles import de_step_per_trial, initialise_per_genotype, sst_step_per_row, tree_depth

from boolevo.draws import Draws
from boolevo.encodings import GENERAL, ROTATION, tree_from_text
from boolevo import encodings, engine, operators
from boolevo.engine import (
    DE,
    SST,
    RunConfig,
    RunRecord,
    _draw_distinct,
    _initialise,
    _RunState,
    _sst_generation,
    de_step,
    deserialize_genotype,
    run,
    select_loser,
    serialize_genotype,
    sst_step,
)
from boolevo.evaluation import EXHAUSTED_TARGET, BudgetExhausted, FitnessEvaluator, Individual
from boolevo.orbits import is_rotation_symmetric
from boolevo.truthtable import TruthTable, nonlinearity, walsh_transform


def small_config(**overrides):
    base = dict(
        n=5,
        encoding="bitstring",
        population_size=10,
        evaluation_budget=600,
        seed=7,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_validation_rejects_bad_combinations():
    with pytest.raises(ValueError):
        small_config(algorithm=DE).validate()  # DE needs floats
    with pytest.raises(ValueError):
        small_config(encoding="tree", mode=ROTATION).validate()
    with pytest.raises(ValueError):
        small_config(encoding="float", decode=3).validate()  # 32 % 3 != 0
    with pytest.raises(ValueError):
        small_config(ls="ls2", encoding="float", decode=2).validate()
    with pytest.raises(ValueError):
        small_config(population_size=2).validate()
    with pytest.raises(ValueError):
        small_config(evaluation_budget=5).validate()
    with pytest.raises(ValueError):
        small_config(ls="ls9").validate()
    with pytest.raises(ValueError, match="^unknown algorithm 'ga'$"):
        small_config(algorithm="ga").validate()
    # a target above the bound on nonlinearity at n would only run out the
    # budget; the bound itself and the criteria's targets pass
    for n, target, bound in ((7, 59, "odd-n upper bound 58"), (9, 245, "odd-n upper bound 244"),
                             (1, 1, "odd-n upper bound 0"), (8, 121, "covering radius bound 120"),
                             (4, 7, "covering radius bound 6")):
        with pytest.raises(ValueError, match=f"target nonlinearity {target} is above the {bound} "):
            small_config(n=n, target_nonlinearity=target).validate()
        small_config(n=n, target_nonlinearity=target - 1).validate()
    small_config(n=7, target_nonlinearity=56).validate()
    small_config(n=9, target_nonlinearity=240).validate()
    # a NaN deadline never passes, so NaN must not get through either
    for limit in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time limit"):
            small_config(time_limit=limit).validate()
    # integer options must be ints: a NaN budget is never reached, a NaN
    # trial count stops LS1 at once and would echo NaN into the record
    nan = float("nan")
    for bad in (
        dict(evaluation_budget=nan, time_limit=0.2),
        dict(evaluation_budget=600.0),
        dict(ls="ls1", ls_trials=nan),
        dict(ls_trials=nan),
        dict(population_size=10.5),
        dict(population_size=True, evaluation_budget=True),
        dict(max_depth=2.5, encoding="tree"),
        dict(max_nodes=nan, encoding="tree"),
        dict(max_depth=0),
        dict(target_nonlinearity=nan),
        dict(seed=2.5),
        dict(seed=np.int64(7)),  # json cannot write it into the record
    ):
        with pytest.raises(ValueError, match="must be an integer of at least"):
            small_config(**bad).validate()
    # float options must be Python numbers: json cannot write a float32 into
    # the finished record, a bool would echo as true, a string fails to compare
    for bad in (
        dict(p_mutation=np.float32(0.5)),
        dict(p_mutation=True),
        dict(p_mutation="0.5"),
        dict(de_weight=np.float32(0.5)),
        dict(de_crossover=np.float32(0.5)),
        dict(ls_fraction=np.float32(0.5)),  # echoed even without local search
        dict(ls="ls1", ls_fraction=np.float32(0.5)),
        dict(time_limit=np.float32(5.0)),
        dict(time_limit="5"),
    ):
        with pytest.raises(ValueError, match="must be"):
            small_config(**bad).validate()
    with pytest.raises(ValueError, match="must be an integer of at least"):
        small_config(n=np.int64(5)).validate()
    # the label keys the campaign summary: a list there would lose every run
    for label in (["x"], 5):
        with pytest.raises(ValueError, match="label must be a string"):
            small_config(label=label).validate()
    small_config().validate()
    small_config(time_limit=0.5).validate()
    small_config(p_mutation=np.float64(0.5), time_limit=1).validate()
    small_config(encoding="float", decode=2).validate()


def test_labels():
    assert small_config().derived_label() == "TT"
    assert small_config(mode=ROTATION).derived_label() == "TT-RI"
    assert small_config(mode=ROTATION, ls="ls1").derived_label() == "TT-RI-LS1"
    assert small_config(encoding="tree").derived_label() == "GP"
    assert small_config(encoding="float", decode=2).derived_label() == "FP-SST"
    assert (
        small_config(encoding="float", decode=2, algorithm=DE).derived_label()
        == "FP-DE"
    )
    assert small_config(label="custom").derived_label() == "custom"


# ---------------------------------------------------------------------------
# loser selection


def fake_pop(keys):
    return [Individual(None, k) for k in keys]


def test_select_loser_lowest_key():
    pop = fake_pop([5, 9, 3, 7])
    assert select_loser(pop, [0, 1, 2]) == 2
    assert select_loser(pop, [1, 3, 0]) == 0


def test_select_loser_tie_goes_to_latest_draw():
    pop = fake_pop([5, 5, 5])
    assert select_loser(pop, [0, 1, 2]) == 2
    assert select_loser(pop, [2, 0, 1]) == 1
    pop = fake_pop([7, 5, 5])
    assert select_loser(pop, [0, 1, 2]) == 2
    assert select_loser(pop, [0, 2, 1]) == 1


# ---------------------------------------------------------------------------
# runs


def test_run_is_deterministic_per_seed():
    cfg = small_config()
    first = run(cfg).to_json()
    second = run(small_config()).to_json()
    assert first == second
    other = run(small_config(seed=8)).to_json()
    assert other != first


def test_run_respects_budget_exactly():
    record = run(small_config(evaluation_budget=321))
    assert record.evaluations == 321
    assert record.stop_reason == "budget"
    assert not record.target_reached


def test_run_stops_at_target():
    record = run(small_config(target_nonlinearity=0, evaluation_budget=50_000))
    assert record.target_reached
    assert record.stop_reason == "target"
    assert record.evaluations == 1  # the first evaluation reaches nl 0
    assert record.trajectory == [[1, record.best_fitness]]


# config, target, and the evaluation at which the target-free run first reaches it
TARGET_CASES = {
    # the 11th initial individual; init covers evaluations 1..50
    "init": (dict(n=7, mode=ROTATION, ls="ls1", population_size=50, seed=2), 56, 11),
    # LS1 after the first 50 SST steps, which end at evaluation 100
    "sst-ls1": (dict(n=7, ls="ls1", population_size=50, seed=0), 53, 111),
    # the 62nd flip probe of the first LS2 sweep (128 probes from 101)
    "sst-ls2": (dict(n=7, ls="ls2", population_size=50, seed=0), 54, 162),
    # trial 11 of generation 2 (generations are evaluations 21..40, 41..60, ...)
    "de": (
        dict(n=7, encoding="float", decode=4, algorithm=DE, population_size=20, seed=1),
        52,
        51,
    ),
    # LS1 after the fifth DE generation, whose LS round covers evaluations 242..273
    "de-ls1": (
        dict(n=7, encoding="float", decode=4, algorithm=DE, ls="ls1", population_size=20,
             seed=11),
        54,
        248,
    ),
}


@pytest.mark.parametrize("case", list(TARGET_CASES))
def test_target_run_is_target_free_run_cut_at_first_hit(case):
    kwargs, target, first_hit = TARGET_CASES[case]
    free = run(RunConfig(evaluation_budget=600, **kwargs))
    hit = next(i for i, (_, fit) in enumerate(free.trajectory) if fit >= target)
    assert free.trajectory[hit][0] == first_hit
    record = run(RunConfig(evaluation_budget=600, target_nonlinearity=target, **kwargs))
    assert record.trajectory == free.trajectory[: hit + 1]
    assert record.evaluations == first_hit
    assert record.stop_reason == "target" and record.target_reached
    assert record.best_nonlinearity >= target


def test_run_time_limit():
    record = run(
        small_config(evaluation_budget=50_000_000, time_limit=0.05, population_size=10)
    )
    assert record.stop_reason == "time"
    assert record.evaluations < 50_000_000


def test_trajectory_is_monotone():
    record = run(small_config())
    evals = [point[0] for point in record.trajectory]
    fits = [point[1] for point in record.trajectory]
    assert evals == sorted(evals)
    assert all(b > a for a, b in zip(fits, fits[1:]))
    assert record.best_fitness == fits[-1]


def test_best_truth_table_consistent_with_reported_nonlinearity():
    for kwargs in (
        {},
        {"mode": ROTATION},
        {"encoding": "tree"},
        {"encoding": "float", "decode": 2},
        {"encoding": "float", "decode": 2, "algorithm": DE},
    ):
        record = run(small_config(**kwargs))
        tt = TruthTable.from_hex(record.best_truth_table, 5)
        assert nonlinearity(walsh_transform(tt)) == record.best_nonlinearity
        if kwargs.get("mode") == ROTATION:
            assert is_rotation_symmetric(tt)


def test_record_cross_check_catches_a_wrong_spectrum(monkeypatch):
    from boolevo.evaluation import FitnessEvaluator

    block_spectra = FitnessEvaluator._block_spectra
    monkeypatch.setattr(
        FitnessEvaluator, "_block_spectra", lambda self, block: block_spectra(self, block) * 0
    )
    with pytest.raises(RuntimeError, match="seed 7"):
        run(small_config())


def test_tree_depth_cap_holds_from_the_initial_population():
    cfg = small_config(encoding="tree", max_depth=1, evaluation_budget=10, seed=1)
    record = run(cfg)
    assert tree_depth(tree_from_text(record.best_genotype["text"])) <= 1


def test_population_best_never_decreases():
    # replay the exact run and check elitism of the steady-state replacement
    cfg = small_config()
    state = _RunState(cfg, FitnessEvaluator(cfg.n, cfg.encoding), Draws(3))
    _initialise(state)
    best = max(ind.key for ind in state.pop)
    for _ in range(400):
        sst_step(state, cfg.population_size)
        new_best = max(ind.key for ind in state.pop)
        assert new_best >= best
        best = new_best
        assert len(state.pop) == cfg.population_size


def test_de_slots_never_worsen():
    from boolevo.engine import _initialise, _RunState, de_step
    from boolevo.evaluation import FitnessEvaluator

    cfg = small_config(encoding="float", decode=2, algorithm=DE, population_size=8)
    state = _RunState(cfg, FitnessEvaluator(cfg.n, "float", decode=2), Draws(4))
    _initialise(state)
    for _ in range(30):
        keys = [ind.key for ind in state.pop]
        de_step(state)
        for old, new in zip(keys, state.pop):
            assert new.key >= old


def test_de_forced_coordinate_with_zero_crossover_rate():
    from boolevo.engine import _initialise, _RunState, de_step
    from boolevo.evaluation import FitnessEvaluator

    cfg = small_config(
        encoding="float", decode=2, algorithm=DE, population_size=6, de_crossover=0.0
    )
    state = _RunState(cfg, FitnessEvaluator(cfg.n, "float", decode=2), Draws(5))
    _initialise(state)
    snapshots = [ind.genotype.copy() for ind in state.pop]
    de_step(state)
    for before, after in zip(snapshots, state.pop):
        # with CR = 0 the trial differs from the target in at most one slot
        assert int(np.sum(before != after.genotype)) <= 1


# float DE configs; n=12 has block_rows 8, so a generation of 20 trials spans
# at least three keyed blocks
DE_SPACES = {
    "n5-pop4": dict(n=5, decode=2, population_size=4),
    "n5-pop8": dict(n=5, decode=2, population_size=8),
    "n7-pop20": dict(n=7, population_size=20),
    "n7-pop50": dict(n=7, population_size=50),
    "rs-n9": dict(n=9, mode=ROTATION, population_size=20),
    "n12-pop20": dict(n=12, population_size=20),
    "n5-cr0": dict(n=5, decode=2, population_size=8, de_crossover=0.0),
    "n5-cr1": dict(n=5, decode=2, population_size=8, de_crossover=1.0),
    "n7-weight2": dict(n=7, population_size=20, de_weight=2.0),
}
DE_GENERATIONS = 6


class Stop(Exception):
    pass


def _de_state(space, budget=None):
    cfg = RunConfig(encoding="float", algorithm=DE, seed=3, **space)
    evaluator = FitnessEvaluator(cfg.n, "float", cfg.mode, cfg.decode, budget=budget)
    return _RunState(cfg, evaluator, Draws(cfg.seed))


def _de_generations(step, space, budget=None, stop_at_note=None):
    """Run DE generations with ``step``; return what each one shows.

    After each generation: each slot's key and a digest of its genotype
    bytes, the evaluations and the notes so far, and the next
    ``rng.below(2**64)``.  A cut (the budget, or ``stop_at_note`` making that
    note raise, as a run's target stop does) adds the same view of the state
    it stopped in, without the draw.
    """
    state = _de_state(space, budget)
    notes = []

    def note(individual):
        notes.append((state.evaluator.evaluations, individual.key))
        if len(notes) == stop_at_note:
            raise Stop()

    def view():
        genotypes = b"".join(individual.genotype.tobytes() for individual in state.pop)
        return (
            [individual.key for individual in state.pop],
            hashlib.sha256(genotypes).hexdigest(),
            state.evaluator.evaluations,
            list(notes),
        )

    state.note = note
    _initialise(state)
    seen = []
    try:
        for _ in range(DE_GENERATIONS):
            step(state)
            seen.append((*view(), state.rng.below(2**64)))
    except (BudgetExhausted, Stop) as stop:
        seen.append(view())
        return seen, notes, state.evaluator.evaluations, type(stop)
    return seen, notes, state.evaluator.evaluations, None


def _first_stale(space):
    """The evaluations done, its own charge included, when the first stale
    trial was keyed on its own (given to ``evaluate`` without a key), or None."""
    state = _de_state(space)
    _initialise(state)
    evaluate = state.evaluator.evaluate
    first = None

    def spy(genotype, key=None):
        nonlocal first
        result = evaluate(genotype, key)
        if first is None and key is None:
            first = state.evaluator.evaluations
        return result

    state.evaluator.evaluate = spy
    for _ in range(DE_GENERATIONS):
        de_step(state)
    return first


@pytest.mark.parametrize("space", list(DE_SPACES))
def test_de_blocks_match_the_per_trial_step(space):
    kwargs = DE_SPACES[space]
    size = kwargs["population_size"]
    full = _de_generations(de_step_per_trial, kwargs)
    assert _de_generations(de_step, kwargs) == full
    assert full[3] is None and full[2] == size * (DE_GENERATIONS + 1)
    # the first stale trial falls in the first two generations, so the cuts
    # below stop on both sides of it
    stale = _first_stale(kwargs)
    assert stale is not None and size < stale < 3 * size
    # a budget cut at every trial of the first two generations
    for budget in range(size, 3 * size):
        want = _de_generations(de_step_per_trial, kwargs, budget=budget)
        assert want[2:] == (budget, BudgetExhausted)
        assert _de_generations(de_step, kwargs, budget=budget) == want
    # a cut at every note made in the first two generations
    notes = full[1]
    for stop_at_note, (evaluations, _) in enumerate(notes, 1):
        if size < evaluations <= 3 * size:
            want = _de_generations(de_step_per_trial, kwargs, stop_at_note=stop_at_note)
            assert want[2:] == (evaluations, Stop)
            assert _de_generations(de_step, kwargs, stop_at_note=stop_at_note) == want


def test_de_keys_a_generation_once_and_only_stale_trials_alone(monkeypatch):
    # FP-DE at n = 7 (block_rows 256): one block per generation of 50; a
    # trial is keyed on its own exactly when one of its three slots was
    # replaced earlier in its generation
    space = DE_SPACES["n7-pop50"]
    size = space["population_size"]
    state = _de_state(space)
    _initialise(state)
    evaluator = state.evaluator
    slots, replaced, alone, blocks = [], set(), set(), []

    def draw_distinct(*args, **kwargs):
        slots.append(_draw_distinct(*args, **kwargs))
        return slots[-1]

    def note(individual):
        replaced.add(evaluator.evaluations - size - 1)  # the trial's index in the run

    key_ahead, evaluate = evaluator.key_ahead, evaluator.evaluate

    def spy_key_ahead(block):
        blocks.append(len(block))
        return key_ahead(block)

    def spy_evaluate(genotype, key=None):
        if key is None:
            alone.add(evaluator.evaluations - size)  # the trial's index in the run
        return evaluate(genotype, key)

    monkeypatch.setattr(engine, "_draw_distinct", draw_distinct)
    state.note = note
    evaluator.key_ahead, evaluator.evaluate = spy_key_ahead, spy_evaluate
    for _ in range(DE_GENERATIONS):
        de_step(state)
    assert blocks == [size] * DE_GENERATIONS
    stale = set()
    for trial, drawn in enumerate(slots):
        first = trial - trial % size  # the first trial of its generation
        if any(first + slot in replaced for slot in drawn if first + slot < trial):
            stale.add(trial)
    assert stale and alone == stale


# SST block configs: every genotype kind and both search spaces, run at each
# of SST_POPULATIONS; population 3 and 4 make blocks of one row, 50 makes
# blocks of 16, 16, 16 and 2
SST_SPACES = {
    "general-n1": dict(n=1),
    "general-n5": dict(n=5),
    "general-n7": dict(n=7),
    "rs-n9": dict(n=9, mode=ROTATION),
    "float-n7": dict(n=7, encoding="float", decode=4),
    "tree-n5": dict(n=5, encoding="tree"),
}
SST_POPULATIONS = (3, 4, 50)
SST_GENERATIONS = 6


def _sst_blocks(step, space, size, budget=None, stop_at_note=None):
    """Run SST generations block by block with ``step``; return what each
    block shows.

    After each block: each slot's key and a digest of its genotype, the
    evaluations and the new bests noted so far, and the next
    ``rng.below(2**64)``.  A stop (the budget, or the note of new best number
    ``stop_at_note`` raising, as a run's target stop does) adds the same view
    of the state it stopped in, without the draw.
    """
    cfg = RunConfig(population_size=size, seed=3, **space)
    evaluator = FitnessEvaluator(cfg.n, cfg.encoding, cfg.mode, cfg.decode, budget=budget)
    state = _RunState(cfg, evaluator, Draws(cfg.seed))
    notes, ends = _record_notes(state, stop_at_note), []
    seen = []
    try:
        _initialise(state)
        for _ in range(SST_GENERATIONS):
            done = 0
            while done < size:
                done += step(state, size - done)
                ends.append(evaluator.evaluations)
                seen.append((*_view(state, notes), state.rng.below(2**64)))
    except BudgetExhausted as stop:
        seen.append(_view(state, notes))
        return seen, notes, ends, stop.reason
    return seen, notes, ends, None


def _record_notes(state, stop_at_note):
    """Wrap ``state.note`` to record each new best as ``(evaluations, key)``
    and to raise a target stop at new best number ``stop_at_note``; return
    the list it fills."""
    notes = []
    run_note = state.note

    def note(individual):
        if state.best is None or individual.key > state.best.key:
            notes.append((state.evaluator.evaluations, individual.key))
        run_note(individual)
        if len(notes) == stop_at_note:
            raise BudgetExhausted(EXHAUSTED_TARGET)

    state.note = note
    return notes


def _view(state, notes):
    """Each slot's key, a digest of the population's genotypes, the
    evaluations and a copy of ``notes``."""
    pop = state.pop
    genotypes = repr([individual.genotype for individual in pop]).encode()
    if state.config.encoding != "tree":
        genotypes = b"".join(individual.genotype.tobytes() for individual in pop)
    return (
        [individual.key for individual in pop],
        hashlib.sha256(genotypes).hexdigest(),
        state.evaluator.evaluations,
        list(notes),
    )


def _mid_block(evaluation, ends, start):
    """Whether an evaluation after the first ``start`` is neither the first
    nor the last row of its block; ``ends`` are the blocks' last evaluations."""
    for end in ends:
        if start < evaluation <= end:
            return start + 1 < evaluation < end
        start = end
    return False


@pytest.mark.parametrize("size", SST_POPULATIONS)
@pytest.mark.parametrize("space", list(SST_SPACES))
def test_sst_blocks_match_the_per_row_step(space, size):
    kwargs = SST_SPACES[space]
    full = _sst_blocks(sst_step_per_row, kwargs, size)
    assert _sst_blocks(sst_step, kwargs, size) == full
    seen, notes, ends, stopped = full
    assert stopped is None and ends[-1] == size * (SST_GENERATIONS + 1)
    # every space here keys at least 16 rows at once, so population // 3 rules
    assert ends[0] == size + size // 3
    # a budget that runs out at every evaluation of the first two blocks
    for budget in range(size, min(ends[1], 2 * size) + 1):
        want = _sst_blocks(sst_step_per_row, kwargs, size, budget=budget)
        assert want[2:] == (ends[:len(want[2])], "budget")
        assert want[0][-1][2] == budget
        assert _sst_blocks(sst_step, kwargs, size, budget=budget) == want
    # a target stop at the first new best noted inside a block, neither at
    # its first row nor at its last
    mid = [number for number, (evaluation, _) in enumerate(notes, 1) if _mid_block(evaluation, ends, size)]
    if size < 6 or kwargs["n"] == 1:
        # blocks of one row have no middle, and at n = 1 the first key is the best
        assert not mid
        return
    want = _sst_blocks(sst_step_per_row, kwargs, size, stop_at_note=mid[0])
    assert want[3] == EXHAUSTED_TARGET and want[0][-1][2] == notes[mid[0] - 1][0]
    assert _sst_blocks(sst_step, kwargs, size, stop_at_note=mid[0]) == want


def test_a_budget_cut_gp_block_builds_only_the_children_it_can_charge():
    # GP at n = 5, population 50: blocks of 16 rows; a block builds the
    # children the budget can charge and the one whose charge stops the run
    cfg = RunConfig(n=5, encoding="tree", population_size=50, seed=6)
    for remaining in (0, 1, 7, 15, 16, 17):
        evaluator = FitnessEvaluator(cfg.n, cfg.encoding, budget=cfg.population_size + remaining)
        state = _RunState(cfg, evaluator, Draws(cfg.seed))
        _initialise(state)
        built = []
        crossover = state.crossover
        state.crossover = lambda a, b, rng: built.append(a) or crossover(a, b, rng)
        if remaining >= 16:
            assert sst_step(state, cfg.population_size) == len(built) == 16
        with pytest.raises(BudgetExhausted):
            sst_step(state, cfg.population_size)
        assert len(built) == remaining + 1
        assert evaluator.evaluations == evaluator.budget


def test_a_gp_block_walks_the_depths_of_each_child_once(monkeypatch):
    # parents at most 3 deep make children at most 6 deep, so each
    # crossover's first candidate fits the cap of 7 and is walked once; the
    # mutation of a crossover's child reuses that walk
    cfg = RunConfig(n=5, encoding="tree", population_size=50, seed=6)
    shallow = RunConfig(n=5, encoding="tree", population_size=50, max_depth=3, seed=6)
    state = _RunState(shallow, FitnessEvaluator(cfg.n, cfg.encoding), Draws(cfg.seed))
    _initialise(state)
    parents = state.pop
    state = _RunState(cfg, FitnessEvaluator(cfg.n, cfg.encoding), Draws(cfg.seed))
    state.pop = parents
    walked, crossed, mutated = [], [], []

    def node_depths(tree):
        walked.append(tree)
        return encodings_node_depths(tree)

    encodings_node_depths = encodings.node_depths
    monkeypatch.setattr(encodings, "node_depths", node_depths)
    monkeypatch.setattr(operators, "node_depths", node_depths)
    crossover, mutate = state.crossover, state.mutate
    state.crossover = lambda a, b, rng: crossed.append(crossover(a, b, rng)) or crossed[-1]
    state.mutate = lambda tree, rng: mutated.append(tree) or mutate(tree, rng)
    assert sst_step(state, cfg.population_size) == 16
    assert len(crossed) == 16 and 0 < len(mutated) < 16
    assert walked == crossed


# initial populations: every SST space at population 50, in one block, and
# two that span two blocks: 64 + 6 bitstrings at n = 9, 256 + 44 trees at n = 7
INIT_SPACES = {
    **{space: (kwargs, 50) for space, kwargs in SST_SPACES.items()},
    "general-n9-70": (dict(n=9), 70),
    "tree-n7-300": (dict(n=7, encoding="tree"), 300),
}


def _initialised(initialise, space, size, stop_at_note=None):
    """The state ``initialise`` leaves, as :func:`_view` shows it, and then
    the next ``rng.below(2**64)``, or the state it stopped in when the note
    of new best number ``stop_at_note`` raised, as a run's target stop does."""
    cfg = RunConfig(population_size=size, seed=8, **space)
    evaluator = FitnessEvaluator(cfg.n, cfg.encoding, cfg.mode, cfg.decode)
    state = _RunState(cfg, evaluator, Draws(cfg.seed))
    notes = _record_notes(state, stop_at_note)
    try:
        initialise(state)
    except BudgetExhausted:
        return _view(state, notes)
    return (*_view(state, notes), state.rng.below(2**64))


@pytest.mark.parametrize("space", list(INIT_SPACES))
def test_blocked_initialisation_matches_the_per_genotype_loop(space, monkeypatch):
    kwargs, size = INIT_SPACES[space]
    full = _initialised(initialise_per_genotype, kwargs, size)
    blocks, alone = [], []
    key_ahead, evaluate = FitnessEvaluator.key_ahead, FitnessEvaluator.evaluate

    def spy(evaluator, block):
        blocks.append(len(block))
        return key_ahead(evaluator, block)

    def spy_evaluate(evaluator, genotype, key=None):
        if key is None:
            alone.append(genotype)
        return evaluate(evaluator, genotype, key)

    monkeypatch.setattr(FitnessEvaluator, "key_ahead", spy)
    monkeypatch.setattr(FitnessEvaluator, "evaluate", spy_evaluate)
    assert _initialised(_initialise, kwargs, size) == full
    assert full[2] == size
    # one key_ahead per block of block_rows, and no genotype keyed on its own
    cfg = RunConfig(population_size=size, **kwargs)
    block_rows = FitnessEvaluator(cfg.n, cfg.encoding, cfg.mode, cfg.decode).block_rows
    assert blocks == [min(block_rows, size - start) for start in range(0, size, block_rows)]
    assert not alone
    # a target stop at each new best noted inside a block, neither at its
    # first row nor at its last
    ends = np.cumsum(blocks).tolist()
    notes = full[3]
    mid = [number for number, (evaluation, _) in enumerate(notes, 1) if _mid_block(evaluation, ends, 0)]
    if kwargs["n"] == 1:
        # every function of one variable has the same key
        assert len(notes) == 1
        return
    assert mid
    for number in mid:
        want = _initialised(initialise_per_genotype, kwargs, size, stop_at_note=number)
        assert want[2] == notes[number - 1][0] and len(want) == 4
        assert _initialised(_initialise, kwargs, size, stop_at_note=number) == want


def test_sst_block_slots_are_distinct_and_parents_come_from_before_the_block(monkeypatch):
    cfg = RunConfig(n=7, population_size=50, seed=4)
    state = _RunState(cfg, FitnessEvaluator(cfg.n, cfg.encoding), Draws(cfg.seed))
    _initialise(state)
    tournaments, parents = [], []
    monkeypatch.setattr(
        engine, "select_loser", lambda pop, slots: tournaments.append(list(slots)) or select_loser(pop, slots)
    )
    crossover = state.crossover

    def spy(a, b, rng):
        parents.append((a.copy(), b.copy()))
        return crossover(a, b, rng)

    state.crossover = spy
    for _ in range(4):
        del tournaments[:], parents[:]
        before = list(state.pop)
        rows = sst_step(state, cfg.population_size)
        assert len(tournaments) == rows == 16
        slots = [slot for tournament in tournaments for slot in tournament]
        assert len(set(slots)) == len(slots) == 3 * rows
        (a, b), = parents
        for tournament, first, second in zip(tournaments, a, b):
            loser = select_loser(before, tournament)
            survivors = [slot for slot in tournament if slot != loser]
            assert np.array_equal(first, before[survivors[0]].genotype)
            assert np.array_equal(second, before[survivors[1]].genotype)


def test_a_generation_of_50_runs_blocks_of_16_16_16_and_2(monkeypatch):
    cfg = RunConfig(n=7, population_size=50, seed=5)
    state = _RunState(cfg, FitnessEvaluator(cfg.n, cfg.encoding), Draws(cfg.seed))
    _initialise(state)
    calls = []

    def spy(state, steps):
        rows = sst_step(state, steps)
        calls.append((steps, rows))
        return rows

    monkeypatch.setattr(engine, "sst_step", spy)
    _sst_generation(state)
    assert calls == [(50, 16), (34, 16), (18, 16), (2, 2)]
    assert state.evaluator.evaluations == 100


def test_ls_attached_runs():
    record = run(small_config(ls="ls1", evaluation_budget=2000))
    assert record.evaluations == 2000
    record = run(small_config(ls="ls3", evaluation_budget=2000))
    assert record.label == "TT-LS3"


# ---------------------------------------------------------------------------
# records


def test_record_round_trip():
    record = run(small_config())
    line = record.to_json()
    back = RunRecord.from_json(line)
    assert back.to_json() == line
    assert back.wall_time_s is None
    assert record.wall_time_s is not None and record.wall_time_s > 0
    timed = json.loads(record.to_json(include_timing=True))
    assert "wall_time_s" in timed


def test_record_from_json_names_bad_keys():
    data = json.loads(run(small_config()).to_json())
    data["colour"] = "red"
    del data["seed"]
    with pytest.raises(ValueError, match=r"unknown keys \['colour'\].*missing keys \['seed'\]"):
        RunRecord.from_json(json.dumps(data))
    with pytest.raises(ValueError, match="JSON object"):
        RunRecord.from_json("[1, 2]")


def test_record_json_is_canonical():
    record = run(small_config())
    line = record.to_json()
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    assert "wall_time_s" not in line


def test_genotype_serialization_round_trip():
    rng = np.random.default_rng(71)
    bits = rng.integers(0, 2, 20, dtype=np.uint8)
    data = serialize_genotype(bits, "bitstring", 7, ROTATION, 3)
    assert data["hex"]
    back = deserialize_genotype(data)
    assert back.dtype == np.uint8 and np.array_equal(back, bits)

    odd = np.array([1, 0, 1], dtype=np.uint8)
    data = serialize_genotype(odd, "bitstring", 2, GENERAL, 3)
    assert data["bits"] == "101"

    values = rng.random(16)
    data = serialize_genotype(values, "float", 5, GENERAL, 2)
    back = deserialize_genotype(data)
    assert back.dtype == np.float64
    assert np.array_equal(back, values)  # exact via repr round trip
    assert json.loads(json.dumps(data))["values"] == data["values"]

    tree = ("IF", 1, 2, "NOT", 3)
    data = serialize_genotype(tree, "tree", 3, GENERAL, 3)
    assert data["text"] == "IF(x1, x2, NOT(x3))"
    assert deserialize_genotype(data) == tree
    with pytest.raises(ValueError, match="^unknown encoding 'matrix'$"):
        serialize_genotype(bits, "matrix", 7, ROTATION, 3)


@pytest.mark.parametrize(
    "data",
    [
        {"encoding": "bitstring", "n": 3, "bits": "0110"},
        {"encoding": "bitstring", "n": 2, "mode": ROTATION, "bits": "0110"},
        {"encoding": "float", "n": 7, "decode": 3, "values": [0.5] * 5},
        {"encoding": "float", "n": 5, "decode": 2, "values": [0.5] * 15},
        {"encoding": "tree", "n": 2, "text": "AND(x1, x3)"},
    ],
)
def test_deserialize_rejects_genotypes_of_the_wrong_size(data):
    with pytest.raises(ValueError):
        deserialize_genotype(data)


@pytest.mark.parametrize(
    "data,field",
    [
        ({"encoding": "bitstring", "n": 1, "bits": "0\u0661"}, "bits"),
        ({"encoding": "bitstring", "n": 1, "bits": "0x"}, "bits"),
        ({"encoding": "bitstring", "n": 1, "bits": [0, 1]}, "bits"),
        ({"encoding": "bitstring", "n": 3}, "bits"),
        ({"encoding": "float", "n": 3}, "values"),
        ({"encoding": "tree", "n": 3}, "text"),
        ({"encoding": "bitstring", "bits": "01"}, "n"),
        ({"n": 1, "bits": "01"}, "encoding"),
        ({"encoding": "bitstring", "n": "x", "hex": "00"}, "n"),
        ({"encoding": "bitstring", "n": 99, "hex": "00"}, "n"),
        ({"encoding": "bitstring", "n": 3, "hex": 3}, "hex"),
        ({"encoding": "tree", "n": 3, "text": 5}, "text"),
        ({"encoding": "tree", "n": "3", "text": "x1"}, "n"),
        ({"encoding": "bitstring", "n": 0, "hex": "00"}, "n"),
        ({"encoding": "bitstring", "n": 17, "hex": "00"}, "n"),
        ({"encoding": "bitstring", "n": True, "hex": "00"}, "n"),
    ],
)
def test_deserialize_names_a_missing_or_malformed_field(data, field):
    # one line that names the field, never a KeyError or int()'s message
    with pytest.raises(ValueError, match=f"'{field}'") as error:
        deserialize_genotype(data)
    assert "\n" not in str(error.value)


def test_deserialize_reads_a_bits_record():
    bits = deserialize_genotype({"encoding": "bitstring", "n": 1, "bits": "01"})
    assert bits.dtype == np.uint8 and np.array_equal(bits, [0, 1])
