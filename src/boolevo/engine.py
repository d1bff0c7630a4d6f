"""Search loops: steady-state tournament evolution and differential evolution.

A run is fully described by a :class:`RunConfig`; :func:`run` replays
byte-identically from the same seed.  A run stops when its evaluation
budget is spent, when its optional wall-clock limit passes, or at the first
evaluation, in any phase, whose result reaches the target nonlinearity.
One loop serves SST and DE: a step is one SST child or one DE trial, and
local search follows every ``population_size`` steps.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .draws import Draws
from .encodings import (
    DEFAULT_DECODE,
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_NODES,
    GENERAL,
    ROTATION,
    check_genotype,
    check_space,
    genotype_table,
    random_genotype,
    target_length,
    tree_from_text,
    tree_to_text,
)
from .evaluation import (
    EXHAUSTED_TARGET,
    BudgetExhausted,
    FitnessEvaluator,
    Individual,
    check_int,
    check_time_limit,
    is_real,
    key_to_fitness,
)
from .localsearch import DEFAULT_LS_FRACTION, DEFAULT_LS_TRIALS, VARIANTS, LsConfig, apply_ls
from .operators import make_operators
from .truthtable import (
    bits_from_hex,
    bits_to_hex,
    spectrum_key,
    walsh_transform,
)

SST = "sst"
DE = "de"
ALGORITHMS = (SST, DE)


@dataclass
class RunConfig:
    """Everything one search run depends on."""

    n: int
    encoding: str = "bitstring"
    mode: str = GENERAL
    algorithm: str = SST
    population_size: int = 50
    evaluation_budget: int = 100_000
    p_mutation: float = 0.5
    decode: int = DEFAULT_DECODE
    max_depth: int = DEFAULT_MAX_DEPTH
    max_nodes: int = DEFAULT_MAX_NODES
    de_weight: float = 0.5
    de_crossover: float = 0.9
    ls: Optional[str] = None
    ls_fraction: float = DEFAULT_LS_FRACTION
    ls_trials: int = DEFAULT_LS_TRIALS
    target_nonlinearity: Optional[int] = None
    time_limit: Optional[float] = None
    seed: Optional[int] = None
    label: Optional[str] = None

    def validate(self) -> None:
        # n echoes into the record, so a numpy int must not get through
        check_int("number of variables", self.n, 1)
        check_space(self.n, self.encoding, self.mode, self.decode)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == DE and self.encoding != "float":
            raise ValueError("differential evolution operates on float genotypes")
        minimum_pop = 4 if self.algorithm == DE else 3
        check_int(f"{self.algorithm} population size", self.population_size, minimum_pop)
        # the budget must cover at least the initial population
        check_int("evaluation budget", self.evaluation_budget, self.population_size)
        if not (is_real(self.p_mutation) and 0.0 <= self.p_mutation <= 1.0):
            raise ValueError(f"mutation probability must be in [0, 1], got {self.p_mutation!r}")
        if not (is_real(self.de_weight) and 0.0 < self.de_weight <= 2.0):
            raise ValueError(f"differential weight must be in (0, 2], got {self.de_weight!r}")
        if not (is_real(self.de_crossover) and 0.0 <= self.de_crossover <= 1.0):
            raise ValueError(f"crossover rate must be in [0, 1], got {self.de_crossover!r}")
        # the ls options echo into every record, so they are checked without ls too
        LsConfig(VARIANTS[0] if self.ls is None else self.ls, self.ls_fraction, self.ls_trials)
        if self.ls in ("ls2", "ls3") and self.encoding != "bitstring":
            raise ValueError("bit-flip local search needs the bitstring encoding")
        check_time_limit(self.time_limit)
        check_int("max depth", self.max_depth, 1)
        check_int("max nodes", self.max_nodes, 1)
        if self.target_nonlinearity is not None:
            check_int("target nonlinearity", self.target_nonlinearity, 0)
        if self.seed is not None:
            check_int("seed", self.seed, 0)

    def derived_label(self) -> str:
        if self.label:
            return self.label
        if self.encoding == "tree":
            base = "GP"
        elif self.encoding == "float":
            base = "FP-DE" if self.algorithm == DE else "FP-SST"
        else:
            base = "TT"
        if self.mode == ROTATION:
            base += "-RI"
        if self.ls:
            base += "-" + self.ls.upper()
        return base


# ---------------------------------------------------------------------------
# genotype (de)serialization


def serialize_genotype(genotype, encoding: str, n: int, mode: str, decode: int) -> dict:
    """JSON-friendly description of a raw genotype."""
    if encoding == "bitstring":
        bits = np.asarray(genotype, dtype=np.uint8)
        if bits.shape[0] % 4 == 0:
            payload = {"hex": bits_to_hex(bits)}
        else:
            payload = {"bits": "".join(str(int(b)) for b in bits)}
        return {"encoding": encoding, "n": n, "mode": mode, **payload}
    if encoding == "float":
        return {
            "encoding": encoding,
            "n": n,
            "mode": mode,
            "decode": decode,
            "values": [float(v) for v in genotype],
        }
    if encoding == "tree":
        return {"encoding": encoding, "n": n, "text": tree_to_text(genotype)}
    raise ValueError(f"unknown encoding {encoding!r}")


def deserialize_genotype(data: dict):
    """Inverse of :func:`serialize_genotype`: the raw genotype, validated."""
    encoding, n = data["encoding"], data["n"]
    mode, decode = data.get("mode", GENERAL), data.get("decode", DEFAULT_DECODE)
    if encoding == "bitstring" and "hex" in data:
        genotype = bits_from_hex(data["hex"], target_length(n, mode))
    elif encoding == "bitstring":
        genotype = [int(c) for c in data["bits"]]
    elif encoding == "float":
        genotype = data["values"]
    elif encoding == "tree":
        genotype = tree_from_text(data["text"])
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    return check_genotype(genotype, encoding, n, mode, decode)


# ---------------------------------------------------------------------------
# run records


@dataclass
class RunRecord:
    """Result of one search run, serializable to one canonical JSON line.

    ``wall_time_s`` is informational and excluded from the canonical form so
    repeated runs of the same seed produce byte-identical lines.
    """

    label: str
    seed: Optional[int]
    config: dict
    evaluations: int
    best_fitness: float
    best_nonlinearity: int
    best_genotype: dict
    best_truth_table: str
    trajectory: list
    target_reached: bool
    stop_reason: str
    wall_time_s: Optional[float] = None

    def to_json(self, include_timing: bool = False) -> str:
        data = asdict(self)
        if not include_timing:
            del data["wall_time_s"]
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError("a run record must be a JSON object")
        data.setdefault("wall_time_s", None)
        names = {field.name for field in fields(cls)}
        unknown, missing = sorted(data.keys() - names), sorted(names - data.keys())
        if unknown or missing:
            raise ValueError(
                f"run record has unknown keys {unknown} and missing keys {missing}"
            )
        return cls(**data)


# ---------------------------------------------------------------------------
# search loops


class _RunState:
    def __init__(self, config: RunConfig, evaluator: FitnessEvaluator, rng: Draws):
        self.config = config
        self.evaluator = evaluator
        self.rng = rng
        self.mutate, self.crossover = make_operators(
            config.encoding, config.n, config.max_depth, config.max_nodes
        )
        self.pop: list[Individual] = []
        self.best: Optional[Individual] = None
        self.trajectory: list[list] = []
        self.next_target = 0  # DE's target slot for its next trial
        # DE: this generation's (r1, r2, r3) slots and crossover masks, one
        # row per target slot, and its trials keyed ahead, the next one last
        self.de_slots: Optional[np.ndarray] = None
        self.de_cross: Optional[np.ndarray] = None
        self.de_trials: list = []

    def note(self, individual: Individual) -> None:
        """Record a new best; stop the run at the evaluation that reaches the target."""
        if self.best is None or individual.key > self.best.key:
            self.best = individual
            fitness = key_to_fitness(individual.key, self.config.n)
            self.trajectory.append([self.evaluator.evaluations, fitness])
            target = self.config.target_nonlinearity
            if target is not None and individual.key >> self.config.n >= target:
                raise BudgetExhausted(EXHAUSTED_TARGET)


def _initialise(state: _RunState) -> None:
    cfg = state.config
    for _ in range(cfg.population_size):
        genotype = random_genotype(
            cfg.encoding,
            cfg.n,
            state.rng,
            mode=cfg.mode,
            decode=cfg.decode,
            max_depth=cfg.max_depth,
            max_nodes=cfg.max_nodes,
        )
        state.pop.append(Individual(genotype, state.evaluator.evaluate(genotype)))
        state.note(state.pop[-1])


def _draw_distinct(rng: Draws, size: int, count: int, taboo=()) -> list[int]:
    drawn: list[int] = []
    while len(drawn) < count:
        candidate = rng.below(size)
        if candidate not in drawn and candidate not in taboo:
            drawn.append(candidate)
    return drawn


def select_loser(pop: list, slots: list[int]) -> int:
    """Tournament slot to eliminate: worst key, ties lost by the latest draw."""
    loser = slots[0]
    for slot in slots[1:]:
        if pop[slot].key <= pop[loser].key:
            loser = slot
    return loser


def sst_step(state: _RunState) -> None:
    """One steady-state step: 3-tournament, eliminate the worst, breed one child.

    Ties go against the latest-drawn contestant, the two survivors are the
    parents (in draw order), and the child always replaces the eliminated
    slot after being evaluated.
    """
    pop = state.pop
    slots = _draw_distinct(state.rng, len(pop), 3)
    loser = select_loser(pop, slots)
    parents = [slot for slot in slots if slot != loser]
    child = state.crossover(pop[parents[0]].genotype, pop[parents[1]].genotype, state.rng)
    if state.rng.uniform() < state.config.p_mutation:
        child = state.mutate(child, state.rng)
    pop[loser] = Individual(child, state.evaluator.evaluate(child))
    state.note(pop[loser])


def de_step(state: _RunState) -> None:
    """One rand/1/bin differential-evolution trial against the next target slot.

    Targets cycle through the population in slot order, so ``len(pop)``
    consecutive steps make one generation.  A trial at least as good as its
    target replaces it at once, so later trials of the same generation may
    draw it.

    A trial's random decisions never read the population, and nothing draws
    between two trials of a generation, so its first trial draws them all,
    in slot order (:func:`_draw_generation`).  The next trials are built
    from the live population and keyed as one block
    (:meth:`FitnessEvaluator.key_ahead`); each is still charged by its own
    ``evaluate`` call.  A replacement that a later trial of the block reads
    drops the block, and the next trial builds the rest again.
    """
    pop = state.pop
    size = len(pop)
    target = state.next_target
    state.next_target = (target + 1) % size
    if target == 0:
        _draw_generation(state)
    trials = state.de_trials
    if not trials:
        end = min(size, target + state.evaluator.block_rows)
        trials.extend(state.evaluator.key_ahead(_de_trials(state, target, end))[::-1])
    trial = trials.pop()
    key = state.evaluator.evaluate(trial)
    if key >= pop[target].key:
        # a copy: a row of the keyed block would keep the whole block alive
        pop[target] = Individual(trial.copy(), key)
        if (state.de_slots[target + 1:target + 1 + len(trials)] == target).any():
            trials.clear()
        state.note(pop[target])


def _draw_generation(state: _RunState) -> None:
    """Draw every trial's slots and crossover mask of a DE generation, in slot order."""
    rng, rate = state.rng, state.config.de_crossover
    size, dim = len(state.pop), len(state.pop[0].genotype)
    slots, masks = [], []
    for target in range(size):
        slots.append(_draw_distinct(rng, size, 3, taboo=(target,)))
        cross = rng.uniforms(dim) < rate
        cross[rng.below(dim)] = True
        masks.append(cross)
    state.de_slots, state.de_cross = np.array(slots), np.array(masks)


def _de_trials(state: _RunState, start: int, end: int) -> np.ndarray:
    """The trials of target slots ``start .. end - 1``, one per row, from the live population."""
    genotypes = np.array([individual.genotype for individual in state.pop])
    r1, r2, r3 = state.de_slots[start:end].T
    mutant = genotypes[r1] + state.config.de_weight * (genotypes[r2] - genotypes[r3])
    np.clip(mutant, 0.0, 1.0, out=mutant)
    return np.where(state.de_cross[start:end], mutant, genotypes[start:end])


def run(config: RunConfig) -> RunRecord:
    """Execute one configured search run to completion."""
    config.validate()
    rng = Draws(config.seed)
    evaluator = FitnessEvaluator(
        config.n,
        config.encoding,
        config.mode,
        config.decode,
        budget=config.evaluation_budget,
        time_limit=config.time_limit,
    )
    state = _RunState(config, evaluator, rng)
    ls_config = (
        LsConfig(config.ls, config.ls_fraction, config.ls_trials) if config.ls else None
    )
    # read from the module on each run: benchmarks/tracer.py wraps both steps
    step = sst_step if config.algorithm == SST else de_step
    start = time.perf_counter()
    # every exit is an exception: budget, time, or the target reached in note
    try:
        _initialise(state)
        for steps in itertools.count(1):
            step(state)
            if ls_config is not None and steps % config.population_size == 0:
                apply_ls(state.pop, ls_config, evaluator, state.mutate, rng, state.note)
    except BudgetExhausted as exhausted:
        stop_reason = exhausted.reason
    wall = time.perf_counter() - start

    best = state.best
    assert best is not None  # budget >= population size guarantees evaluations
    truth = genotype_table(
        best.genotype, config.encoding, config.n, config.mode, config.decode
    )
    # cross-check the fast kernel with the reference butterfly
    if spectrum_key(walsh_transform(truth).values, config.n) != best.key:
        raise RuntimeError(
            f"run with seed {config.seed}: the reference spectrum of the best "
            f"truth table disagrees with its fitness key {best.key}"
        )
    config_echo = asdict(config)
    del config_echo["seed"], config_echo["label"]
    return RunRecord(
        label=config.derived_label(),
        seed=config.seed,
        config=config_echo,
        evaluations=evaluator.evaluations,
        best_fitness=key_to_fitness(best.key, config.n),
        best_nonlinearity=best.key >> config.n,
        best_genotype=serialize_genotype(
            best.genotype, config.encoding, config.n, config.mode, config.decode
        ),
        best_truth_table=truth.to_hex() if config.n >= 2 else "".join(map(str, truth.bits)),
        trajectory=state.trajectory,
        target_reached=stop_reason == EXHAUSTED_TARGET,
        stop_reason=stop_reason,
        wall_time_s=wall,
    )

