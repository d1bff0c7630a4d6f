"""Search loops: steady-state tournament evolution and differential evolution.

A run is fully described by a :class:`RunConfig`; :func:`run` replays
byte-identically from the same seed.  A run stops when its evaluation
budget is spent, when its optional wall-clock limit passes, or at the first
evaluation, in any phase, whose result reaches the target nonlinearity.
One loop serves SST and DE: a generation is ``population_size`` SST steps,
run in blocks of disjoint tournaments (:func:`sst_step`), or one DE trial
per slot, and local search follows every generation.
"""

from __future__ import annotations

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
    key_to_fitness,
)
from .localsearch import DEFAULT_LS_FRACTION, DEFAULT_LS_TRIALS, VARIANTS, LsConfig, apply_ls
from .operators import make_operators
from .truthtable import (
    MAX_DIMENSION,
    bits_from_hex,
    bits_to_hex,
    check_int,
    check_time_limit,
    covering_radius_bound,
    is_real,
    odd_upper_bound,
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
            # a target that no function reaches would only run out the budget
            if self.n % 2:
                bound, name = odd_upper_bound(self.n), "odd-n upper bound"
            else:
                bound, name = covering_radius_bound(self.n), "covering radius bound"
            if self.target_nonlinearity > bound:
                raise ValueError(
                    f"target nonlinearity {self.target_nonlinearity} is above the "
                    f"{name} {bound} at n = {self.n}"
                )
        if self.seed is not None:
            check_int("seed", self.seed, 0)
        # the label keys the campaign summary and echoes into every record
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")

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
    encoding, n = _field(data, "encoding"), _field(data, "n")
    # n sizes the hex payload, so it is checked before any payload is read
    check_int("genotype field 'n'", n, 1, MAX_DIMENSION)
    mode, decode = data.get("mode", GENERAL), data.get("decode", DEFAULT_DECODE)
    if encoding == "bitstring" and "hex" in data:
        digits = data["hex"]
        if not isinstance(digits, str):
            raise ValueError(f"genotype field 'hex' must be a string of hex digits, got {digits!r}")
        genotype = bits_from_hex(digits, target_length(n, mode))
    elif encoding == "bitstring":
        bits = _field(data, "bits")
        # ASCII 0 and 1 alone: int() would take any Unicode digit
        if not isinstance(bits, str) or not set(bits) <= {"0", "1"}:
            raise ValueError(f"genotype field 'bits' must be a string of 0s and 1s, got {bits!r}")
        genotype = [int(c) for c in bits]
    elif encoding == "float":
        genotype = _field(data, "values")
    elif encoding == "tree":
        text = _field(data, "text")
        if not isinstance(text, str):
            raise ValueError(f"genotype field 'text' must be a string, got {text!r}")
        genotype = tree_from_text(text)
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    return check_genotype(genotype, encoding, n, mode, decode)


def _field(data: dict, name: str):
    """``data[name]``, or a one-line error that names the missing field."""
    if name not in data:
        raise ValueError(f"genotype record has no {name!r} field")
    return data[name]


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
    """Draw and evaluate the initial population, ``block_rows`` genotypes at a time.

    A block's genotypes are drawn first, in order, and keyed with one
    :meth:`FitnessEvaluator.key_ahead`; each is then charged by its own
    ``evaluate`` call, given its key, and noted, in order.  No draw reads a
    key, so the population, its charges and its notes are those of drawing
    and evaluating one genotype at a time, and a stop falls on the same
    evaluation; it leaves only the rest of its block drawn in vain.
    """
    cfg, evaluator = state.config, state.evaluator
    tree = cfg.encoding == "tree"
    for start in range(0, cfg.population_size, evaluator.block_rows):
        count = min(evaluator.block_rows, cfg.population_size - start)
        block = [
            random_genotype(
                cfg.encoding,
                cfg.n,
                state.rng,
                mode=cfg.mode,
                decode=cfg.decode,
                max_depth=cfg.max_depth,
                max_nodes=cfg.max_nodes,
            )
            for _ in range(count)
        ]
        for genotype, key in zip(block, evaluator.key_ahead(block if tree else np.array(block))):
            state.pop.append(Individual(genotype, evaluator.evaluate(genotype, key)))
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


def sst_step(state: _RunState, steps: int) -> int:
    """One block of steady-state steps; returns how many it ran.

    A block is ``rows = min(population_size // 3, block_rows, steps)``
    disjoint 3-tournaments, whose ``3 * rows`` slots are the head of one
    random permutation of the population, so all distinct.  Each row's loser
    is its worst contestant (ties lost by the latest draw) and its two
    survivors are the parents, in draw order.  One mutation coin per row
    follows, then the children are built from the population as it was
    before the block, so no child is a parent in its own block: bitstring
    and float children as one row block (crossover, then mutation of the
    rows whose coin fell below ``p_mutation``); tree children one row at a
    time, in row order, and only as many as the budget can charge plus the
    one whose charge stops the run, so a budget stop builds no tree in
    vain.  The children are keyed with one
    :meth:`FitnessEvaluator.key_ahead`.  Each is then charged by its own
    ``evaluate`` call, given its key, replaces its row's loser and is noted,
    in row order, so a budget, time or target stop falls on the same
    evaluation as it would one step at a time.
    """
    pop, rng, evaluator = state.pop, state.rng, state.evaluator
    rows = min(len(pop) // 3, evaluator.block_rows, steps)
    slots = rng.permutation(len(pop))[: 3 * rows].tolist()
    losers, parents = [], []  # parents: each row's two survivors, in draw order
    for row in range(0, 3 * rows, 3):
        tournament = slots[row : row + 3]
        loser = select_loser(pop, tournament)
        tournament.remove(loser)
        losers.append(loser)
        parents += tournament
    parents = [pop[slot].genotype for slot in parents]
    p_mutation = state.config.p_mutation
    coins = [rng.uniform() < p_mutation for _ in range(rows)]
    tree = state.config.encoding == "tree"
    if tree:
        built = rows
        if evaluator.budget is not None:
            built = min(rows, evaluator.budget - evaluator.evaluations + 1)
        block = []
        for a, b, coin in zip(parents[0::2], parents[1::2], coins[:built]):
            child = state.crossover(a, b, rng)
            block.append(state.mutate(child, rng) if coin else child)
    else:
        genotypes = np.array(parents)
        block = state.crossover(genotypes[0::2], genotypes[1::2], rng)
        mutated = [row for row, coin in enumerate(coins) if coin]
        if mutated:
            block[mutated] = state.mutate(block[mutated], rng)
    for loser, child, key in zip(losers, block, evaluator.key_ahead(block)):
        key = evaluator.evaluate(child, key)
        # a copy: a row of the keyed block would keep the whole block alive
        pop[loser] = Individual(child if tree else child.copy(), key)
        state.note(pop[loser])
    return rows


def _sst_generation(state: _RunState) -> None:
    """``population_size`` steady-state steps, in blocks."""
    size = state.config.population_size
    done = 0
    while done < size:
        done += sst_step(state, size - done)


def de_step(state: _RunState) -> None:
    """One rand/1/bin differential-evolution generation: one trial per target slot.

    A trial's random decisions (three distinct slots other than its target,
    the crossover mask and its forced index) never read the population, so
    they are all drawn first, in slot order.  The trials are then built from
    the live population in blocks of up to ``block_rows``, each keyed with
    one :meth:`FitnessEvaluator.key_ahead`, and each is charged by its own
    ``evaluate`` call, given its key, in slot order.  A trial at least as
    good as its target replaces it at once, so later trials of the
    generation may read it.  A later trial of the block whose three slots
    include a slot replaced since the block was built is stale: when its
    turn comes it is built again from the live population, with the same
    float operations, and ``evaluate`` is given no key, so it keys the new
    trial on its own.
    """
    pop, rng, cfg, evaluator = state.pop, state.rng, state.config, state.evaluator
    size, dim = len(pop), len(pop[0].genotype)
    slots, uniforms, forced = [], [], []
    for target in range(size):
        slots.append(_draw_distinct(rng, size, 3, taboo=(target,)))
        uniforms.append(rng.uniforms(dim))
        forced.append(rng.below(dim))
    cross = np.array(uniforms) < cfg.de_crossover
    cross[np.arange(size), forced] = True
    slot_rows = np.array(slots)
    for start in range(0, size, evaluator.block_rows):
        end = min(size, start + evaluator.block_rows)
        genotypes = np.array([individual.genotype for individual in pop])
        block = _de_trials(
            *genotypes[slot_rows[start:end].T], cross[start:end], genotypes[start:end], cfg.de_weight
        )
        replaced: set[int] = set()  # slots replaced since the block was built
        for target, trial, key in zip(range(start, end), block, evaluator.key_ahead(block)):
            if not replaced.isdisjoint(slots[target]):
                parents = (pop[slot].genotype for slot in slots[target])
                trial = _de_trials(*parents, cross[target], pop[target].genotype, cfg.de_weight)
                key = None
            key = evaluator.evaluate(trial, key)
            if key >= pop[target].key:
                # a copy: a row of the keyed block would keep the whole block alive
                pop[target] = Individual(trial.copy(), key)
                replaced.add(target)
                state.note(pop[target])


def _de_trials(first, second, third, cross, targets, weight: float) -> np.ndarray:
    """rand/1/bin trials, one per row or a single one: the clipped mutant
    ``first + weight * (second - third)`` where ``cross`` is set, else the target."""
    mutant = first + weight * (second - third)
    np.clip(mutant, 0.0, 1.0, out=mutant)
    return np.where(cross, mutant, targets)


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
    # de_step and sst_step are read from the module at call time:
    # benchmarks/tracer.py wraps both
    generation = _sst_generation if config.algorithm == SST else de_step
    start = time.perf_counter()
    # every exit is an exception: budget, time, or the target reached in note
    try:
        _initialise(state)
        while True:
            generation(state)
            if ls_config is not None:
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

