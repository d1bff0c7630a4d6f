"""Search loops: steady-state tournament evolution and differential evolution.

A run is fully described by a :class:`RunConfig`; :func:`run` replays
byte-identically from the same seed.  Runs stop when the evaluation budget
is spent, the optional wall-clock limit passes, or the best individual
reaches the target nonlinearity.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

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
    BudgetExhausted,
    FitnessEvaluator,
    Individual,
    check_int,
    check_time_limit,
    key_to_fitness,
)
from .localsearch import DEFAULT_LS_FRACTION, DEFAULT_LS_TRIALS, LsConfig, apply_ls
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
        check_space(self.n, self.encoding, self.mode, self.decode)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == DE and self.encoding != "float":
            raise ValueError("differential evolution operates on float genotypes")
        minimum_pop = 4 if self.algorithm == DE else 3
        check_int(f"{self.algorithm} population size", self.population_size, minimum_pop)
        # the budget must cover at least the initial population
        check_int("evaluation budget", self.evaluation_budget, self.population_size)
        if not 0.0 <= self.p_mutation <= 1.0:
            raise ValueError("mutation probability must be in [0, 1]")
        if not 0.0 < self.de_weight <= 2.0:
            raise ValueError("differential weight must be in (0, 2]")
        if not 0.0 <= self.de_crossover <= 1.0:
            raise ValueError("crossover rate must be in [0, 1]")
        check_int("ls trials", self.ls_trials, 1)
        if self.ls is not None:
            LsConfig(self.ls, self.ls_fraction, self.ls_trials)
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
    def __init__(self, config: RunConfig, evaluator: FitnessEvaluator, rng):
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
        if self.best is None or individual.key > self.best.key:
            self.best = individual
            fitness = key_to_fitness(individual.key, self.config.n)
            self.trajectory.append([self.evaluator.evaluations, fitness])

    def target_reached(self) -> bool:
        return (
            self.config.target_nonlinearity is not None
            and self.best is not None
            and self.best.key >> self.config.n >= self.config.target_nonlinearity
        )


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


def _draw_distinct(rng, size: int, count: int, taboo=()) -> list[int]:
    drawn: list[int] = []
    while len(drawn) < count:
        candidate = int(rng.integers(size))
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
    if state.rng.random() < state.config.p_mutation:
        child = state.mutate(child, state.rng)
    pop[loser] = Individual(child, state.evaluator.evaluate(child))
    state.note(pop[loser])


def de_step(state: _RunState) -> None:
    """One generation of rand/1/bin differential evolution."""
    cfg = state.config
    pop = state.pop
    size = len(pop)
    for target in range(size):
        r1, r2, r3 = _draw_distinct(state.rng, size, 3, taboo=(target,))
        mutant = pop[r1].genotype + cfg.de_weight * (pop[r2].genotype - pop[r3].genotype)
        np.clip(mutant, 0.0, 1.0, out=mutant)
        dim = mutant.shape[0]
        cross = state.rng.random(dim) < cfg.de_crossover
        cross[int(state.rng.integers(dim))] = True
        trial = np.where(cross, mutant, pop[target].genotype)
        key = state.evaluator.evaluate(trial)
        if key >= pop[target].key:
            pop[target] = Individual(trial, key)
            state.note(pop[target])


def run(config: RunConfig) -> RunRecord:
    """Execute one configured search run to completion."""
    config.validate()
    rng = np.random.default_rng(config.seed)
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
    start = time.perf_counter()
    stop_reason = "budget"
    steps_in_generation = 0
    try:
        _initialise(state)
        while True:
            if state.target_reached():
                stop_reason = "target"
                break
            if config.algorithm == SST:
                sst_step(state)
                steps_in_generation += 1
                if ls_config is not None and steps_in_generation >= config.population_size:
                    steps_in_generation = 0
                    apply_ls(
                        state.pop, ls_config, evaluator, state.mutate, rng, state.note
                    )
            else:
                de_step(state)
                if ls_config is not None:
                    apply_ls(
                        state.pop, ls_config, evaluator, state.mutate, rng, state.note
                    )
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
        target_reached=state.target_reached(),
        stop_reason=stop_reason,
        wall_time_s=wall,
    )

