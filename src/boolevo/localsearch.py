"""Local search stages that can be attached to the evolutionary loops.

Variants:

* ``ls1`` mutates the individual repeatedly, keeping strict improvements and
  stopping after a fixed number of consecutive failures.
* ``ls2`` (bitstring only) sweeps the genotype positions in ascending order,
  committing every strictly improving single-bit flip, until a whole sweep
  passes without improvement.  It rides :class:`BitFlipSession`, so each
  probe is an incremental spectrum update but is still charged to the budget.
* ``ls3`` runs ``ls1`` and then ``ls2``.

All stages only ever replace an individual with a strictly better one, so
fitness along a local search is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluation import BitFlipSession, FitnessEvaluator, Individual, check_int, is_real

VARIANTS = ("ls1", "ls2", "ls3")
#: Share of the population treated per round and failures that stop ``ls1``.
DEFAULT_LS_FRACTION = 0.05
DEFAULT_LS_TRIALS = 25


@dataclass(frozen=True)
class LsConfig:
    """Which stage to run, on what share of the population, how stubbornly."""

    variant: str = "ls1"
    fraction: float = DEFAULT_LS_FRACTION
    trials: int = DEFAULT_LS_TRIALS

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown local search variant {self.variant!r}")
        if not (is_real(self.fraction) and 0.0 < self.fraction <= 1.0):
            raise ValueError(f"ls fraction must be in (0, 1], got {self.fraction!r}")
        check_int("ls trials", self.trials, 1)


def ls_mutation(
    individual: Individual,
    evaluator: FitnessEvaluator,
    mutate,
    rng: np.random.Generator,
    trials: int = DEFAULT_LS_TRIALS,
    note=None,
) -> Individual:
    """Mutation hill climber; stops after ``trials`` straight failures."""
    current = individual
    failures = 0
    while failures < trials:
        genotype = mutate(current.genotype, rng)
        key = evaluator.evaluate(genotype)
        if key > current.key:
            current = Individual(genotype, key)
            failures = 0
            if note is not None:
                note(current)
        else:
            failures += 1
    return current


def ls_bitflip(
    individual: Individual, evaluator: FitnessEvaluator, note=None
) -> Individual:
    """Exhaustive first-improvement bit-flip climber (bitstring encoding).

    Ascending sweeps; an improving flip is committed immediately and the
    sweep continues from the next position.  Terminates at the first sweep
    with no improvement, i.e. at a 1-flip local optimum.
    """
    session = BitFlipSession(evaluator, individual.genotype)
    improved = True
    while improved:
        improved = False
        for position in range(session.bits.shape[0]):
            if session.try_flip(position) > session.key:
                session.commit()
                improved = True
                if note is not None:
                    note(Individual(session.bits.copy(), session.key))
    if session.key > individual.key:
        return Individual(session.bits.copy(), session.key)
    return individual


def improve(
    individual: Individual,
    config: LsConfig,
    evaluator: FitnessEvaluator,
    mutate,
    rng: np.random.Generator,
    note=None,
) -> Individual:
    """Run the configured stage(s) on one individual."""
    result = individual
    if config.variant in ("ls1", "ls3"):
        result = ls_mutation(result, evaluator, mutate, rng, config.trials, note)
    if config.variant in ("ls2", "ls3"):
        result = ls_bitflip(result, evaluator, note)
    return result


def apply_ls(
    pop: list,
    config: LsConfig,
    evaluator: FitnessEvaluator,
    mutate,
    rng: np.random.Generator,
    note=None,
) -> None:
    """Improve the current best plus random others, in place.

    The number of treated individuals is ``ceil(fraction * len(pop))``; the
    incumbent best is always among them and counts toward that number.
    """
    count = min(len(pop), math.ceil(config.fraction * len(pop)))
    if count < 1:
        return
    best_index = max(range(len(pop)), key=lambda i: pop[i].key)
    chosen = [best_index]
    if count > 1:
        others = [i for i in range(len(pop)) if i != best_index]
        picks = rng.choice(len(others), size=count - 1, replace=False)
        chosen.extend(others[int(p)] for p in picks)
    for index in chosen:
        pop[index] = improve(pop[index], config, evaluator, mutate, rng, note)
