"""Local search stages that can be attached to the evolutionary loops.

Variants:

* ``ls1`` mutates the individual repeatedly, keeping strict improvements and
  stopping after a fixed number of consecutive failures.  A climb at
  ``failures`` failures is certain to run ``trials - failures`` more
  trials, and the bitstring and float mutations never read the values they
  change, so it draws those trials' mutations up front, in trial order, with
  one row-block mutation of identity rows (:func:`_identity`).  It applies
  them all to the parent, keys the children as one block
  (:meth:`FitnessEvaluator.key_ahead`), and after an accepted trial applies
  the unused ones to the new parent.  Each trial is still charged by its own
  ``evaluate`` call, given its key, in order.  A tree mutation draws from
  the parent's shape, so a tree climb keys blocks of one child.
* ``ls2`` (bitstring only) sweeps the genotype positions in ascending order,
  committing every strictly improving single-bit flip, until a whole sweep
  passes without improvement.  It rides :class:`BitFlipSession`, which keys
  many flips at once, so most probes are lookups, but each probe is still
  charged to the budget.  In the general space from n = 2 one product of a
  two-row block, the signs of the spectrum's entries at and just below the
  peak, keys every position, once per climb and once after each commit; in
  the rotation-symmetric space and at n = 1 one float32 product forms the
  spectra of a block of consecutive flips and one :func:`spectrum_key` call
  keys them all.
* ``ls3`` runs ``ls1`` and then ``ls2``.

All stages only ever replace an individual with a strictly better one, so
fitness along a local search is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .draws import Draws
from .evaluation import BitFlipSession, FitnessEvaluator, Individual
from .truthtable import check_int, is_real

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
    rng: Draws,
    trials: int = DEFAULT_LS_TRIALS,
    note=None,
) -> Individual:
    """Mutation hill climber; stops after ``trials`` straight failures.

    The children and the charges are those of evaluating one trial at a
    time, each the parent mutated by the next drawn move; see the module
    docstring.
    """
    encoding = evaluator.encoding
    tree = encoding == "tree"
    if not tree:
        # as many identity rows as one block draws at most, built once per climb
        identities = np.tile(
            _identity(encoding, len(individual.genotype)), (min(trials, evaluator.block_rows), 1)
        )
        moves = identities[:0]  # mutations of the identity drawn for the next trials
    current = individual
    failures = 0
    while failures < trials:
        if tree:
            children = [mutate(current.genotype, rng)]
        else:
            count = min(trials - failures, evaluator.block_rows) - len(moves)
            drawn = mutate(identities[:count], rng)
            moves = np.concatenate([moves, drawn])
            children = _apply(encoding, current.genotype, moves)
        for tried, (child, key) in enumerate(zip(children, evaluator.key_ahead(children)), 1):
            key = evaluator.evaluate(child, key)
            if key > current.key:
                current = Individual(child, key)
                failures = 0
                if note is not None:
                    note(current)
                break
            failures += 1
        if not tree:
            moves = moves[tried:]
    return current


_FLIPS = np.array([0, 1], dtype=np.uint8)


def _identity(encoding: str, length: int) -> np.ndarray:
    """The genotype that a mutation turns into a record of its moves.

    Bitstring entry ``2 * i`` stands for parent bit ``i`` (a flip makes it
    ``2 * i + 1``, a shuffle moves it); a float entry is NaN until the
    mutation writes a new value there.
    """
    if encoding == "bitstring":
        return np.arange(0, 2 * length, 2)
    return np.full(length, np.nan)


def _apply(encoding: str, parent: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """The children of mutating ``parent`` by each row of ``moves``, one per row."""
    if encoding == "bitstring":
        # entry 2 * i + f of the table is parent bit i flipped f times
        return (parent[:, None] ^ _FLIPS).reshape(-1)[moves]
    return np.where(np.isnan(moves), parent, moves)


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
    rng: Draws,
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
    genotypes,
    keys: list[int],
    config: LsConfig,
    evaluator: FitnessEvaluator,
    mutate,
    rng: Draws,
    note=None,
) -> None:
    """Improve the current best plus random others, in place.

    The population is ``genotypes`` (a 2-D array of bitstring or float rows,
    or a list of trees) and ``keys``, one per slot.  The number of treated
    slots is ``ceil(fraction * len(keys))``; the slot of the incumbent best
    (the first, on a tie) is always among them and counts toward that
    number.  Each treated slot becomes an :class:`Individual` for
    :func:`improve`, and an improved result is written back over the slot.
    """
    size = len(keys)
    count = min(size, math.ceil(config.fraction * size))
    if count < 1:
        return
    best_index = max(range(size), key=keys.__getitem__)
    chosen = [best_index]
    if count > 1:
        others = [i for i in range(size) if i != best_index]
        picks = rng.sample(len(others), count - 1)
        chosen.extend(others[int(p)] for p in picks)
    for index in chosen:
        individual = Individual(genotypes[index], keys[index])
        result = improve(individual, config, evaluator, mutate, rng, note)
        if result is not individual:
            genotypes[index] = result.genotype
            keys[index] = result.key
