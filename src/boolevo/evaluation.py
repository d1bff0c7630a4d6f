"""Budget-counted fitness evaluation.

The evolutionary loops never rank individuals by the float fitness directly;
they use an exact integer key ``(nl << n) + (2**n - num_max)`` so comparisons
cannot suffer rounding artefacts.  ``key / 2**n`` reproduces the float
fitness exactly (both terms are dyadic rationals).

General-space spectra use the Kronecker factorisation of the Hadamard
matrix (Fino & Algazi, IEEE Trans. Computers, 1976): with ``a = n // 2`` and
``b = n - a``, ``H_{2^n} = H_{2^a} (x) H_{2^b}``, so the spectrum of a sign
vector ``s`` is ``Ha @ s.reshape(2**a, 2**b) @ Hb`` and the row of ``H_{2^n}``
for position ``hi * 2**b + lo`` is ``Ha[hi] (x) Hb[lo]``.  Rotation-symmetric
spectra are one product of the orbit sign vector with the orbit sign patterns.

Every spectrum path is exact in float32: each partial sum of either product
is an integer of magnitude at most ``2**n <= 2**16``, far below the ``2**24``
threshold above which float32 integers could round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .encodings import (
    DEFAULT_DECODE,
    GENERAL,
    ROTATION,
    check_space,
    float_bits,
    target_length,
    tree_truth_bits,
)
# compute_orbits stays a module name here: benchmarks/tracer.py wraps it
from .orbits import compute_orbits, orbit_sign_patterns  # noqa: F401
from .truthtable import hadamard_transform, spectrum_key

EXHAUSTED_EVALUATIONS = "budget"
EXHAUSTED_TIME = "time"


class BudgetExhausted(Exception):
    """Raised when a run may not spend any further fitness evaluations."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


#: Sign of each truth-table bit, indexed by the bit.
_SIGNS = np.array([1.0, -1.0], dtype=np.float32)


@lru_cache(maxsize=None)
def _hadamard_factor(m: int) -> np.ndarray:
    """Float32 ``H_{2^m}``, built by the reference butterfly."""
    h = hadamard_transform(np.eye(1 << m)).astype(np.float32)
    h.flags.writeable = False
    return h


@lru_cache(maxsize=None)
def _patterns_float(n: int) -> np.ndarray:
    p = orbit_sign_patterns(n).astype(np.float32)
    p.flags.writeable = False
    return p


def key_to_fitness(key: int, n: int) -> float:
    return key / (1 << n)


@dataclass(frozen=True)
class Individual:
    """A genotype with its cached evaluation results."""

    genotype: object
    key: int        # exact ranking key, (nl << n) + (2**n - num_max)
    nl: int
    fitness: float  # key / 2**n, exact

    @classmethod
    def make(cls, genotype, key: int, nl: int, n: int) -> "Individual":
        return cls(genotype, key, nl, key_to_fitness(key, n))


class FitnessEvaluator:
    """Maps raw genotypes to fitness keys while enforcing run budgets.

    Raw genotypes are the forms the search loops actually carry: uint8 bit
    arrays for the bitstring encoding, float64 arrays for the float encoding
    and flat preorder token tuples for trees.  They are not re-validated
    here; one from outside the search goes through
    :func:`~boolevo.encodings.check_genotype` first.
    Every call to :meth:`evaluate` (and every flip probed through
    :class:`BitFlipSession`) charges one evaluation; crossing the budget or
    the wall-clock limit raises :class:`BudgetExhausted`.
    """

    def __init__(
        self,
        n: int,
        encoding: str,
        mode: str = GENERAL,
        decode: int = DEFAULT_DECODE,
        budget: int | None = None,
        time_limit: float | None = None,
    ):
        check_space(n, encoding, mode, decode)
        self.n = n
        self.encoding = encoding
        self.mode = mode
        self.decode = decode
        self.budget = budget
        self.evaluations = 0
        self._deadline = None if time_limit is None else time.perf_counter() + time_limit
        if mode == ROTATION:
            self._patterns = _patterns_float(n)
        else:
            self._ha = _hadamard_factor(n // 2)
            self._hb = _hadamard_factor(n - n // 2)
        #: bits in a bitstring genotype for this search space
        self.genotype_length = target_length(n, mode)

    def charge(self, count: int = 1) -> None:
        """Account for ``count`` fitness evaluations, or refuse to."""
        if self.budget is not None and self.evaluations + count > self.budget:
            raise BudgetExhausted(EXHAUSTED_EVALUATIONS)
        before = self.evaluations
        self.evaluations += count
        if self._deadline is not None and before // 1024 != self.evaluations // 1024:
            if time.perf_counter() > self._deadline:
                raise BudgetExhausted(EXHAUSTED_TIME)

    def evaluate(self, genotype) -> tuple[int, int]:
        """Charge one evaluation and return ``(fitness key, nonlinearity)``."""
        self.charge()
        return spectrum_key(self._spectrum(genotype), self.n)

    # -- spectrum paths ----------------------------------------------------

    def _spectrum(self, genotype) -> np.ndarray:
        if self.encoding == "tree":
            return self._spectrum_general(tree_truth_bits(genotype, self.n))
        if self.encoding == "float":
            genotype = float_bits(genotype, self.decode)
        if self.mode == ROTATION:
            return self._spectrum_orbit(genotype)
        return self._spectrum_general(genotype)

    def _spectrum_general(self, bits: np.ndarray) -> np.ndarray:
        signs = _SIGNS[bits].reshape(len(self._ha), len(self._hb))
        return (self._ha @ signs @ self._hb).reshape(-1)

    def _spectrum_orbit(self, orbit_bits: np.ndarray) -> np.ndarray:
        signs = 1.0 - 2.0 * orbit_bits.astype(np.float32)
        return signs @ self._patterns

    def _flip_row(self, position: int) -> np.ndarray:
        """Spectrum delta direction for flipping one genotype bit."""
        if self.mode == ROTATION:
            return self._patterns[position]
        hi, lo = divmod(position, len(self._hb))
        return (self._ha[hi, :, None] * self._hb[lo]).reshape(-1)


class BitFlipSession:
    """Incremental re-evaluation of single-bit flips of a bitstring genotype.

    Flipping genotype bit ``j`` moves the spectrum by ``-2 * sign_j * row_j``
    where ``row_j`` is the Hadamard row (general mode) or orbit sign pattern
    (rotation mode) for that position, so each probe is one vector update
    instead of a full transform.  Probes charge the evaluator exactly like
    full evaluations; the setup recomputes the incumbent's spectrum without
    charging because its fitness is already known.
    """

    def __init__(self, evaluator: FitnessEvaluator, bits: np.ndarray):
        if evaluator.encoding != "bitstring":
            raise ValueError("bit-flip search needs the bitstring encoding")
        self.evaluator = evaluator
        self.bits = np.array(bits, dtype=np.uint8, copy=True)
        if self.bits.shape != (evaluator.genotype_length,):
            raise ValueError(
                f"expected {evaluator.genotype_length} genotype bits, "
                f"got shape {self.bits.shape}"
            )
        if evaluator.mode == ROTATION:
            self.spectrum = evaluator._spectrum_orbit(self.bits)
        else:
            self.spectrum = evaluator._spectrum_general(self.bits)
        self.spectrum = np.array(self.spectrum, dtype=np.float64)
        self.key, self.nl = spectrum_key(self.spectrum, evaluator.n)
        self._pending: int | None = None
        self._pending_spectrum: np.ndarray | None = None

    def try_flip(self, position: int) -> tuple[int, int]:
        """Probe flipping one bit; charges one evaluation."""
        self.evaluator.charge()
        sign = 1.0 - 2.0 * float(self.bits[position])
        candidate = self.spectrum - (2.0 * sign) * self.evaluator._flip_row(position)
        self._pending = position
        self._pending_spectrum = candidate
        return spectrum_key(candidate, self.evaluator.n)

    def commit(self) -> None:
        """Adopt the most recently probed flip."""
        if self._pending is None:
            raise RuntimeError("no probed flip to commit")
        self.bits[self._pending] ^= 1
        self.spectrum = self._pending_spectrum
        self.key, self.nl = spectrum_key(self.spectrum, self.evaluator.n)
        self._pending = None
        self._pending_spectrum = None
