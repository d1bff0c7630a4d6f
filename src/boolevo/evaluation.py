"""Budget-counted fitness evaluation.

The evolutionary loops never rank individuals by the float fitness directly;
they use an exact integer key ``(nl << n) + (2**n - num_max)`` so comparisons
cannot suffer rounding artefacts.  The key is the only evaluation result:
``key >> n`` is the nonlinearity and ``key / 2**n`` the float fitness, exactly
(both terms are dyadic rationals).

General-space spectra use the Kronecker factorisation of the Hadamard
matrix (Fino & Algazi, IEEE Trans. Computers, 1976): with ``a = n // 2`` and
``b = n - a``, ``H_{2^n} = H_{2^a} (x) H_{2^b}`` and the row of ``H_{2^n}``
for position ``hi * 2**b + lo`` is ``Ha[hi] (x) Hb[lo]``.  The product runs
on the bits themselves rather than on their signs: since
``W = H(1 - 2f) = 2**n * [a = 0] - 2 * Hf``, the spectrum is
``Ha @ f.reshape(2**a, 2**b) @ (-2 * Hb)`` with ``2**n`` added at index 0,
the ``-2`` folded once into the cached right factor.  Rotation-symmetric
spectra are one product of the orbit sign vector with the orbit sign
patterns.

Every spectrum path is exact in float32, whose integers round only above
``2**24``.  In the general path each partial sum of ``Ha @ B`` is an
integer of magnitude at most ``2**a``; the unscaled product ``Hf`` is at
most ``2**n``, so each partial sum of the product with ``-2 * Hb`` is at
most ``2**(n + 1) <= 2**17``, and adding ``2**n`` at index 0 gives ``W(0)``,
itself at most ``2**n`` in magnitude.  In the rotation path each partial sum
is at most ``2**n <= 2**16``.
"""

from __future__ import annotations

import math
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
EXHAUSTED_TARGET = "target"


class BudgetExhausted(Exception):
    """Raised to stop a run: its budget or time is spent, or it reached its target."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


#: Sign of each truth-table bit, indexed by the bit (rotation path).
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


def is_real(value) -> bool:
    """The one type test for float options: a Python int or float, not a bool.

    numpy's float64 subclasses float and serialises; a float32 does not, so
    it would fail only when the finished run's record is written, and a
    string would fail at the range comparison with a traceback.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_time_limit(time_limit: float | None) -> None:
    """Raise a one-line error unless the limit is None or positive and finite."""
    # NaN fails both comparisons; a NaN deadline would never pass
    if time_limit is not None and not (is_real(time_limit) and 0 < time_limit < math.inf):
        raise ValueError("time limit must be a positive finite number")


def check_int(name: str, value, minimum: int) -> None:
    """Raise a one-line error unless ``value`` is an int, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


@dataclass(frozen=True)
class Individual:
    """A genotype with its fitness key."""

    genotype: object
    key: int  # exact ranking key, (nl << n) + (2**n - num_max)


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
        if budget is not None:
            check_int("budget", budget, 0)
        check_time_limit(time_limit)
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
            self._hb_scaled = np.float32(-2) * self._hb
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

    def evaluate(self, genotype) -> int:
        """Charge one evaluation and return the fitness key."""
        self.charge()
        return spectrum_key(self._spectrum(genotype), self.n)

    # -- spectrum paths ----------------------------------------------------

    def _spectrum(self, genotype) -> np.ndarray:
        if self.encoding == "tree":
            return self._spectrum_general(tree_truth_bits(genotype, self.n))
        if self.encoding == "float":
            genotype = float_bits(genotype, self.decode)
        if self.mode == ROTATION:
            return _SIGNS[genotype] @ self._patterns
        return self._spectrum_general(genotype)

    def _spectrum_general(self, bits: np.ndarray) -> np.ndarray:
        table = bits.astype(np.float32).reshape(len(self._ha), len(self._hb))
        spectrum = (self._ha @ table @ self._hb_scaled).reshape(-1)
        spectrum[0] += 1 << self.n
        return spectrum

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
        self.spectrum = np.array(evaluator._spectrum(self.bits), dtype=np.float64)
        self.key = spectrum_key(self.spectrum, evaluator.n)
        # (position, spectrum, key) of the last probed flip
        self._pending: tuple[int, np.ndarray, int] | None = None

    def try_flip(self, position: int) -> int:
        """Probe flipping one bit and return its key; charges one evaluation."""
        self.evaluator.charge()
        sign = 1.0 - 2.0 * float(self.bits[position])
        candidate = self.spectrum - (2.0 * sign) * self.evaluator._flip_row(position)
        key = spectrum_key(candidate, self.evaluator.n)
        self._pending = (position, candidate, key)
        return key

    def commit(self) -> None:
        """Adopt the most recently probed flip."""
        if self._pending is None:
            raise RuntimeError("no probed flip to commit")
        position, self.spectrum, self.key = self._pending
        self.bits[position] ^= 1
        self._pending = None
