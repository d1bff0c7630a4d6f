"""Budget-counted fitness evaluation.

The evolutionary loops never rank individuals by the float fitness directly;
they use an exact integer key ``(nl << n) + (2**n - num_max)`` so comparisons
cannot suffer rounding artefacts.  The key is the only evaluation result:
``key >> n`` is the nonlinearity and ``key / 2**n`` the float fitness, exactly
(both terms are dyadic rationals).

Every spectrum is computed from the genotype's bits rather than their signs:
since ``W = H(1 - 2f) = 2**n * [a = 0] - 2 * Hf``, the spectrum of genotype
bits ``g`` is ``2**n * [a = 0] + g @ R``, where row ``R_j`` is ``-2`` times the
Walsh row of genotype position ``j``, and flipping bit ``j`` moves the
spectrum by ``(1 - 2 * g_j) * R_j``.  In the general space ``R`` is applied
as Kronecker factors (Fino & Algazi, IEEE Trans. Computers, 1976): with
``a = n // 2`` and ``b = n - a``, ``H_{2^n} = H_{2^a} (x) H_{2^b}``, so
``R_j = Ha[hi] (x) (-2 * Hb)[lo]`` for position ``hi * 2**b + lo`` and the
product is ``Ha @ g.reshape(2**a, 2**b) @ (-2 * Hb)``.

The spectrum of a rotation-symmetric function is constant on the rotation
orbits of the mask (Stanica, Maitra & Clark, FSE 2004), so that space keeps
it in orbit coordinates: one entry per orbit, at the orbit's smallest mask.
There ``R`` is ``A = -2 * P[:, reps]``, one cached ``g x g`` float32 matrix:
the columns of ``-2`` times the orbit sign patterns ``P`` at the ``g`` orbit
representatives.  Orbit 0 is the all-zero mask alone, so ``2**n`` is still
added at index 0, and :func:`spectrum_key` counts the peak with the orbit
sizes as weights, which gives the key of all ``2**n`` Walsh values.

Every path is exact in float32, whose integers round only above ``2**24``.
Each partial sum of either product, in any order, adds one ``+-1`` or
``+-2`` term for each input of a subset of the ``2**n`` inputs, so it is at
most ``2**(n + 1) <= 2**17`` in magnitude, and adding ``2**n`` at index 0
gives ``W(0)`` itself; each entry of ``bits @ A`` is the same sum of
terms as the full product's column at that orbit's representative.  Every
flip-row entry is ``-2`` times a Hadamard entry or an orbit sign pattern
entry (at most the orbit size, ``n``), so at most ``2 * n`` in magnitude, and
every candidate spectrum entry of :class:`BitFlipSession` is a Walsh value,
at most ``2**n <= 2**16``.  A weighted count adds the sizes of orbits that
hold at most ``2**n`` masks together, so it is at most ``2**n`` too.  A
block of genotypes keyed at once (:meth:`FitnessEvaluator.key_ahead`) is
one product with one row per genotype, and each row adds the same terms as
that genotype's vector product, so the same bound holds row by row.
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
# compute_orbits is called at set-up; orbit_sign_patterns, the reference for
# _orbit_rows, stays a module name here only because benchmarks/tracer.py
# wraps it
from .orbits import compute_orbits, orbit_sign_patterns, rotate_index  # noqa: F401
from .truthtable import hadamard_transform, spectrum_key

EXHAUSTED_EVALUATIONS = "budget"
EXHAUSTED_TIME = "time"
EXHAUSTED_TARGET = "target"


class BudgetExhausted(Exception):
    """Raised to stop a run: its budget or time is spent, or it reached its target."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


#: Most floats in one block of spectra keyed at once, by
#: :class:`BitFlipSession` or :meth:`FitnessEvaluator.key_ahead` (128 KiB of
#: float32): 64 spectra of ``2**n`` entries at n = 9, 8 at n = 12, 4 at
#: n = 13.  Blocks of twice that size made LS2 at n = 9 slower, not faster.
#: A rotation-symmetric spectrum has ``g`` entries, one per orbit, so its
#: blocks, with as many rows, hold fewer floats.
BLOCK_ELEMENTS = 1 << 15


@lru_cache(maxsize=None)
def _hadamard_factor(m: int) -> np.ndarray:
    """Float32 ``H_{2^m}``, built by the reference butterfly."""
    h = hadamard_transform(np.eye(1 << m)).astype(np.float32)
    h.flags.writeable = False
    return h


def _kronecker_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Float32 ``Ha`` and ``-2 * Hb``, the general space's rows ``R``."""
    return _hadamard_factor(n // 2), np.float32(-2) * _hadamard_factor(n - n // 2)


@lru_cache(maxsize=None)
def _orbit_rows(n: int) -> np.ndarray:
    """Float32 ``A = -2 * P[:, reps]``, the rotation-symmetric rows ``R``.

    ``A[j, k]`` is ``-2`` times the sum of ``(-1)**parity(x & reps[k])`` over
    the inputs ``x`` of orbit ``j``: the sign pattern of
    :func:`~boolevo.orbits.orbit_sign_patterns` at orbit ``k``'s
    representative.  The ``n`` rotations of ``reps[j]`` visit each input of
    orbit ``j`` ``n / size_j`` times, so the exact integer sum comes from
    ``n`` blocks of ``g x g`` and no ``g x 2**n`` matrix is made.
    """
    table = compute_orbits(n)
    reps = table.representatives
    signs = np.ones(1, dtype=np.int32)  # (-1)**parity(x) for x < 2**n
    for _ in range(n):
        signs = np.concatenate([signs, -signs])
    total = np.zeros((len(reps), len(reps)), dtype=np.int32)
    rotated = reps
    for _ in range(n):
        total += signs[rotated[:, None] & reps]
        rotated = rotate_index(rotated, n)
    # at a 64-byte boundary: keying a block of 25 genotypes at n = 9 took
    # about 25 us against a misaligned matrix and 17 us against an aligned one
    buffer = np.empty(total.size * 4 + 64, dtype=np.uint8)
    start = -buffer.ctypes.data % 64
    rows = buffer[start:start + total.size * 4].view(np.float32).reshape(total.shape)
    rows[...] = -2 * (total * table.orbit_sizes[:, None] // n)
    rows.flags.writeable = False
    return rows


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
    the wall-clock limit raises :class:`BudgetExhausted`.  Keying genotypes
    ahead with :meth:`key_ahead` charges nothing; their :meth:`evaluate`
    calls do.
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
            self._orbit_rows = _orbit_rows(n)
            #: how many Walsh values each spectrum entry stands for, the
            #: orbit sizes in the rotation-symmetric space
            self.weights = compute_orbits(n).orbit_sizes.astype(np.float32)
        else:
            self._ha, self._hb = _kronecker_factors(n)
            self.weights = None
        #: bits in a bitstring genotype for this search space
        self.genotype_length = target_length(n, mode)
        #: most spectra in one block of ``2**n``-entry spectra; a
        #: rotation-symmetric spectrum has ``g`` entries, one per orbit
        self.block_rows = max(1, BLOCK_ELEMENTS >> n)
        # (genotype, key) pairs keyed ahead, the next one last
        self._ahead: list[tuple[np.ndarray, int]] = []

    def charge(self) -> None:
        """Account for one fitness evaluation, or refuse to."""
        if self.budget is not None and self.evaluations >= self.budget:
            raise BudgetExhausted(EXHAUSTED_EVALUATIONS)
        self.evaluations += 1
        if self._deadline is not None and self.evaluations % 1024 == 0:
            if time.perf_counter() > self._deadline:
                raise BudgetExhausted(EXHAUSTED_TIME)

    def evaluate(self, genotype) -> int:
        """Charge one evaluation and return the fitness key."""
        self.charge()
        ahead = self._ahead
        if ahead and ahead[-1][0] is genotype:
            return ahead.pop()[1]
        return spectrum_key(self._spectrum(genotype), self.n, self.weights)

    def key_ahead(self, block: np.ndarray) -> list:
        """Key a 2-D block of bitstring or float genotypes, one per row, now.

        Returns the rows.  :meth:`evaluate` called with them in that order
        knows each by identity, charges it and returns its key without a
        product; any other argument, a row out of order included, is keyed
        from scratch.  The block becomes read-only, so a row cannot change
        between its keying and its charge.  Replaces the previous block.
        """
        block.flags.writeable = False
        rows = list(block)
        keys = spectrum_key(self._block_spectra(block), self.n, self.weights)
        self._ahead = list(zip(rows, keys))[::-1]
        return rows

    # -- spectrum algebra ---------------------------------------------------

    def _spectrum(self, genotype) -> np.ndarray:
        """Float32 spectrum ``2**n * [a = 0] + bits @ R`` of a genotype.

        ``2**n`` entries, one per mask, or in the rotation-symmetric space
        ``g``, one per orbit of the mask.
        """
        if self.encoding == "tree":
            genotype = tree_truth_bits(genotype, self.n)
        elif self.encoding == "float":
            genotype = float_bits(genotype, self.decode)
        bits = genotype.astype(np.float32)
        if self.mode == ROTATION:
            # ndarray.dot: about 0.8 us less per call than @ for the g x g
            # products at n = 7 and 9
            spectrum = bits.dot(self._orbit_rows)
        else:
            spectrum = (self._ha @ bits.reshape(len(self._ha), -1) @ self._hb).reshape(-1)
        spectrum[0] += 1 << self.n
        return spectrum

    def _block_spectra(self, block: np.ndarray) -> np.ndarray:
        """:meth:`_spectrum` of each row of a block of bitstring or float genotypes.

        A path of its own: shape-generic indexing in :meth:`_spectrum` cost
        every vector evaluation about half a microsecond.
        """
        count = len(block)
        if self.encoding == "float":
            block = float_bits(block, self.decode).reshape(count, -1)
        bits = block.astype(np.float32)
        if self.mode == ROTATION:
            spectra = bits.dot(self._orbit_rows)
        else:
            tables = bits.reshape(count, len(self._ha), -1)
            spectra = (self._ha @ tables @ self._hb).reshape(count, -1)
        spectra[:, 0] += 1 << self.n
        return spectra

    def _flip_deltas(self, start: int, bits: np.ndarray) -> np.ndarray:
        """Spectrum change of flipping each of ``bits``, genotype positions
        ``start, start + 1, ...``: one row ``(1 - 2 * bit_j) * R_j`` per bit."""
        scale = (1 - 2 * bits.astype(np.float32))[:, None]
        if self.mode == ROTATION:
            return self._orbit_rows[start:start + len(bits)] * scale
        hi, lo = divmod(np.arange(start, start + len(bits)), len(self._hb))
        rows = (self._ha[hi] * scale)[:, :, None] * self._hb[lo][:, None, :]
        return rows.reshape(len(bits), -1)


class BitFlipSession:
    """Incremental re-evaluation of single-bit flips of a bitstring genotype.

    Flipping genotype bit ``j`` moves the spectrum by ``(1 - 2 * bit_j) * R_j``
    (see the module docstring), so a flip needs one vector update instead of
    a full transform.  A probe that
    misses the current block forms the candidate spectra of its position and
    the next ones, up to :data:`BLOCK_ELEMENTS` floats, in one broadcast and
    keys them all with one :func:`spectrum_key` call; the next probes in the
    block are list lookups.  A commit moves the spectrum by the committed
    row alone and drops the block.  Every probe, looked up or not, charges
    the evaluator exactly like a full evaluation; the setup recomputes the
    incumbent's spectrum without charging because its fitness is already
    known.
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
        self.spectrum = evaluator._spectrum(self.bits)
        self.key = spectrum_key(self.spectrum, evaluator.n, evaluator.weights)
        # keys of flipping positions _block_start, _block_start + 1, ...
        self._block_start = 0
        self._block_keys: list[int] = []
        # (position, key) of the last probed flip
        self._pending: tuple[int, int] | None = None

    def try_flip(self, position: int) -> int:
        """Probe flipping one bit and return its key; charges one evaluation."""
        length = len(self.bits)
        if type(position) is not int or not 0 <= position < length:
            raise ValueError(f"flip position must be an int in 0..{length - 1}, got {position!r}")
        self.evaluator.charge()
        offset = position - self._block_start
        if not 0 <= offset < len(self._block_keys):
            bits = self.bits[position:position + self.evaluator.block_rows]
            block = self.evaluator._flip_deltas(position, bits)
            block += self.spectrum
            self._block_start = position
            self._block_keys = spectrum_key(block, self.evaluator.n, self.evaluator.weights)
            offset = 0
        key = self._block_keys[offset]
        self._pending = (position, key)
        return key

    def commit(self) -> None:
        """Adopt the most recently probed flip."""
        if self._pending is None:
            raise RuntimeError("no probed flip to commit")
        position, self.key = self._pending
        self.spectrum += self.evaluator._flip_deltas(position, self.bits[position:position + 1])[0]
        self.bits[position] ^= 1
        self._pending = None
        self._block_keys = []
