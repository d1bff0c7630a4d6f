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
as a chain of Kronecker factors (Fino & Algazi, IEEE Trans. Computers, 1976):
``H_{2^n} = H_{2^m_1} (x) ... (x) H_{2^m_k}`` with ``m_1 + ... + m_k = n``,
so ``R = F_1 (x) ... (x) (-2 * F_k)`` with ``F_i = H_{2^m_i}``.  The chain is
one dense factor up to n = 7, and from n = 8 the fewest factors of at most
``64 x 64`` (:func:`factor_logs`): two up to n = 12 and three from n = 13,
where three factors of at most ``32 x 32`` do a third of the multiplications
of a ``64 x 64`` and a ``128 x 128`` factor.  The product multiplies each
axis of ``g`` cut into a ``2**m_1 x ... x 2**m_k`` table by its factor.

The spectrum of a rotation-symmetric function is constant on the rotation
orbits of the mask (Stanica, Maitra & Clark, FSE 2004), so that space keeps
it in orbit coordinates: one entry per orbit, at the orbit's smallest mask.
There ``R`` is ``A = -2 * P[:, reps]``, one cached ``g x g`` float32 matrix:
the columns of ``-2`` times the orbit sign patterns ``P`` at the ``g`` orbit
representatives.  Orbit 0 is the all-zero mask alone, so ``2**n`` is still
added at index 0, and :func:`spectrum_key` counts the peak with the orbit
sizes as weights, which gives the key of all ``2**n`` Walsh values.

Every path is exact in float32, whose integers round only above ``2**24``.
Each partial sum of any product, after any number of factors and in any
order, adds one ``+-1`` or ``+-2`` term for each input of a subset of the
``2**n`` inputs, so it is at most ``2**(n + 1) <= 2**17`` in magnitude, and
adding ``2**n`` at index 0 gives ``W(0)`` itself; each entry of ``bits @ A``
is the same sum of terms as the full product's column at that orbit's
representative.  Flip rows are rows of the one factor, ``-2 * H_2`` at
n = 1 (entries ``+-2``) or ``A`` (``-2`` times an orbit sign pattern entry,
at most the orbit size ``n``), so at most ``2 * n`` in magnitude, and every
candidate spectrum entry of a :class:`BitFlipSession` flip block is a
Walsh value, at most ``2**n <= 2**16``.  A committed spectrum is such a
candidate row or a product row, both bounded here.  The session's near-peak
keys multiply ``R`` by a two-row block of signs in ``{-1, 0, +1}``: each
entry sums at most ``2**n`` terms of ``+-2``, so it is at most
``2**(n + 1)``; a quarter of it is a multiple of ``1/2``, each count of
entries that rise is at most ``2**n``, and each key's offset from the key
of the old peak at count 0 is at most ``2**(n + 1)``, which is added to
that key in int64.  A weighted count adds the sizes of orbits that hold at
most ``2**n`` masks together, so it is at most ``2**n`` too.  Every
genotype is keyed as a row of one product: a block keyed at once
(:meth:`FitnessEvaluator.key_ahead`) has one row per genotype, and a
genotype keyed alone is a one-row block.  No row's sums take terms from
another row, so the same bound holds row by row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .encodings import (
    DEFAULT_DECODE,
    GENERAL,
    ROTATION,
    check_genotype,
    check_space,
    float_bits,
    target_length,
    tree_truth_bits,  # noqa: F401
    tree_truth_rows,
)
# compute_orbits is called at set-up; orbit_sign_patterns, the reference for
# _orbit_rows, and tree_truth_bits, the one-tree case of tree_truth_rows,
# stay module names here only because benchmarks/tracer.py wraps them
from .orbits import compute_orbits, orbit_sign_patterns, rotate_index  # noqa: F401
from .truthtable import check_int, check_time_limit, hadamard_transform, spectrum_key

EXHAUSTED_EVALUATIONS = "budget"
EXHAUSTED_TIME = "time"
EXHAUSTED_TARGET = "target"


class BudgetExhausted(Exception):
    """Raised to stop a run: its budget or time is spent, or it reached its target."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


#: Most floats in one block of spectra keyed at once (128 KiB of float32):
#: by :meth:`FitnessEvaluator.key_ahead`, for the initial population, an
#: SST block's children, a DE generation and LS1 trials, and by
#: :class:`BitFlipSession`'s flip blocks in the rotation-symmetric space
#: and at n = 1.  That is 64 spectra of ``2**n`` entries at n = 9, 8 at
#: n = 12, 4 at n = 13, and in the rotation-symmetric space, whose spectra
#: have ``g`` entries, one per orbit, 546 at n = 9 and 51 at n = 13.  At
#: n = 13 blocks of twice that size made rotation-symmetric LS2 slower (2.8
#: to 3.1 against 2.1 to 2.2 us a probe) and half of it was no faster, and
#: keying SST children cost 17.3 us a row in blocks of 4, 15.3 in blocks of
#: 8 and 37 in blocks of 16.
BLOCK_ELEMENTS = 1 << 15


#: ``1 - 2 * bit``, the sign of a flip row, indexed by the bit
_FLIP_SIGNS = np.array([1, -1], dtype=np.float32)
#: ``(1 - 2 * bit) / 4``, indexed by the bit
_RISE_SIGNS = _FLIP_SIGNS / 4

#: Log2 of the largest factor of a chain of two or more, ``64 x 64``.  At
#: n = 11 three factors cost a vector product 7.9 us against 6.6 us for
#: two, and at n = 13 two factors of 64 and 128 cost 35 us against 18 us
#: for three.
MAX_FACTOR_LOG = 6

#: Log2 of the largest lone factor, ``128 x 128``.  At n = 7 one dense
#: factor keys a vector in 1.3 us against 2.6 us for two of 8 and 16, and a
#: 4-row block in 1.6 us against 4.4 us.
MAX_LONE_FACTOR_LOG = 7


def factor_logs(n: int) -> tuple[int, ...]:
    """Log2 sizes of the chain's factors, first to last.

    One factor up to ``2**MAX_LONE_FACTOR_LOG``: ``(7,)`` at n = 7.  From
    n = 8 the fewest factors of at most ``2**MAX_FACTOR_LOG``, as even as
    possible, the larger ones last: ``(4, 4)`` at n = 8, ``(6, 6)`` at
    n = 12 and ``(4, 4, 5)`` at n = 13.
    """
    if n <= MAX_LONE_FACTOR_LOG:
        return (n,)
    count = -(-n // MAX_FACTOR_LOG)
    small, larger = divmod(n, count)
    return (small,) * (count - larger) + (small + 1,) * larger


@lru_cache(maxsize=None)
def _hadamard_factor(m: int) -> np.ndarray:
    """Float32 ``H_{2^m}``, built by the reference butterfly."""
    h = hadamard_transform(np.eye(1 << m)).astype(np.float32)
    h.flags.writeable = False
    return h


@lru_cache(maxsize=None)
def _kronecker_factors(n: int) -> tuple[np.ndarray, ...]:
    """Read-only float32 ``F_1, ..., F_{k-1}, -2 * F_k``, the general space's rows ``R``."""
    *factors, last = (_hadamard_factor(m) for m in factor_logs(n))
    last = np.float32(-2) * last
    last.flags.writeable = False
    return (*factors, last)


def _chain_product(factors: tuple[np.ndarray, ...], bits: np.ndarray) -> np.ndarray:
    """Float32 ``bits @ R`` for rows of entries in ``{-1, 0, +1}``, ``R`` the
    Kronecker product of ``k >= 2`` factors.

    Each factor multiplies one axis of the rows cut into a ``k``-axis table:
    the last one from the right, the others from the left, each as one
    matmul broadcast over the leading axes.
    """
    width = len(factors[-1])
    # a float32 block, such as the near-peak signs, is not copied
    rows = bits.astype(np.float32, copy=False)
    product = rows.reshape(-1, len(factors[-2]), width) @ factors[-1]
    for factor in reversed(factors[:-1]):
        product = factor @ product.reshape(-1, len(factor), width)
        width *= len(factor)
    return product.reshape(bits.shape)


def _product(factors: tuple[np.ndarray, ...]):
    """Bind float32 ``bits @ R`` for a block of rows in ``{-1, 0, +1}``: one
    factor's ``.dot``, or :func:`_chain_product` for two or more."""
    if len(factors) == 1:
        (rows,) = factors

        # apart from _chain_product, whose 3-D first matmul took a 16-row
        # block at n = 7 from 6.0 to 16.5 us; ndarray.dot is about 0.8 us
        # less a call than @ for the g x g rotation-symmetric products
        def product(bits):
            return bits.astype(np.float32).dot(rows)

        return product
    return partial(_chain_product, factors)


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
    rows = (-2 * (total * table.orbit_sizes[:, None] // n)).astype(np.float32)
    rows.flags.writeable = False
    return rows


def key_to_fitness(key: int, n: int) -> float:
    return key / (1 << n)


@dataclass(frozen=True)
class Individual:
    """A genotype with its fitness key."""

    genotype: object
    key: int  # exact ranking key, (nl << n) + (2**n - num_max)


class FitnessEvaluator:
    """Maps raw genotypes to fitness keys while enforcing run budgets.

    Raw genotypes are the forms the search loops actually carry: uint8 bit
    arrays for the bitstring encoding, float64 arrays for the float encoding
    and flat preorder token tuples for trees.  Every genotype is keyed as a
    row of one product: a block of them keyed at once, or one keyed alone
    as a one-row block.  They are not re-validated here; one from outside
    the search goes through :func:`~boolevo.encodings.check_genotype` first.
    Every call to :meth:`evaluate` (and every flip probed through
    :class:`BitFlipSession`) charges one evaluation; crossing the budget or
    the wall-clock limit raises :class:`BudgetExhausted`.  Keying a block
    with :meth:`key_ahead` charges nothing: the caller hands each key to
    the :meth:`evaluate` call that charges its genotype.
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
            #: ``R`` as a chain of Kronecker factors: in the rotation-symmetric
            #: space the one ``g x g`` matrix ``A``
            self._factors = (_orbit_rows(n),)
            #: how many Walsh values each spectrum entry stands for, the
            #: orbit sizes in the rotation-symmetric space
            self.weights = compute_orbits(n).orbit_sizes.astype(np.float32)
        else:
            self._factors = _kronecker_factors(n)
            self.weights = None
        # the decode step and the product, bound once, so that a spectrum
        # tests neither the encoding nor the number of factors
        self._product = _product(self._factors)
        if encoding == "float":
            product = self._product
            self._product = lambda rows: product(float_bits(rows, decode).reshape(len(rows), -1))
        elif encoding == "tree":
            product = self._product
            self._product = lambda trees: product(tree_truth_rows(trees, n))
        #: bits in a bitstring genotype for this search space, and entries
        #: in a spectrum: ``2**n``, or ``g`` in the rotation-symmetric space
        self.genotype_length = target_length(n, mode)
        #: most spectra in one block
        self.block_rows = max(1, BLOCK_ELEMENTS // self.genotype_length)

    def charge(self) -> None:
        """Account for one fitness evaluation, or refuse to."""
        if self.budget is not None and self.evaluations >= self.budget:
            raise BudgetExhausted(EXHAUSTED_EVALUATIONS)
        self.evaluations += 1
        if self._deadline is not None and self.evaluations % 1024 == 0:
            if time.perf_counter() > self._deadline:
                raise BudgetExhausted(EXHAUSTED_TIME)

    def evaluate(self, genotype, key: int | None = None) -> int:
        """Charge one evaluation and return the fitness key of ``genotype``.

        ``key`` is the genotype's key from :meth:`key_ahead`, returned as it
        is; without one, the genotype is keyed alone, as a one-row block.
        """
        self.charge()
        if key is not None:
            return key
        block = [genotype] if self.encoding == "tree" else genotype[None]
        return spectrum_key(self._block_spectra(block)[0], self.n, self.weights)

    def key_ahead(self, block) -> list[int]:
        """The keys of a block of genotypes, one per row, in order: a 2-D
        array of bitstring or float genotypes, or a list of trees.

        Charges nothing: each genotype is charged when it is given to
        :meth:`evaluate` with its key.  An array block becomes read-only, so
        a row cannot change between its keying and its charge; trees are
        tuples.
        """
        if self.encoding != "tree":
            block.flags.writeable = False
        return spectrum_key(self._block_spectra(block), self.n, self.weights)

    # -- spectrum algebra ---------------------------------------------------

    def _block_spectra(self, block) -> np.ndarray:
        """Float32 spectra ``2**n * [a = 0] + bits @ R`` of a block of
        genotypes, one row each, as :meth:`key_ahead` takes it.

        ``2**n`` entries a row, one per mask, or in the rotation-symmetric
        space ``g``, one per orbit of the mask.
        """
        spectra = self._product(block)
        spectra[:, 0] += 1 << self.n
        return spectra


class BitFlipSession:
    """Incremental re-evaluation of single-bit flips of a bitstring genotype.

    Flipping genotype bit ``j`` moves the spectrum by ``(1 - 2 * bit_j) * R_j``
    (see the module docstring), so a flip needs no full transform, as in
    Millan, Clark & Dawson's hill climber (SAC 1997).  A probe that finds no
    key ready calls the fill chosen at set-up, which keys a run of flips at
    once; the next probes in the run are list lookups.

    * In the general space from n = 2, the fill keys every position from the
      peak ``P`` alone.  Every Walsh value is congruent to
      ``2**n - 2 * wt(f)`` modulo 4, so every ``|W|`` is congruent to ``P``,
      and a flip moves every value by exactly 2.  Its new peak is ``P + 2``
      if an entry of ``T = {|W| = P}`` rises, counted by the entries of
      ``T`` that rise; otherwise it is ``P - 2``, counted by ``|T|`` and the
      entries of ``N = {|W| = P - 4}`` that rise (a zero entry, in ``N``
      only when ``P = 4``, always rises).  The rises at every position come
      from one product of the two-row block of the signs of ``T`` and ``N``.
    * In the rotation-symmetric space, where a flip moves an orbit entry by
      up to twice the orbit size, and at n = 1, the fill forms the candidate
      spectra of the probed position and the next ones, up to
      :data:`BLOCK_ELEMENTS` floats, in one broadcast and keys them with one
      :func:`spectrum_key` call.

    A commit adopts a copy of the flip's candidate row where a flip block
    keyed it, and otherwise the one-row product of the flipped bits, and
    drops the keys.  Every probe, looked up or not, charges the evaluator
    exactly like a full evaluation; the setup recomputes the incumbent's
    spectrum without charging because its fitness is already known.  Its
    bits go through :func:`~boolevo.encodings.check_genotype`.
    """

    def __init__(self, evaluator: FitnessEvaluator, bits: np.ndarray):
        if evaluator.encoding != "bitstring":
            raise ValueError("bit-flip search needs the bitstring encoding")
        self.evaluator = evaluator
        # a new uint8 array, which commits flip in place
        self.bits = check_genotype(bits, "bitstring", evaluator.n, evaluator.mode)
        self.spectrum = evaluator._block_spectra(self.bits[None])[0]
        self.key = spectrum_key(self.spectrum, evaluator.n, evaluator.weights)
        # the fill, chosen once, so that a probe tests neither the space nor
        # n; the plain function, since a bound method would make the session
        # a reference cycle, which only the garbage collector frees
        if evaluator.mode == ROTATION or evaluator.n == 1:
            self._fill = BitFlipSession._flip_block_keys
        else:
            self._fill = BitFlipSession._near_peak_keys
        # keys of flipping positions _block_start, _block_start + 1, ...
        self._block_start = 0
        self._block_keys: list[int] = []
        # their candidate spectra for a commit to adopt; near-peak keys have none
        self._block: np.ndarray | None = None
        # (position, key) of the last probed flip
        self._pending: tuple[int, int] | None = None

    def try_flip(self, position: int) -> int:
        """Probe flipping one bit and return its key; charges one evaluation."""
        length = len(self.bits)
        # not check_int: this runs once per probe, and a type test and a
        # chained comparison cost less than a call
        if type(position) is not int or not 0 <= position < length:
            raise ValueError(f"flip position must be an int in 0..{length - 1}, got {position!r}")
        self.evaluator.charge()
        offset = position - self._block_start
        if not 0 <= offset < len(self._block_keys):
            self._block_start, self._block_keys = self._fill(self, position)
            offset = position - self._block_start
        key = self._block_keys[offset]
        self._pending = (position, key)
        return key

    def commit(self) -> None:
        """Adopt the most recently probed flip."""
        if self._pending is None:
            raise RuntimeError("no probed flip to commit")
        position, self.key = self._pending
        self.bits[position] ^= 1
        if self._block is None:
            self.spectrum = self.evaluator._block_spectra(self.bits[None])[0]
        else:
            # a copy, so that the session does not keep the whole block alive
            self.spectrum = self._block[position - self._block_start].copy()
        self._pending = self._block = None
        self._block_keys = []

    def _flip_block_keys(self, position: int) -> tuple[int, list[int]]:
        """The keys of flipping ``position`` and the next positions, one
        candidate spectrum each, up to :data:`BLOCK_ELEMENTS` floats."""
        evaluator = self.evaluator
        bits = self.bits[position:position + evaluator.block_rows]
        (rows,) = evaluator._factors
        block = rows[position:position + len(bits)] * _FLIP_SIGNS[bits][:, None]
        block += self.spectrum
        self._block = block
        return position, spectrum_key(block, evaluator.n, evaluator.weights)

    def _near_peak_keys(self, position: int) -> tuple[int, list[int]]:
        """The keys of flipping every position, from position 0 whatever the
        probed position, by the near-peak rule of the class docstring
        (general space, n >= 2)."""
        n = self.evaluator.n
        spectrum = self.spectrum
        mags = np.abs(spectrum)
        peak = int(mags.max())
        near = mags == np.array([[peak], [peak - 4]], dtype=np.float32)  # T and N
        signs = np.sign(spectrum) * near
        sizes = np.count_nonzero(near, axis=1)
        # the entries of T and of N that rise when position j flips: half the
        # nonzero ones, plus a quarter of s_j * (signs @ R)[:, j], plus the zeros
        rises = self.evaluator._product(signs) * _RISE_SIGNS[self.bits]
        rises += (sizes - np.count_nonzero(signs, axis=1) / 2)[:, None]
        offsets = np.where(
            rises[0] > 0,
            -(1 << n) - rises[0],  # peak P + 2, counted by the rises of T
            (1 << n) - sizes[0] - rises[1],  # peak P - 2
        )
        # the key of peak P at count 0; a peak of P + 2 takes 2**n off it
        base = (((1 << (n - 1)) - peak // 2) << n) + (1 << n)
        return 0, (offsets.astype(np.int64) + base).tolist()
