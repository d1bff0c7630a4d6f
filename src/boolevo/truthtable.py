"""Truth tables, Walsh spectra and nonlinearity bounds for Boolean functions.

Conventions used throughout the package:

* A function of ``n`` variables is stored as its output column: a vector of
  ``2**n`` bits.  Row ``i`` holds ``f(x)`` where ``x`` is the big-endian
  ``n``-bit expansion of ``i``, i.e. the first variable is the most
  significant bit of the row index.
* The Walsh value at ``a`` is ``W(a) = sum_x (-1)**(f(x) ^ (a & x parity))``,
  so ``W(0) = 2**n - 2*weight(f)`` and a balanced function has ``W(0) = 0``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

MAX_DIMENSION = 16

_HEX_DIGITS = re.compile("[0-9a-fA-F]*")

#: Largest verified nonlinearity of an n-variable function, for the odd
#: dimensions this package targets.
BEST_KNOWN_NONLINEARITY = {7: 56, 9: 242, 11: 996, 13: 4040}


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


def check_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Raise a one-line error unless ``value`` is an int of at least
    ``minimum`` and at most ``maximum``, if given.  A bool or numpy int
    would echo into a run record as true or as a value json cannot write."""
    top = math.inf if maximum is None else maximum
    if isinstance(value, bool) or not isinstance(value, int) or not minimum <= value <= top:
        bound = f"of at least {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_dimension(n: int) -> None:
    # not check_int: a library n never reaches a record, so numpy ints pass
    # here, and a non-integer is a TypeError
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise TypeError(f"number of variables must be an int, got {n!r}")
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"number of variables must be in 1..{MAX_DIMENSION}, got {n}")


def _check_bits(values, what: str) -> np.ndarray:
    """uint8 copy of 0/1 entries, compared before the cast so that 0.7 is no bit."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be numbers")
    if not ((values == 0) | (values == 1)).all():
        raise ValueError(f"{what} must be 0 or 1")
    return values.astype(np.uint8)


def bits_to_hex(bits: np.ndarray) -> str:
    """Encode a bit vector whose length is a multiple of 4 as lowercase hex.

    Digit ``k`` covers positions ``4k..4k+3``; the most significant bit of
    each digit is the lowest position, so the string reads left to right in
    index order.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or bits.size % 4 != 0:
        raise ValueError("bit vector length must be a multiple of 4")
    # packbits puts each position's bit high first, so a byte's two hex
    # digits are its two nibbles in index order; a last half byte pads with 0
    return np.packbits(bits).tobytes().hex()[: bits.size // 4]


def bits_from_hex(digits: str, length: int) -> np.ndarray:
    """Decode the hex form produced by :func:`bits_to_hex` back to bits."""
    if length % 4 != 0:
        raise ValueError("bit vector length must be a multiple of 4")
    if len(digits) != length // 4:
        raise ValueError(
            f"expected {length // 4} hex digits for {length} bits, got {len(digits)}"
        )
    # ASCII digits alone: int() would take any Unicode digit, and fromhex
    # would skip whitespace that unpackbits then pads with zero bits
    if _HEX_DIGITS.fullmatch(digits) is None:
        raise ValueError(f"invalid hex string: {digits!r}")
    # an odd digit count pads the last byte with a zero nibble
    data = bytes.fromhex(digits + "0" * (len(digits) % 2))
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=length)


@dataclass(frozen=True, eq=False)
class TruthTable:
    """Immutable output column of an ``n``-variable Boolean function."""

    n: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        bits = _check_bits(self.bits, "truth table entries")
        if bits.shape != (1 << self.n,):
            raise ValueError(
                f"truth table for n={self.n} needs {1 << self.n} bits, "
                f"got shape {bits.shape}"
            )
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_hex(cls, digits: str, n: int) -> "TruthTable":
        _check_dimension(n)
        if n < 2:
            raise ValueError("hex form requires at least 2 variables")
        return cls(n, bits_from_hex(digits, 1 << n))

    def to_hex(self) -> str:
        if self.n < 2:
            raise ValueError("hex form requires at least 2 variables")
        return bits_to_hex(self.bits)

    def weight(self) -> int:
        """Hamming weight: number of inputs mapped to 1."""
        return int(self.bits.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((self.n, self.bits.tobytes()))


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """All ``2**n`` Walsh values of a function, indexed by the mask ``a``."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        values = np.array(self.values, dtype=np.int32, copy=True)
        if values.shape != (1 << self.n,):
            raise ValueError(
                f"spectrum for n={self.n} needs {1 << self.n} values, "
                f"got shape {values.shape}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def hadamard_transform(values: np.ndarray) -> np.ndarray:
    """Apply the unnormalised Hadamard butterfly along the last axis.

    The input length must be a power of two.  Output row ``a`` equals
    ``sum_x (-1)**parity(a & x) * values[x]``.
    """
    work = np.array(values, dtype=np.int64, copy=True)
    size = work.shape[-1]
    if size & (size - 1):
        raise ValueError("transform length must be a power of two")
    half = 1
    while half < size:
        work = work.reshape(work.shape[:-1] + (-1, 2, half))
        top = work[..., 0, :].copy()
        work[..., 0, :] += work[..., 1, :]
        work[..., 1, :] = top - work[..., 1, :]
        work = work.reshape(work.shape[:-3] + (size,))
        half *= 2
    return work


def walsh_transform(table: TruthTable) -> WalshSpectrum:
    """Walsh spectrum of a truth table via the fast butterfly."""
    signs = 1 - 2 * table.bits.astype(np.int64)
    return WalshSpectrum(table.n, hadamard_transform(signs))


def spectrum_key(spectrum: np.ndarray, n: int, weights: np.ndarray | None = None):
    """Exact fitness key of Walsh values, keyed along the last axis.

    The key is ``(nl << n) + (2**n - count)``, where ``count`` is how often
    the peak ``max |W| = 2**n - 2 * nl`` occurs.  The second term rewards
    spectra whose extreme value occurs rarely; it is always in
    ``0..2**n - 1``, so it can never lift the key past the next
    nonlinearity level: ``nl == key >> n`` and the fitness is ``key / 2**n``.

    ``weights``, if given, says how many Walsh values each entry stands
    for, and ``count`` is the weighted count ``(|W| == peak) @ weights``.
    A rotation-symmetric spectrum kept as one value per rotation orbit of
    the mask is keyed with the orbit sizes as weights.  A weighted count is
    at most ``2**n <= 2**16``, exact in float32.

    A vector of Walsh values gives one int; a 2-D block of spectra, one per
    row, gives a list with the key of each row.
    """
    mags = np.abs(spectrum)
    peaks = np.maximum.reduce(mags, axis=-1, keepdims=True)
    hits = mags == peaks
    if weights is None:
        counts = np.add.reduce(hits, axis=-1, dtype=np.int32)
    else:
        counts = (hits @ weights).astype(np.int32)
    nls = (1 << (n - 1)) - peaks[..., 0].astype(np.int64) // 2
    return ((nls << n) + ((1 << n) - counts)).tolist()


def nonlinearity(spectrum: WalshSpectrum) -> int:
    """Minimum Hamming distance to the affine functions."""
    return spectrum_key(spectrum.values, spectrum.n) >> spectrum.n


def fitness(table: TruthTable) -> float:
    """Nonlinearity plus the tie-break of :func:`spectrum_key`, as ``key / 2**n``."""
    return spectrum_key(walsh_transform(table).values, table.n) / (1 << table.n)


def balancedness(table: TruthTable) -> tuple[bool, int]:
    """Return ``(is balanced, Hamming weight)``."""
    hw = table.weight()
    return hw == 1 << (table.n - 1), hw


@dataclass(frozen=True)
class PropertyReport:
    """Cryptographic summary of one Boolean function."""

    n: int
    nonlinearity: int
    balanced: bool
    hamming_weight: int
    max_abs_walsh: int
    num_max_values: int
    fitness: float


def property_report(table: TruthTable) -> PropertyReport:
    size = 1 << table.n
    key = spectrum_key(walsh_transform(table).values, table.n)
    nl = key >> table.n
    balanced, hw = balancedness(table)
    return PropertyReport(
        n=table.n,
        nonlinearity=nl,
        balanced=balanced,
        hamming_weight=hw,
        max_abs_walsh=size - 2 * nl,
        num_max_values=size - key % size,
        fitness=key / size,
    )


def quadratic_bound(n: int) -> int:
    """Nonlinearity reached by quadratic functions in odd dimension."""
    _check_dimension(n)
    if n % 2 == 0:
        raise ValueError(f"quadratic bound is defined here for odd n, got {n}")
    return (1 << (n - 1)) - (1 << ((n - 1) // 2))


def covering_radius_bound(n: int) -> int:
    """Tight upper bound ``2**(n-1) - 2**(n/2-1)`` for even dimension (bent)."""
    _check_dimension(n)
    if n % 2 != 0:
        raise ValueError(f"covering radius bound is an integer only for even n, got {n}")
    return (1 << (n - 1)) - (1 << (n // 2 - 1))


def odd_upper_bound(n: int) -> int:
    """Best general upper bound for odd dimension.

    Equals ``2 * floor(2**(n-2) - 2**((n-4)/2))``.  Because ``2**n`` is not a
    perfect square for odd ``n``, the floor can be taken exactly with integer
    square roots: ``floor(2**(n-2) - sqrt(2**(n-4))) = (2**n - isqrt(2**n) - 1) // 4``.
    """
    _check_dimension(n)
    if n % 2 == 0:
        raise ValueError(f"odd-dimension upper bound needs odd n, got {n}")
    if n == 1:
        return 0
    return 2 * (((1 << n) - math.isqrt(1 << n) - 1) // 4)


@dataclass(frozen=True)
class NonlinearityBounds:
    """Quadratic lower bound, best published value, and general upper bound."""

    n: int
    quadratic: int
    best_known: int
    upper: int


def bounds(n: int) -> NonlinearityBounds:
    """Bounds triple for one of the odd dimensions with a published record.

    Raises ``ValueError`` for an even or out-of-range ``n`` and
    ``LookupError`` for an odd ``n`` without a published best value, so the
    two failure modes stay distinguishable.
    """
    _check_dimension(n)
    if n % 2 == 0:
        raise ValueError(f"bounds table covers odd dimensions only, got {n}")
    if n not in BEST_KNOWN_NONLINEARITY:
        raise LookupError(f"no published best nonlinearity for n={n}")
    return NonlinearityBounds(
        n=n,
        quadratic=quadratic_bound(n),
        best_known=BEST_KNOWN_NONLINEARITY[n],
        upper=odd_upper_bound(n),
    )
