"""Orbits of input vectors under cyclic rotation.

A rotation-symmetric function takes the same value on every cyclic shift of
its input, so it is determined by one bit per orbit.  With the big-endian
index convention of :mod:`boolevo.truthtable`, shifting the input cyclically
(x1..xn -> xn x1..x[n-1]) rotates the index bits right by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .truthtable import (
    MAX_DIMENSION,
    TruthTable,
    _check_bits,
    _check_dimension,
    hadamard_transform,
)


def rotate_index(index: int, n: int) -> int:
    """Row index of the cyclically shifted input."""
    return (index >> 1) | ((index & 1) << (n - 1))


def orbit_count(n: int) -> int:
    """Number of rotation orbits, ``(1/n) * sum_{t|n} phi(t) * 2**(n/t)``."""
    _check_dimension(n)
    total = 0
    for t in range(1, n + 1):
        if n % t == 0:
            phi = sum(1 for k in range(1, t + 1) if math.gcd(k, t) == 1)
            total += phi * (1 << (n // t))
    assert total % n == 0
    return total // n


@dataclass(frozen=True, eq=False)
class OrbitTable:
    """Orbit structure of ``{0,1}**n`` under rotation.

    ``representatives[j]`` is the smallest index in orbit ``j`` and the
    orbits are numbered in increasing order of representative, so orbit 0 is
    always the all-zero input.  ``orbit_of[i]`` maps each index to its orbit
    and ``orbit_sizes[j]`` counts the indices in orbit ``j``.
    """

    n: int
    representatives: np.ndarray
    orbit_of: np.ndarray
    orbit_sizes: np.ndarray

    @property
    def num_orbits(self) -> int:
        return int(self.representatives.shape[0])


@lru_cache(maxsize=None)
def compute_orbits(n: int) -> OrbitTable:
    _check_dimension(n)
    size = 1 << n
    orbit_of = np.full(size, -1, dtype=np.int32)
    representatives = []
    sizes = []
    for start in range(size):
        if orbit_of[start] >= 0:
            continue
        label = len(representatives)
        representatives.append(start)
        count = 0
        value = start
        while orbit_of[value] < 0:
            orbit_of[value] = label
            count += 1
            value = rotate_index(value, n)
        sizes.append(count)
    reps = np.array(representatives, dtype=np.int32)
    sizes_arr = np.array(sizes, dtype=np.int32)
    for arr in (reps, orbit_of, sizes_arr):
        arr.flags.writeable = False
    return OrbitTable(n=n, representatives=reps, orbit_of=orbit_of, orbit_sizes=sizes_arr)


def expand(table: OrbitTable, orbit_bits: np.ndarray) -> TruthTable:
    """Blow one bit per orbit up to a full rotation-symmetric truth table."""
    orbit_bits = _check_bits(orbit_bits, "orbit bits")
    if orbit_bits.shape != (table.num_orbits,):
        raise ValueError(
            f"need {table.num_orbits} orbit bits for n={table.n}, "
            f"got shape {orbit_bits.shape}"
        )
    return TruthTable(table.n, orbit_bits[table.orbit_of])


def orbit_values(table: OrbitTable, truth: TruthTable) -> np.ndarray:
    """Read one bit per orbit back from a rotation-symmetric truth table."""
    if truth.n != table.n:
        raise ValueError(f"dimension mismatch: table n={table.n}, function n={truth.n}")
    return truth.bits[table.representatives].copy()


def is_rotation_symmetric(truth: TruthTable) -> bool:
    """Whether the table is constant on every orbit of :func:`compute_orbits`."""
    table = compute_orbits(truth.n)
    bits = truth.bits
    return bool(np.array_equal(bits, bits[table.representatives][table.orbit_of]))


def orbit_sign_patterns(n: int) -> np.ndarray:
    """Matrix ``P`` with ``P[j, a] = sum over x in orbit j of (-1)**parity(a & x)``.

    For a rotation-symmetric function with orbit signs ``s`` (one per orbit,
    ``+1`` for output 0, ``-1`` for output 1) the Walsh spectrum is ``s @ P``,
    which turns spectrum evaluation into a ``num_orbits x 2**n`` product.
    Each call builds a fresh matrix; the evaluator caches its own float32
    rows, ``-2 * P``.
    """
    table = compute_orbits(n)
    indicator = np.zeros((table.num_orbits, 1 << n), dtype=np.int64)
    indicator[table.orbit_of, np.arange(1 << n)] = 1
    return hadamard_transform(indicator)
