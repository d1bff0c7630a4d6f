"""Rotation-orbit structure against brute-force enumeration."""

import numpy as np
import pytest
from oracles import hadamard_matrix, rotations

from boolevo.orbits import (
    compute_orbits,
    expand,
    is_rotation_symmetric,
    orbit_count,
    orbit_sign_patterns,
    orbit_values,
    rotate_index,
)
from boolevo.truthtable import TruthTable


def test_rotate_index_small_cases():
    # n=3: 0b011 -> 0b101 -> 0b110 -> 0b011
    assert rotate_index(0b011, 3) == 0b101
    assert rotate_index(0b101, 3) == 0b110
    assert rotate_index(0b110, 3) == 0b011
    assert rotate_index(0, 5) == 0
    assert rotate_index(0b11111, 5) == 0b11111


def test_orbit_count_published_values():
    assert {n: orbit_count(n) for n in (7, 9, 11, 13)} == {
        7: 20,
        9: 60,
        11: 188,
        13: 632,
    }
    # small cases by hand: n=1 {0,1}; n=2 {00, 01/10, 11}; n=3 four orbits
    assert [orbit_count(n) for n in (1, 2, 3, 4, 5)] == [2, 3, 4, 6, 8]


def test_orbit_count_agrees_with_enumeration():
    for n in range(1, 14):
        assert compute_orbits(n).num_orbits == orbit_count(n)


def test_orbit_structure_small_n():
    table = compute_orbits(3)
    assert table.representatives.tolist() == [0, 1, 3, 7]
    assert table.orbit_sizes.tolist() == [1, 3, 3, 1]
    # orbit membership matches brute-force rotation closure
    for i in range(8):
        rep = table.representatives[table.orbit_of[i]]
        assert rep == min(rotations(i, 3))


def test_orbits_partition_and_are_rotation_closed():
    for n in (4, 6, 9):
        table = compute_orbits(n)
        assert int(table.orbit_sizes.sum()) == 1 << n
        assert np.all(np.diff(table.representatives) > 0)
        for i in range(1 << n):
            orbit = rotations(i, n)
            labels = {int(table.orbit_of[j]) for j in orbit}
            assert len(labels) == 1
            assert len(orbit) == int(table.orbit_sizes[table.orbit_of[i]])
            assert int(table.representatives[table.orbit_of[i]]) == min(orbit)


def test_expand_worked_example():
    # n=3, one bit per orbit (0, 1, 3, 7) set to 0,1,1,0 -> 01111110
    table = compute_orbits(3)
    tt = expand(table, np.array([0, 1, 1, 0], dtype=np.uint8))
    assert tt.bits.tolist() == [0, 1, 1, 1, 1, 1, 1, 0]
    assert tt.to_hex() == "7e"


def test_expand_round_trip_and_symmetry():
    rng = np.random.default_rng(21)
    for n in (3, 5, 7, 9):
        table = compute_orbits(n)
        for _ in range(10):
            orbit_bits = rng.integers(0, 2, table.num_orbits, dtype=np.uint8)
            tt = expand(table, orbit_bits)
            assert is_rotation_symmetric(tt)
            assert np.array_equal(orbit_values(table, tt), orbit_bits)


def test_expand_validates_length():
    with pytest.raises(ValueError):
        expand(compute_orbits(3), np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError, match="0 or 1"):
        expand(compute_orbits(3), [0.9, 1, 0, 1])  # not read as 0
    with pytest.raises(ValueError, match="^dimension mismatch: table n=3, function n=5$"):
        orbit_values(compute_orbits(3), TruthTable(5, [0] * 32))


def test_is_rotation_symmetric_negative():
    tt = TruthTable(3, [0, 1, 0, 0, 0, 0, 0, 0])  # f true only on 001
    assert not is_rotation_symmetric(tt)
    rng = np.random.default_rng(22)
    hits = sum(
        is_rotation_symmetric(TruthTable(7, rng.integers(0, 2, 128, dtype=np.uint8)))
        for _ in range(50)
    )
    assert hits == 0  # random 128-bit tables are essentially never symmetric


def test_orbit_sign_patterns_definition():
    for n in (2, 3, 5, 8):
        table = compute_orbits(n)
        patterns = orbit_sign_patterns(n)
        assert patterns.shape == (table.num_orbits, 1 << n)
        h = hadamard_matrix(n)
        for j in range(table.num_orbits):
            members = np.flatnonzero(np.asarray(table.orbit_of) == j)
            expected = h[:, members].sum(axis=1)
            assert np.array_equal(patterns[j], expected)


def test_orbit_sign_patterns_give_walsh_spectrum():
    from boolevo.truthtable import walsh_transform

    rng = np.random.default_rng(23)
    for n in (3, 5, 7, 9):
        table = compute_orbits(n)
        patterns = orbit_sign_patterns(n)
        for _ in range(5):
            orbit_bits = rng.integers(0, 2, table.num_orbits, dtype=np.int64)
            spectrum = (1 - 2 * orbit_bits) @ patterns
            tt = expand(table, orbit_bits.astype(np.uint8))
            assert np.array_equal(spectrum, walsh_transform(tt).values)
