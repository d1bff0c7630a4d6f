"""Core truth-table and Walsh-spectrum behaviour against slow oracles."""

import math

import numpy as np
import pytest
from oracles import (
    affine_tables,
    batch_walsh_by_matrix,
    bits_from_hex_per_digit,
    bits_to_hex_per_digit,
    naive_walsh,
    nonlinearity_by_distance,
)

from boolevo.orbits import compute_orbits, expand
from boolevo.truthtable import (
    BEST_KNOWN_NONLINEARITY,
    NonlinearityBounds,
    PropertyReport,
    TruthTable,
    WalshSpectrum,
    balancedness,
    bits_from_hex,
    bits_to_hex,
    bounds,
    check_int,
    covering_radius_bound,
    fitness,
    hadamard_transform,
    nonlinearity,
    odd_upper_bound,
    property_report,
    quadratic_bound,
    spectrum_key,
    walsh_transform,
)


def random_table(n, rng):
    return TruthTable(n, rng.integers(0, 2, 1 << n, dtype=np.uint8))


def test_truth_table_validation():
    TruthTable(1, [0, 1])
    with pytest.raises(ValueError):
        TruthTable(0, [])
    with pytest.raises(ValueError):
        TruthTable(17, np.zeros(1 << 17, dtype=np.uint8))
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 1])  # wrong length
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 2, 0])  # not a bit
    with pytest.raises(ValueError, match="0 or 1"):
        TruthTable(3, [0.7] * 8)  # compared before the cast, not read as 0
    # a numpy int is a library n, but a float, string or bool is no n at all
    assert TruthTable(np.int64(1), [0, 1]).n == 1
    for bad in (1.0, "1", True):
        with pytest.raises(TypeError, match="^number of variables must be an int, got "):
            TruthTable(bad, [0, 1])


def test_truth_table_equality_and_hash():
    table = TruthTable(2, [0, 1, 1, 0])
    assert table == TruthTable(2, np.array([0, 1, 1, 0], dtype=np.uint8))
    assert table != TruthTable(2, [1, 0, 0, 1]) and table != TruthTable(3, [0, 1, 1, 0] * 2)
    assert table.__eq__("0110") is NotImplemented and table != "0110"
    assert len({table, TruthTable(2, [0, 1, 1, 0]), TruthTable(2, [1, 0, 0, 1])}) == 2


@pytest.mark.parametrize(
    "value,maximum,message",
    [
        (0, None, "^x must be an integer of at least 1, got 0$"),
        (True, None, "^x must be an integer of at least 1, got True$"),
        (np.int64(2), None, "^x must be an integer of at least 1, got "),
        (1.0, None, "^x must be an integer of at least 1, got 1.0$"),
        ("2", 3, "^x must be an integer in 1..3, got '2'$"),
        (4, 3, "^x must be an integer in 1..3, got 4$"),
    ],
)
def test_check_int_refuses_with_one_line(value, maximum, message):
    check_int("x", 1, 1, maximum)
    check_int("x", 3, 1, 3)
    with pytest.raises(ValueError, match=message):
        check_int("x", value, 1, maximum)


def test_truth_table_is_immutable():
    tt = TruthTable(2, [0, 1, 1, 0])
    with pytest.raises(ValueError):
        tt.bits[0] = 1


def test_index_convention_first_variable_is_msb():
    # f = x1 on two variables: rows 10 and 11 are the ones with x1 = 1
    tt = TruthTable(2, [0, 0, 1, 1])
    spec = walsh_transform(tt)
    # perfectly correlated with the linear function a = 10 -> W = 2^n at a=2
    assert spec.values[2] == 4
    assert nonlinearity(spec) == 0


def test_walsh_known_value_two_variable_and():
    # AND truth table 0001 has spectrum [2, 2, 2, -2]
    spec = walsh_transform(TruthTable(2, [0, 0, 0, 1]))
    assert spec.values.tolist() == [2, 2, 2, -2]
    assert nonlinearity(spec) == 1


def test_walsh_matches_naive_oracle_small_n():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for _ in range(8):
            tt = random_table(n, rng)
            assert walsh_transform(tt).values.tolist() == naive_walsh(tt.bits)


def test_walsh_matches_matrix_oracle_larger_n():
    rng = np.random.default_rng(12)
    for n in range(7, 11):
        rows = rng.integers(0, 2, (10, 1 << n), dtype=np.uint8)
        expected = batch_walsh_by_matrix(rows)
        for row, want in zip(rows, expected):
            got = walsh_transform(TruthTable(n, row)).values
            assert np.array_equal(got, want)


def test_parseval_holds_exactly():
    rng = np.random.default_rng(13)
    for n in range(1, 11):
        tt = random_table(n, rng)
        values = walsh_transform(tt).values.astype(np.int64)
        assert int(np.sum(values * values)) == 1 << (2 * n)


def test_hadamard_transform_rejects_bad_length():
    with pytest.raises(ValueError):
        hadamard_transform(np.ones(6))


def test_nonlinearity_matches_affine_distance():
    rng = np.random.default_rng(14)
    for n in range(2, 8):
        affine = affine_tables(n)
        for _ in range(10):
            tt = random_table(n, rng)
            assert nonlinearity(walsh_transform(tt)) == nonlinearity_by_distance(
                tt.bits, affine
            )


def test_balancedness():
    assert balancedness(TruthTable(2, [0, 1, 1, 0])) == (True, 2)
    assert balancedness(TruthTable(2, [0, 0, 0, 1])) == (False, 1)
    tt = TruthTable(3, [0, 1, 1, 0, 1, 0, 0, 1])
    balanced, hw = balancedness(tt)
    assert balanced and hw == 4
    # balanced iff W(0) = 0
    assert walsh_transform(tt).values[0] == 0


def test_fitness_tie_break_never_reaches_next_level():
    rng = np.random.default_rng(15)
    for n in range(2, 9):
        for _ in range(20):
            tt = random_table(n, rng)
            spectrum = walsh_transform(tt)
            mags = [abs(int(w)) for w in spectrum.values]
            count = mags.count(max(mags))
            nl = nonlinearity(spectrum)
            value = fitness(tt)
            assert nl <= value < nl + 1
            assert value == nl + ((1 << n) - count) / (1 << n)
            assert 1 <= count <= 1 << n


def test_fitness_orders_by_nonlinearity_first():
    # bent function x1x2 XOR x3x4 beats anything of nonlinearity 5
    bent = TruthTable.from_hex("111e", 4)
    assert nonlinearity(walsh_transform(bent)) == 6
    rng = np.random.default_rng(16)
    for _ in range(200):
        tt = random_table(4, rng)
        if nonlinearity(walsh_transform(tt)) < 6:
            assert fitness(tt) < fitness(bent)


def test_weighted_keys_of_orbit_spectra_equal_the_full_keys():
    # a rotation-symmetric spectrum is constant on the rotation orbits of the
    # mask, so its values at the orbit representatives, each counted with its
    # orbit's size, key all 2**n values
    rng = np.random.default_rng(56)
    for n in range(1, 14):
        orbits = compute_orbits(n)
        reps = orbits.representatives
        sizes = orbits.orbit_sizes.astype(np.float32)
        popcount = np.array([bin(int(r)).count("1") for r in reps])
        tables = [
            np.zeros(len(reps), np.uint8),  # the constant functions: a peak
            np.ones(len(reps), np.uint8),  # at W(0) alone, orbit 0 of size 1
            (popcount > n // 2).astype(np.uint8),  # majority
        ]
        tables += [rng.integers(0, 2, len(reps), dtype=np.uint8) for _ in range(5)]
        spectra = np.array([walsh_transform(expand(orbits, bits)).values for bits in tables])
        want = [spectrum_key(values, n) for values in spectra]
        orbit_spectra = spectra[:, reps].astype(np.float32)
        assert [spectrum_key(values, n, sizes) for values in orbit_spectra] == want
        assert spectrum_key(orbit_spectra, n, sizes) == want
        peaks = np.abs(orbit_spectra) == np.abs(orbit_spectra).max(axis=1, keepdims=True)
        assert peaks[0].nonzero()[0].tolist() == [0]
        if n > 1:
            # majority's peak lies on orbits of different sizes
            assert len(set(orbits.orbit_sizes[peaks[2]].tolist())) > 1


def test_property_report_fields():
    tt = TruthTable(3, [0, 1, 1, 1, 1, 1, 1, 0])
    report = property_report(tt)
    assert isinstance(report, PropertyReport)
    assert report.n == 3
    assert report.nonlinearity == 2
    assert not report.balanced
    assert report.hamming_weight == 6
    assert report.max_abs_walsh == 4
    spec = walsh_transform(tt)
    assert report.num_max_values == int(np.sum(np.abs(spec.values) == 4))
    assert report.fitness == fitness(tt)


# ---------------------------------------------------------------------------
# hex round trip


def test_hex_worked_examples():
    assert TruthTable(2, [0, 1, 1, 0]).to_hex() == "6"
    assert TruthTable(3, [0, 1, 1, 1, 1, 1, 1, 0]).to_hex() == "7e"
    assert TruthTable.from_hex("7e", 3).bits.tolist() == [0, 1, 1, 1, 1, 1, 1, 0]


def test_hex_round_trip_random():
    rng = np.random.default_rng(17)
    for n in range(2, 10):
        tt = random_table(n, rng)
        digits = tt.to_hex()
        assert len(digits) == (1 << n) // 4
        assert digits == digits.lower()
        assert TruthTable.from_hex(digits, n) == tt


def test_hex_rejects_bad_input():
    with pytest.raises(ValueError):
        TruthTable.from_hex("0", 1)
    with pytest.raises(ValueError):
        TruthTable.from_hex("0", 3)  # wrong digit count
    with pytest.raises(ValueError):
        TruthTable.from_hex("0g", 3)
    with pytest.raises(ValueError):
        TruthTable(1, [0, 1]).to_hex()


@pytest.mark.parametrize("length", [4, 8, 12, 128, 2048, 8192])
def test_bits_to_hex_matches_one_digit_per_nibble(length):
    rng = np.random.default_rng(length)
    for bits in (
        rng.integers(0, 2, length, dtype=np.uint8),
        np.zeros(length, dtype=np.uint8),
        np.ones(length, dtype=np.uint8),
    ):
        digits = bits_to_hex(bits)
        assert digits == bits_to_hex_per_digit(bits)
        assert len(digits) == length // 4
        assert np.array_equal(bits_from_hex(digits, length), bits)


@pytest.mark.parametrize("length", [4, 12, 128, 8192])
def test_bits_from_hex_matches_one_nibble_per_digit(length):
    # odd and even digit counts, in lower and upper case
    rng = np.random.default_rng(length + 1)
    digits = "".join(rng.choice(list("0123456789abcdef"), length // 4))
    for text in (digits, digits.upper(), "0" * (length // 4), "F" * (length // 4)):
        bits = bits_from_hex(text, length)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, bits_from_hex_per_digit(text))


@pytest.mark.parametrize("bad", ["\u0663", "\uff11", " ", "g", "+"])
def test_bits_from_hex_rejects_anything_but_ascii_hex_digits(bad):
    # an Arabic-Indic three and a fullwidth one are digits to int(), and
    # fromhex skips a space; none of them is a hex digit of a record
    for digits, length in ((bad * 2, 8), ("0" + bad, 8), (bad + "00", 12), ("0" + bad + "0", 12)):
        with pytest.raises(ValueError, match="invalid hex string"):
            bits_from_hex(digits, length)


def test_bits_hex_helpers_on_non_power_of_two_lengths():
    rng = np.random.default_rng(18)
    bits = rng.integers(0, 2, 60, dtype=np.uint8)
    assert np.array_equal(bits_from_hex(bits_to_hex(bits), 60), bits)
    with pytest.raises(ValueError):
        bits_to_hex(np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError, match="multiple of 4"):
        bits_from_hex("00", 6)


# ---------------------------------------------------------------------------
# bounds


def test_bounds_table_matches_published_values():
    expect = {
        7: (56, 56, 58),
        9: (240, 242, 244),
        11: (992, 996, 1000),
        13: (4032, 4040, 4050),
    }
    for n, (quad, best, upper) in expect.items():
        b = bounds(n)
        assert isinstance(b, NonlinearityBounds)
        assert (b.quadratic, b.best_known, b.upper) == (quad, best, upper)
        assert b.quadratic <= b.best_known <= b.upper


def test_bounds_error_kinds_are_distinguishable():
    with pytest.raises(ValueError):
        bounds(8)  # even
    with pytest.raises(LookupError):
        bounds(15)  # odd but no published record
    with pytest.raises(ValueError):
        bounds(0)


def test_quadratic_bound_formula():
    for n in (3, 5, 7, 9, 11, 13, 15):
        assert quadratic_bound(n) == 2 ** (n - 1) - 2 ** ((n - 1) // 2)
    with pytest.raises(ValueError):
        quadratic_bound(4)


def test_odd_upper_bound_matches_float_formula():
    for n in (3, 5, 7, 9, 11, 13, 15):
        want = 2 * math.floor(2 ** (n - 2) - 2 ** ((n - 4) / 2))
        assert odd_upper_bound(n) == want
    with pytest.raises(ValueError):
        odd_upper_bound(6)


def test_covering_radius_bound_even():
    assert covering_radius_bound(4) == 6
    assert covering_radius_bound(8) == 120
    with pytest.raises(ValueError):
        covering_radius_bound(5)


def test_best_known_keys():
    assert BEST_KNOWN_NONLINEARITY == {7: 56, 9: 242, 11: 996, 13: 4040}


def test_spectrum_validation():
    with pytest.raises(ValueError):
        WalshSpectrum(2, [0, 0, 0])
