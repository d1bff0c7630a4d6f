"""Fast evaluation paths must agree bit-for-bit with the reference transform,
and budgets must be enforced exactly."""

import gc
import weakref
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from oracles import nonlinearity_by_distance, tree_table_pointwise

import boolevo.evaluation as evaluation
from boolevo.draws import Draws
from boolevo.encodings import (
    ROTATION,
    float_bits,
    genotype_table,
    random_genotype,
    random_tree,
    tree_truth_bits,
)
from boolevo.evaluation import (
    BLOCK_ELEMENTS,
    BitFlipSession,
    BudgetExhausted,
    FitnessEvaluator,
    Individual,
    key_to_fitness,
    spectrum_key,
)
from boolevo.orbits import compute_orbits, expand, orbit_sign_patterns
from boolevo.truthtable import TruthTable, fitness, hadamard_transform, walsh_transform


def reference_key(bits, n):
    mags = [abs(int(w)) for w in walsh_transform(TruthTable(n, bits)).values]
    peak = max(mags)
    nl = (1 << (n - 1)) - peak // 2
    return (nl << n) + ((1 << n) - mags.count(peak))


def test_spectrum_key_matches_reference_profile():
    rng = np.random.default_rng(41)
    for n in range(2, 10):
        for _ in range(10):
            bits = rng.integers(0, 2, 1 << n, dtype=np.uint8)
            spec = walsh_transform(TruthTable(n, bits)).values
            key = spectrum_key(spec.astype(np.float64), n)
            assert key == reference_key(bits, n)
            assert key_to_fitness(key, n) == fitness(TruthTable(n, bits))


def test_spectrum_key_keys_each_row_of_a_block():
    rng = np.random.default_rng(42)
    for n in (1, 2, 5, 9):
        tables = rng.integers(0, 2, (6, 1 << n), dtype=np.uint8)
        tables[0] = 0  # a single peak, at W(0) = 2**n
        block = np.array([walsh_transform(TruthTable(n, t)).values for t in tables])
        # int32 as walsh_transform gives it, int64, and float32 as the evaluator does
        for dtype in (np.int32, np.int64, np.float32):
            keys = spectrum_key(block.astype(dtype), n)
            assert keys == [reference_key(t, n) for t in tables]
            assert all(type(key) is int for key in keys)
            for spectrum, key in zip(block.astype(dtype), keys):
                assert type(spectrum_key(spectrum, n)) is int
                assert spectrum_key(spectrum, n) == key
    # the weighted key of RS spectra in orbit coordinates, a vector and a block alike
    for n in (1, 3, 9):
        table = compute_orbits(n)
        weights = table.orbit_sizes.astype(np.float32)
        orbit_tables = rng.integers(0, 2, (6, table.num_orbits), dtype=np.uint8)
        orbit_tables[0] = 0
        truths = [expand(table, t) for t in orbit_tables]
        block = np.array([walsh_transform(t).values[table.representatives] for t in truths])
        for dtype in (np.int32, np.float32):
            keys = spectrum_key(block.astype(dtype), n, weights)
            assert keys == [reference_key(t.bits, n) for t in truths]
            assert all(type(key) is int for key in keys)
            for spectrum, key in zip(block.astype(dtype), keys):
                assert type(spectrum_key(spectrum, n, weights)) is int
                assert spectrum_key(spectrum, n, weights) == key


def test_factor_chain_rule():
    for n in range(1, 17):
        logs = evaluation.factor_logs(n)
        factors = evaluation._kronecker_factors(n)
        # one factor up to 128 x 128; from n = 8 the fewest factors of at
        # most 64 x 64, as even as possible, larger last
        assert sum(logs) == n
        if n <= evaluation.MAX_LONE_FACTOR_LOG == 7:
            assert logs == (n,)
        else:
            assert max(logs) <= evaluation.MAX_FACTOR_LOG == 6
            assert (len(logs) - 1) * 6 < n
            assert list(logs) == sorted(logs) and logs[-1] - logs[0] <= 1
        assert [f.shape for f in factors] == [(1 << m, 1 << m) for m in logs]
        # only the last is scaled by -2, and none can be written
        for factor, m in zip(factors, logs):
            hadamard = hadamard_transform(np.eye(1 << m, dtype=np.int64))
            scale = -2 if factor is factors[-1] else 1
            assert factor.dtype == np.float32 and not factor.flags.writeable
            np.testing.assert_array_equal(factor, scale * hadamard)
    assert [evaluation.factor_logs(n) for n in (1, 6, 7, 8, 11, 12, 13, 14, 16)] == [
        (1,), (6,), (7,), (4, 4), (5, 6), (6, 6), (4, 4, 5), (4, 5, 5), (5, 5, 6)
    ]
    # the chain's Kronecker product is R = -2 * H_{2^n}
    for n in (1, 5, 7, 9):
        product = np.ones((1, 1))
        for factor in evaluation._kronecker_factors(n):
            product = np.kron(product, factor)
        want = -2 * hadamard_transform(np.eye(1 << n, dtype=np.int64))
        np.testing.assert_array_equal(product, want)


@pytest.mark.parametrize("n", [1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16])
def test_factor_chain_keys_equal_the_reference(n):
    # one, two and three factors on the one-row, keyed-ahead block and
    # flip-plus-commit paths, each against the reference transform
    ev = FitnessEvaluator(n, "bitstring")
    size = 1 << n
    rng = np.random.default_rng(54)
    tables = np.array(
        [np.zeros(size), np.ones(size)] + [rng.integers(0, 2, size) for _ in range(2)],
        dtype=np.uint8,
    )
    want = [walsh_transform(TruthTable(n, bits)).values for bits in tables]
    for bits, values in zip(tables, want):
        assert np.array_equal(ev._block_spectra(bits[None])[0].astype(np.int64), values)
    assert np.array_equal(ev._block_spectra(tables).astype(np.int64), np.array(want))
    keys = [reference_key(bits, n) for bits in tables]
    assert ev.key_ahead(tables.copy()) == keys
    bits = tables[-1].copy()
    session = BitFlipSession(ev, bits)
    for position in sorted({0, 1, size // 3, size - 1}):
        assert session.try_flip(position) == flipped_key(bits, position, n)
        session.commit()
        bits[position] ^= 1
        want = walsh_transform(TruthTable(n, bits)).values
        assert np.array_equal(session.spectrum.astype(np.int64), want)
        assert session.key == reference_key(bits, n)


def test_general_bitstring_path_exact():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 7, 11, 12, 13, 16):
        ev = FitnessEvaluator(n, "bitstring")
        size = 1 << n
        # the constant functions put W(0) = +-2**n, the one entry that the
        # kernel's 2**n correction touches
        tables = [np.zeros(size, dtype=np.uint8), np.ones(size, dtype=np.uint8)]
        tables += [rng.integers(0, 2, size, dtype=np.uint8) for _ in range(5)]
        for bits in tables:
            got = np.asarray(ev._block_spectra(bits[None])[0], dtype=np.int64)
            want = walsh_transform(TruthTable(n, bits)).values
            assert np.array_equal(got, want)


def test_rotation_bitstring_path_exact():
    # the spectrum is in orbit coordinates: the Walsh value at each orbit's
    # representative mask
    rng = np.random.default_rng(43)
    for n in (1, 2, 3, 7, 9, 11, 13):
        table = compute_orbits(n)
        ev = FitnessEvaluator(n, "bitstring", ROTATION)
        assert ev.genotype_length == table.num_orbits
        # the constant functions put W(0) = +-2**n, the one entry that the
        # 2**n correction touches
        tables = [np.zeros(table.num_orbits, np.uint8), np.ones(table.num_orbits, np.uint8)]
        tables += [rng.integers(0, 2, table.num_orbits, dtype=np.uint8) for _ in range(5)]
        for orbit_bits in tables:
            got = np.asarray(ev._block_spectra(orbit_bits[None])[0], dtype=np.int64)
            want = walsh_transform(expand(table, orbit_bits)).values
            assert np.array_equal(got, want[table.representatives])
            assert ev.evaluate(orbit_bits) == reference_key(expand(table, orbit_bits).bits, n)


def test_orbit_rows_equal_the_sign_pattern_reference():
    for n in range(1, 14):
        reps = compute_orbits(n).representatives
        rows = evaluation._orbit_rows(n)
        assert rows.shape == (len(reps), len(reps))
        assert rows.dtype == np.float32
        np.testing.assert_array_equal(rows, -2 * orbit_sign_patterns(n)[:, reps])


def test_rotation_setup_builds_no_sign_patterns(monkeypatch):
    def refuse(n):
        raise AssertionError("set-up built the int64 sign patterns")

    monkeypatch.setattr(evaluation, "orbit_sign_patterns", refuse)
    monkeypatch.setattr("boolevo.orbits.orbit_sign_patterns", refuse)
    evaluation._orbit_rows.cache_clear()
    try:
        ev = FitnessEvaluator(9, "bitstring", ROTATION)
        bits = random_genotype("bitstring", 9, Draws(6), mode=ROTATION)
        want = reference_key(genotype_table(bits, "bitstring", 9, ROTATION).bits, 9)
        assert ev.evaluate(bits) == want
    finally:
        evaluation._orbit_rows.cache_clear()


def test_float_path_exact():
    rng = np.random.default_rng(44)
    for n, decode, mode in ((4, 2, "general"), (7, 4, ROTATION), (9, 4, ROTATION)):
        ev = FitnessEvaluator(n, "float", mode, decode=decode)
        target = compute_orbits(n).num_orbits if mode == ROTATION else 1 << n
        for _ in range(5):
            values = rng.random(target // decode)
            bits = float_bits(values, decode)
            if mode == ROTATION:
                truth = expand(compute_orbits(n), bits)
                want = walsh_transform(truth).values[compute_orbits(n).representatives]
            else:
                truth = TruthTable(n, bits)
                want = walsh_transform(truth).values
            got = np.asarray(ev._block_spectra(values[None])[0], dtype=np.int64)
            assert np.array_equal(got, want)
            assert ev.evaluate(values) == reference_key(truth.bits, n)


def test_tree_path_exact():
    rng = Draws(45)
    ev = FitnessEvaluator(5, "tree")
    for _ in range(20):
        tree = random_tree(5, rng, max_depth=5)
        got = np.asarray(ev._block_spectra([tree])[0], dtype=np.int64)
        want = walsh_transform(TruthTable(5, tree_truth_bits(tree, 5))).values
        assert np.array_equal(got, want)


def test_evaluate_returns_the_key():
    ev = FitnessEvaluator(3, "bitstring")
    bits = np.array([0, 1, 1, 1, 1, 1, 1, 0], dtype=np.uint8)
    key = ev.evaluate(bits)
    assert key == reference_key(bits, 3)
    assert key >> 3 == nonlinearity_by_distance(bits)
    assert ev.evaluations == 1


def test_evaluator_rejects_bad_setup():
    with pytest.raises(ValueError):
        FitnessEvaluator(3, "matrix")
    with pytest.raises(ValueError):
        FitnessEvaluator(3, "tree", ROTATION)
    with pytest.raises(ValueError):
        FitnessEvaluator(3, "bitstring", "weird")
    # a decode that cannot tile the space fails here, not at the first evaluate
    with pytest.raises(ValueError, match="decode=3 does not divide"):
        FitnessEvaluator(7, "float", decode=3)
    with pytest.raises(ValueError, match="decode=4 does not divide the rs target"):
        FitnessEvaluator(4, "float", ROTATION)  # 6 orbits
    # a NaN or infinite deadline would never pass; an int past the largest
    # float would overflow the deadline's sum
    for limit in (float("nan"), float("inf"), 0, 10**400):
        with pytest.raises(ValueError, match="time limit must be a positive finite number"):
            FitnessEvaluator(5, "bitstring", time_limit=limit)
    # a NaN budget would never be reached
    for budget in (float("nan"), 10.5, 100.0, -1, True):
        with pytest.raises(ValueError, match="budget must be an integer of at least 0"):
            FitnessEvaluator(5, "bitstring", budget=budget)


def test_budget_enforced_exactly():
    ev = FitnessEvaluator(4, "bitstring", budget=5)
    bits = np.zeros(16, dtype=np.uint8)
    for _ in range(5):
        ev.evaluate(bits)
    with pytest.raises(BudgetExhausted) as info:
        ev.evaluate(bits)
    assert info.value.reason == "budget"
    assert ev.evaluations == 5  # the refused evaluation is not counted


def test_time_limit_triggers():
    ev = FitnessEvaluator(4, "bitstring", budget=10_000_000, time_limit=1e-9)
    bits = np.zeros(16, dtype=np.uint8)
    with pytest.raises(BudgetExhausted) as info:
        for _ in range(5000):
            ev.evaluate(bits)
    assert info.value.reason == "time"


def flipped_key(bits, position, n, mode="general"):
    """Fresh key of the table with one genotype bit flipped, by the reference transform."""
    flipped = bits.copy()
    flipped[position] ^= 1
    if mode == ROTATION:
        flipped = expand(compute_orbits(n), flipped).bits
    return reference_key(flipped, n)


def test_bitflip_session_matches_full_reevaluation():
    rng = np.random.default_rng(46)
    for n, mode in (
        (5, "general"), (9, "general"), (12, "general"), (7, ROTATION), (9, ROTATION)
    ):
        ev = FitnessEvaluator(n, "bitstring", mode)
        length = ev.genotype_length
        bits = rng.integers(0, 2, length, dtype=np.uint8)
        session = BitFlipSession(ev, bits)
        reference = bits.copy()
        for _ in range(60):
            j = int(rng.integers(length))
            probe_key = session.try_flip(j)
            want = flipped_key(reference, j, n, mode)
            assert probe_key == want
            if rng.random() < 0.5:
                session.commit()
                reference[j] ^= 1
                assert session.key == want
        assert np.array_equal(session.bits, reference)


def test_bitflip_session_charges_budget():
    ev = FitnessEvaluator(4, "bitstring", budget=3)
    session = BitFlipSession(ev, np.zeros(16, dtype=np.uint8))
    assert ev.evaluations == 0  # setup is free: the incumbent is already scored
    session.try_flip(0)
    session.try_flip(1)
    session.try_flip(2)
    with pytest.raises(BudgetExhausted):
        session.try_flip(3)
    assert ev.evaluations == 3


def test_bitflip_session_rejects_bad_positions_without_charging():
    ev = FitnessEvaluator(5, "bitstring", budget=10)
    session = BitFlipSession(ev, np.zeros(32, dtype=np.uint8))
    for position in (32, -1, 2.0, True, np.int64(3), "3", None):
        with pytest.raises(ValueError, match=r"flip position must be an int in 0\.\.31"):
            session.try_flip(position)
    assert ev.evaluations == 0
    assert session.try_flip(31) == flipped_key(session.bits, 31, 5)
    assert ev.evaluations == 1


@pytest.mark.parametrize(
    "n,mode", [(7, "general"), (9, "general"), (9, ROTATION), (12, "general")]
)
def test_bitflip_session_commit_inside_a_block(n, mode):
    ev = FitnessEvaluator(n, "bitstring", mode)
    bits = np.random.default_rng(47).integers(0, 2, ev.genotype_length, dtype=np.uint8)
    session = BitFlipSession(ev, bits)
    middle = min(ev.block_rows, ev.genotype_length) // 2
    for position in range(middle + 1):
        assert session.try_flip(position) == flipped_key(bits, position, n, mode)
    session.commit()
    bits[middle] ^= 1
    assert session.key == reference_key(
        expand(compute_orbits(n), bits).bits if mode == ROTATION else bits, n
    )
    # the probe after a commit sees the committed bit, not the old block
    for position in (middle, middle + 1, 0):
        assert session.try_flip(position) == flipped_key(bits, position, n, mode)
    assert np.array_equal(session.bits, bits)


@pytest.mark.parametrize("n", [11, 13])
def test_rotation_commit_inside_a_later_block_adopts_the_reference_spectrum(n):
    # g = 188 orbits in blocks of 174 at n = 11, and 632 in blocks of 51 at
    # n = 13: each commit is a row of a block that starts past position 0,
    # the second commit at the last position
    table = compute_orbits(n)
    ev = FitnessEvaluator(n, "bitstring", ROTATION)
    length = ev.genotype_length
    bits = np.random.default_rng(57).integers(0, 2, length, dtype=np.uint8)
    session = BitFlipSession(ev, bits)
    for start, position in ((ev.block_rows + 3, ev.block_rows + 10), (length - 5, length - 1)):
        assert session.try_flip(start) == flipped_key(bits, start, n, ROTATION)
        assert session.try_flip(position) == flipped_key(bits, position, n, ROTATION)
        session.commit()
        bits[position] ^= 1
        want = walsh_transform(expand(table, bits)).values[table.representatives]
        assert np.array_equal(session.spectrum.astype(np.int64), want)
        assert session.spectrum.base is None  # a copy of the row, not a view of the block
        for later in (0, start, position - 1, position, length - 2):
            assert session.try_flip(later) == flipped_key(bits, later, n, ROTATION)
    assert np.array_equal(session.bits, bits)


def test_bitflip_session_block_runs_past_the_last_position():
    n = 7
    ev = FitnessEvaluator(n, "bitstring")
    length = ev.genotype_length
    bits = np.random.default_rng(48).integers(0, 2, length, dtype=np.uint8)
    session = BitFlipSession(ev, bits)
    assert ev.block_rows > 3
    for position in (length - 3, length - 2, length - 1, 0, length - 1):
        assert session.try_flip(position) == flipped_key(bits, position, n)


@pytest.mark.parametrize("n,mode", [(8, "general"), (9, ROTATION), (13, "general")])
def test_bitflip_session_random_order_probes(n, mode):
    ev = FitnessEvaluator(n, "bitstring", mode)
    length = ev.genotype_length
    rng = np.random.default_rng(49)
    bits = rng.integers(0, 2, length, dtype=np.uint8)
    session = BitFlipSession(ev, bits)
    for position in rng.integers(0, length, 40).tolist():
        assert session.try_flip(position) == flipped_key(bits, position, n, mode)
    assert ev.evaluations == 40


def test_bitflip_session_budget_runs_out_inside_a_block():
    ev = FitnessEvaluator(9, "bitstring", budget=5)
    bits = np.random.default_rng(50).integers(0, 2, 512, dtype=np.uint8)
    session = BitFlipSession(ev, bits)
    assert ev.block_rows > 5
    for position in range(5):
        assert session.try_flip(position) == flipped_key(bits, position, 9)
    with pytest.raises(BudgetExhausted) as info:
        session.try_flip(5)
    assert info.value.reason == "budget"
    assert ev.evaluations == 5


@pytest.mark.parametrize("n", [12, 13])
def test_bitflip_session_float32_exact_at_large_n(n):
    # every candidate entry is a Walsh value, |W| <= 2**n < 2**24
    ev = FitnessEvaluator(n, "bitstring")
    length = ev.genotype_length
    rng = np.random.default_rng(51)
    for bits in (np.zeros(length, np.uint8), rng.integers(0, 2, length, dtype=np.uint8)):
        session = BitFlipSession(ev, bits)
        assert session.spectrum.dtype == np.float32
        for position in [0, 1, length // 2, length - 1] + rng.integers(0, length, 4).tolist():
            assert session.try_flip(position) == flipped_key(bits, position, n)
        session.commit()
        bits[position] ^= 1
        want = walsh_transform(TruthTable(n, bits)).values
        assert np.array_equal(session.spectrum.astype(np.int64), want)


@pytest.mark.parametrize("n,mode", [(1, "general"), (9, ROTATION), (13, ROTATION)])
def test_bitflip_session_blocks_stay_under_the_cap(n, mode, monkeypatch):
    shapes = []

    def recording_key(spectrum, n, weights=None):
        shapes.append(np.shape(spectrum))
        return spectrum_key(spectrum, n, weights)

    monkeypatch.setattr(evaluation, "spectrum_key", recording_key)
    ev = FitnessEvaluator(n, "bitstring", mode)
    length = ev.genotype_length
    session = BitFlipSession(ev, np.zeros(length, dtype=np.uint8))
    for position in range(length):
        session.try_flip(position)
    blocks = shapes[1:]  # the first call keys the incumbent
    assert all(rows * cols <= BLOCK_ELEMENTS for rows, cols in blocks)
    # a spectrum has one entry per genotype bit: 2**n, or g = 632 orbits
    # at n = 13 in the rotation-symmetric space, 51 spectra to a block
    rows = max(1, BLOCK_ELEMENTS // length)
    starts = range(0, length, rows)
    assert [r for r, _ in blocks] == [min(rows, length - start) for start in starts]


@pytest.mark.parametrize("n", [3, 7, 9, 12, 13])
def test_bitflip_session_keys_general_flips_from_one_two_row_product(n, monkeypatch):
    key_shapes = []

    def recording_key(spectrum, n, weights=None):
        key_shapes.append(np.shape(spectrum))
        return spectrum_key(spectrum, n, weights)

    monkeypatch.setattr(evaluation, "spectrum_key", recording_key)
    ev = FitnessEvaluator(n, "bitstring")
    length = ev.genotype_length
    session = BitFlipSession(ev, np.zeros(length, dtype=np.uint8))
    product_shapes = []
    product = ev._product

    def recording_product(rows):
        product_shapes.append(rows.shape)
        return product(rows)

    monkeypatch.setattr(ev, "_product", recording_product)
    # one two-row product per fill, and a commit's spectrum is the one-row
    # product of its flipped bits
    want = []
    fresh = True  # no keys ready: the climb's first probe, or one after a commit
    for position in range(length):
        if fresh:
            want.append((2, length))
        fresh = session.try_flip(position) > session.key
        if fresh:
            session.commit()
            want.append((1, length))
    assert want.count((2, length)) > 1  # the sweep commits
    assert key_shapes == [(length,)]  # the incumbent alone
    assert product_shapes == want


@lru_cache(maxsize=None)
def mask_parities(n):
    """``parity(x)`` of every ``x < 2**n``."""
    masks = np.arange(1 << n)
    parities = np.zeros(1 << n, dtype=np.int64)
    for shift in range(n):
        parities ^= (masks >> shift) & 1
    return parities


def reference_flip_key(walsh, bits, position, n):
    """Key of flipping ``position`` of ``bits``, whose reference spectrum is
    ``walsh``: the flip moves ``W(a)`` by ``-2 * (-1)**(bit + parity(a & position))``."""
    characters = 1 - 2 * mask_parities(n)[np.arange(1 << n) & position]
    mags = np.abs(walsh - 2 * (1 - 2 * int(bits[position])) * characters)
    peak = int(mags.max())
    return (((1 << (n - 1)) - peak // 2) << n) + (1 << n) - int(np.count_nonzero(mags == peak))


def climb_against_the_reference(n, bits):
    """Probe every general-space position over two ascending sweeps,
    committing each improving flip as ``ls_bitflip`` does, and check every
    probe and every committed key against the reference transform."""
    session = BitFlipSession(FitnessEvaluator(n, "bitstring"), bits)
    bits = np.array(bits, dtype=np.uint8)
    walsh = walsh_transform(TruthTable(n, bits)).values
    for _ in range(2):
        for position in range(1 << n):
            key = session.try_flip(position)
            assert key == reference_flip_key(walsh, bits, position, n)
            if key > session.key:
                session.commit()
                bits[position] ^= 1
                walsh = walsh_transform(TruthTable(n, bits)).values
                assert session.key == key == reference_key(bits, n)
    assert np.array_equal(session.bits, bits)


def test_reference_flip_key_equals_the_flipped_table_key():
    rng = np.random.default_rng(53)
    for n in (2, 5, 9):
        bits = rng.integers(0, 2, 1 << n, dtype=np.uint8)
        walsh = walsh_transform(TruthTable(n, bits)).values
        for position in range(1 << n):
            assert reference_flip_key(walsh, bits, position, n) == flipped_key(bits, position, n)


@pytest.mark.parametrize("n", range(2, 14))
def test_near_peak_flip_keys_equal_the_reference_over_two_sweeps(n):
    bits = np.random.default_rng(54 + n).integers(0, 2, 1 << n, dtype=np.uint8)
    climb_against_the_reference(n, bits)


def _bent(n):
    """``x1 x2 + x3 x4 + ...``, whose every ``|W|`` is ``2**(n / 2)``."""
    masks = np.arange(1 << n)
    return np.bitwise_xor.reduce(
        [(masks >> i) & (masks >> (i + 1)) & 1 for i in range(0, n, 2)]
    ).astype(np.uint8)


@pytest.mark.parametrize(
    "name,n,bits,peak,count,zeros",
    [
        # bent: every entry is at P, so N is empty and every flip raises the peak
        ("bent", 2, _bent(2), 2, 4, 0),
        ("bent", 4, _bent(4), 4, 16, 0),
        ("bent", 6, _bent(6), 8, 64, 0),
        # P = 4: the zeros of the spectrum are N's entries, and each rises
        ("x2x3", 3, _bent(2).repeat(2), 4, 4, 4),
        ("zero", 2, np.zeros(4, np.uint8), 4, 1, 3),
        # P = 2**n at W(0) alone
        ("zero", 7, np.zeros(128, np.uint8), 128, 1, 127),
        ("one", 7, np.ones(128, np.uint8), 128, 1, 127),
        ("zero", 11, np.zeros(2048, np.uint8), 2048, 1, 2047),
        ("one", 11, np.ones(2048, np.uint8), 2048, 1, 2047),
    ],
)
def test_near_peak_flip_keys_on_edge_tables(name, n, bits, peak, count, zeros):
    walsh = walsh_transform(TruthTable(n, bits)).values
    assert int(np.abs(walsh).max()) == peak
    assert np.count_nonzero(np.abs(walsh) == peak) == count
    assert np.count_nonzero(walsh == 0) == zeros
    climb_against_the_reference(n, bits)


@pytest.mark.parametrize("n,mode", [(1, "general"), (9, "general"), (9, ROTATION)])
def test_bitflip_session_is_freed_without_the_garbage_collector(n, mode):
    # a session that held its own bound fill would be a reference cycle,
    # which kept each climb's keys alive until a collection
    ev = FitnessEvaluator(n, "bitstring", mode)
    session = BitFlipSession(ev, np.zeros(ev.genotype_length, dtype=np.uint8))
    session.try_flip(0)
    freed = weakref.ref(session)
    gc.disable()
    try:
        del session
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("entry", [2, 0.7, -1])
def test_bitflip_session_rejects_entries_that_are_not_bits(entry):
    # each was cast to uint8 before: 2 keyed and then failed on a probe,
    # 0.7 became 0 and -1 became 255
    ev = FitnessEvaluator(3, "bitstring")
    bits = [entry] * 8 if entry == 0.7 else [entry] + [0] * 7
    with pytest.raises(ValueError, match="^bitstring entries must be 0 or 1$"):
        BitFlipSession(ev, bits)


def test_bitflip_session_checks_its_genotype_as_check_genotype_does():
    with pytest.raises(ValueError, match="^general bitstring genotype at n=3 needs 8 entries, "):
        BitFlipSession(FitnessEvaluator(3, "bitstring"), [0] * 7)
    with pytest.raises(ValueError, match="^rs bitstring genotype at n=5 needs 8 entries, "):
        BitFlipSession(FitnessEvaluator(5, "bitstring", ROTATION), [0] * 32)
    with pytest.raises(ValueError, match="^bit-flip search needs the bitstring encoding$"):
        BitFlipSession(FitnessEvaluator(3, "float", decode=2), [0] * 8)
    # the session flips its own copy, never the caller's array
    bits = np.zeros(8, dtype=np.uint8)
    session = BitFlipSession(FitnessEvaluator(3, "bitstring"), bits)
    session.try_flip(2)
    session.commit()
    assert session.bits.tolist() == [0, 0, 1, 0, 0, 0, 0, 0] and not bits.any()


def test_bitflip_session_needs_probe_before_commit():
    ev = FitnessEvaluator(3, "bitstring")
    session = BitFlipSession(ev, np.zeros(8, dtype=np.uint8))
    with pytest.raises(RuntimeError):
        session.commit()


def test_individual_holds_genotype_and_key():
    assert [field.name for field in fields(Individual)] == ["genotype", "key"]
    ind = Individual((1,), key=(2 << 3) + 5)
    assert key_to_fitness(ind.key, 3) == 2 + 5 / 8
    assert ind.key >> 3 == 2


def _spy_products(ev) -> list:
    """Replace ``ev``'s spectrum product with one that records each block it keys."""
    block_spectra, products = ev._block_spectra, []

    def spy(block):
        products.append(block)
        return block_spectra(block)

    ev._block_spectra = spy
    return products


@pytest.mark.parametrize(
    "n,encoding,mode,decode",
    [(1, "bitstring", "general", 4), (7, "bitstring", "general", 4),
     (13, "bitstring", "general", 4), (9, "bitstring", ROTATION, 4),
     (7, "float", "general", 4), (7, "float", ROTATION, 2)],
)
def test_keyed_ahead_keys_reach_only_their_own_rows(n, encoding, mode, decode):
    # key_ahead returns each row's own key and charges nothing; evaluate
    # charges one evaluation a call, returns the key it is given without a
    # product, and without one keys its own genotype as a one-row block
    ev = FitnessEvaluator(n, encoding, mode, decode=decode)
    rng = Draws(52)

    def sample():
        return random_genotype(encoding, n, rng, mode=mode, decode=decode)

    def reference(genotype):
        table = genotype_table(genotype, encoding, n, mode, decode)
        return spectrum_key(walsh_transform(table).values, n)

    block = np.array([sample() for _ in range(min(4, ev.block_rows + 1))])
    keys = ev.key_ahead(block)
    assert keys == [reference(row) for row in block]
    assert ev.evaluations == 0
    with pytest.raises(ValueError):
        block[0, 0] = block[0, 1]  # a keyed row cannot change before its charge
    products = _spy_products(ev)
    for count, (row, key) in enumerate(zip(block, keys), 1):
        assert ev.evaluate(row, key) == key
        assert ev.evaluations == count
    assert not products
    # no key: the genotype itself is keyed, a row of the last block included
    for count, genotype in enumerate([sample(), block[-1], block[0].copy()], len(block) + 1):
        assert ev.evaluate(genotype) == reference(genotype)
        assert ev.evaluations == count
        assert len(products[-1]) == 1 and np.array_equal(products[-1][0], genotype)
    assert len(products) == 3


@pytest.mark.parametrize("n", [1, 2, 5, 7, 8])
def test_keyed_ahead_tree_keys_equal_the_reference(n):
    # a list of trees is keyed as one block; each tree given its key is
    # charged without a product, and a tree given none is keyed on its own
    ev = FitnessEvaluator(n, "tree")
    rng = Draws(56)
    trees = [random_genotype("tree", n, rng, max_depth=5) for _ in range(20)]

    def reference(tree):
        table = TruthTable(n, tree_table_pointwise(tree, n))
        return spectrum_key(walsh_transform(table).values, n)

    products = _spy_products(ev)
    keys = ev.key_ahead(trees)
    assert keys == [reference(tree) for tree in trees]
    assert ev.evaluations == 0 and products == [trees]
    assert [ev.evaluate(tree, key) for tree, key in zip(trees, keys)] == keys
    assert ev.evaluations == len(trees) and len(products) == 1
    other = random_genotype("tree", n, rng, max_depth=5)
    assert ev.evaluate(other) == reference(other)
    assert ev.evaluations == len(trees) + 1 and products[1] == [other]


@pytest.mark.parametrize("n,mode", [(2, "general"), (9, "general"), (12, "general"),
                                    (13, "general"), (7, ROTATION), (11, ROTATION)])
def test_keyed_ahead_block_rows_equal_the_vector_keys(n, mode):
    # every row of a full block gets the key of its genotype keyed alone,
    # a one-row block: a row's sums take no terms from the other rows
    ev = FitnessEvaluator(n, "bitstring", mode)
    rng = np.random.default_rng(53)
    block = rng.integers(0, 2, (ev.block_rows, ev.genotype_length), dtype=np.uint8)
    block[0] = 0
    block[-1] = 1
    want = [ev.evaluate(bits) for bits in block]
    assert ev.key_ahead(block) == want
    assert ev.evaluations == len(block)
