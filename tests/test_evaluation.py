"""Fast evaluation paths must agree bit-for-bit with the reference transform,
and budgets must be enforced exactly."""

from dataclasses import fields

import numpy as np
import pytest
from oracles import nonlinearity_by_distance

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
from boolevo.truthtable import TruthTable, fitness, walsh_transform


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
        for dtype in (np.int64, np.float32):
            keys = spectrum_key(block.astype(dtype), n)
            assert keys == [reference_key(t, n) for t in tables]
            assert all(type(key) is int for key in keys)
            assert type(spectrum_key(block[1].astype(dtype), n)) is int


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
            got = np.asarray(ev._spectrum(bits), dtype=np.int64)
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
            got = np.asarray(ev._spectrum(orbit_bits), dtype=np.int64)
            want = walsh_transform(expand(table, orbit_bits)).values
            assert np.array_equal(got, want[table.representatives])
            assert ev.evaluate(orbit_bits) == reference_key(expand(table, orbit_bits).bits, n)


def test_orbit_rows_equal_the_sign_pattern_reference():
    for n in range(1, 14):
        reps = compute_orbits(n).representatives
        rows = evaluation._orbit_rows(n)
        assert rows.shape == (len(reps), len(reps))
        assert rows.dtype == np.float32 and rows.ctypes.data % 64 == 0
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
            got = np.asarray(ev._spectrum(values), dtype=np.int64)
            assert np.array_equal(got, want)
            assert ev.evaluate(values) == reference_key(truth.bits, n)


def test_tree_path_exact():
    rng = Draws(45)
    ev = FitnessEvaluator(5, "tree")
    for _ in range(20):
        tree = random_tree(5, rng, max_depth=5)
        got = np.asarray(ev._spectrum(tree), dtype=np.int64)
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
    # a NaN or infinite deadline would never pass
    for limit in (float("nan"), float("inf"), 0):
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


@pytest.mark.parametrize("n,mode", [(3, "general"), (7, "general"), (9, "general"),
                                    (9, ROTATION), (12, "general"), (13, "general")])
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
    rows = max(1, BLOCK_ELEMENTS // (1 << n))
    starts = range(0, length, rows)
    assert [r for r, _ in blocks] == [min(rows, length - start) for start in starts]


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


@pytest.mark.parametrize(
    "n,encoding,mode,decode",
    [(1, "bitstring", "general", 4), (7, "bitstring", "general", 4),
     (13, "bitstring", "general", 4), (9, "bitstring", ROTATION, 4),
     (7, "float", "general", 4), (7, "float", ROTATION, 2)],
)
def test_keyed_ahead_keys_reach_only_their_own_rows(n, encoding, mode, decode):
    ev = FitnessEvaluator(n, encoding, mode, decode=decode)
    rng = Draws(52)

    def sample():
        return random_genotype(encoding, n, rng, mode=mode, decode=decode)

    block = np.array([sample() for _ in range(min(4, ev.block_rows + 1))])
    rows = ev.key_ahead(block)
    assert len(rows) == len(block)
    with pytest.raises(ValueError):
        rows[0][0] = rows[0][1]  # a keyed row cannot change before its charge
    # another object, an equal copy, rows out of order, twice and in order
    order = [sample(), block[0].copy(), rows[-1], rows[0], rows[0], block[1]]
    order += rows[1:] + rows
    for count, genotype in enumerate(order, 1):
        table = genotype_table(genotype, encoding, n, mode, decode)
        assert ev.evaluate(genotype) == spectrum_key(walsh_transform(table).values, n)
        assert ev.evaluations == count


@pytest.mark.parametrize("n,mode", [(2, "general"), (9, "general"), (12, "general"),
                                    (13, "general"), (7, ROTATION), (11, ROTATION)])
def test_keyed_ahead_block_rows_equal_the_vector_keys(n, mode):
    # every row of a full block adds the same terms as its vector product
    ev = FitnessEvaluator(n, "bitstring", mode)
    rng = np.random.default_rng(53)
    block = rng.integers(0, 2, (ev.block_rows, ev.genotype_length), dtype=np.uint8)
    block[0] = 0
    block[-1] = 1
    want = [ev.evaluate(bits.copy()) for bits in block]
    assert [ev.evaluate(row) for row in ev.key_ahead(block)] == want
