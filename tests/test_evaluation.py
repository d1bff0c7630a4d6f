"""Fast evaluation paths must agree bit-for-bit with the reference transform,
and budgets must be enforced exactly."""

import numpy as np
import pytest

from boolevo.encodings import ROTATION, float_bits, random_tree, tree_truth_bits
from boolevo.evaluation import (
    BitFlipSession,
    BudgetExhausted,
    FitnessEvaluator,
    Individual,
    key_to_fitness,
    spectrum_key,
)
from boolevo.orbits import compute_orbits, expand
from boolevo.truthtable import TruthTable, fitness, walsh_transform


def reference_key(bits, n):
    mags = [abs(int(w)) for w in walsh_transform(TruthTable(n, bits)).values]
    peak = max(mags)
    nl = (1 << (n - 1)) - peak // 2
    return (nl << n) + ((1 << n) - mags.count(peak)), nl


def test_spectrum_key_matches_reference_profile():
    rng = np.random.default_rng(41)
    for n in range(2, 10):
        for _ in range(10):
            bits = rng.integers(0, 2, 1 << n, dtype=np.uint8)
            spec = walsh_transform(TruthTable(n, bits)).values
            key, nl = spectrum_key(spec.astype(np.float64), n)
            assert (key, nl) == reference_key(bits, n)
            assert key_to_fitness(key, n) == fitness(TruthTable(n, bits))


def test_general_bitstring_path_exact():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 7, 11, 12, 13):
        ev = FitnessEvaluator(n, "bitstring")
        for _ in range(5):
            bits = rng.integers(0, 2, 1 << n, dtype=np.uint8)
            got = np.asarray(ev._spectrum(bits), dtype=np.int64)
            want = walsh_transform(TruthTable(n, bits)).values
            assert np.array_equal(got, want)


def test_rotation_bitstring_path_exact():
    rng = np.random.default_rng(43)
    for n in (3, 7, 9, 11):
        table = compute_orbits(n)
        ev = FitnessEvaluator(n, "bitstring", ROTATION)
        assert ev.genotype_length == table.num_orbits
        for _ in range(5):
            orbit_bits = rng.integers(0, 2, table.num_orbits, dtype=np.uint8)
            got = np.asarray(ev._spectrum(orbit_bits), dtype=np.int64)
            want = walsh_transform(expand(table, orbit_bits)).values
            assert np.array_equal(got, want)


def test_float_path_exact():
    rng = np.random.default_rng(44)
    for n, decode, mode in ((4, 2, "general"), (7, 4, ROTATION), (9, 4, ROTATION)):
        ev = FitnessEvaluator(n, "float", mode, decode=decode)
        target = compute_orbits(n).num_orbits if mode == ROTATION else 1 << n
        for _ in range(5):
            values = rng.random(target // decode)
            bits = float_bits(values, decode)
            if mode == ROTATION:
                want = walsh_transform(expand(compute_orbits(n), bits)).values
            else:
                want = walsh_transform(TruthTable(n, bits)).values
            got = np.asarray(ev._spectrum(values), dtype=np.int64)
            assert np.array_equal(got, want)


def test_tree_path_exact():
    rng = np.random.default_rng(45)
    ev = FitnessEvaluator(5, "tree")
    for _ in range(20):
        tree = random_tree(5, rng, max_depth=5)
        got = np.asarray(ev._spectrum(tree), dtype=np.int64)
        want = walsh_transform(TruthTable(5, tree_truth_bits(tree, 5))).values
        assert np.array_equal(got, want)


def test_evaluate_returns_key_and_nl():
    ev = FitnessEvaluator(3, "bitstring")
    bits = np.array([0, 1, 1, 1, 1, 1, 1, 0], dtype=np.uint8)
    key, nl = ev.evaluate(bits)
    assert (key, nl) == reference_key(bits, 3)
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
            probe_key, probe_nl = session.try_flip(j)
            flipped = reference.copy()
            flipped[j] ^= 1
            want = spectrum_key(np.asarray(ev._spectrum(flipped), np.float64), n)
            assert (probe_key, probe_nl) == want
            if rng.random() < 0.5:
                session.commit()
                reference = flipped
                assert (session.key, session.nl) == want
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


def test_bitflip_session_needs_probe_before_commit():
    ev = FitnessEvaluator(3, "bitstring")
    session = BitFlipSession(ev, np.zeros(8, dtype=np.uint8))
    with pytest.raises(RuntimeError):
        session.commit()


def test_individual_make():
    ind = Individual.make((1,), key=(2 << 3) + 5, nl=2, n=3)
    assert ind.fitness == 2 + 5 / 8
    assert ind.nl == 2
