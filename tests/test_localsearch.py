"""Local search: monotonicity, exact optimality of the bit-flip climber, and
budget accounting, all against brute-force replays."""

import numpy as np
import pytest
from oracles import ls_mutation_per_trial, nonlinearity_by_distance

from boolevo.draws import Draws
from boolevo.encodings import ROTATION, random_genotype, random_tree
from boolevo.evaluation import (
    BudgetExhausted,
    FitnessEvaluator,
    Individual,
    spectrum_key,
)
from boolevo.localsearch import LsConfig, apply_ls, improve, ls_bitflip, ls_mutation
from boolevo.operators import make_operators
from boolevo.orbits import compute_orbits, expand
from boolevo.truthtable import TruthTable, walsh_transform


def key_of(bits, n, mode="general"):
    if mode == ROTATION:
        tt = expand(compute_orbits(n), bits)
    else:
        tt = TruthTable(n, bits)
    return spectrum_key(walsh_transform(tt).values.astype(np.float64), n)


def make_individual(bits, n, mode="general"):
    return Individual(bits, key_of(bits, n, mode))


def test_ls_config_validation():
    LsConfig("ls1")
    with pytest.raises(ValueError):
        LsConfig("ls4")
    with pytest.raises(ValueError):
        LsConfig("ls1", fraction=0.0)
    with pytest.raises(ValueError):
        LsConfig("ls1", trials=0)
    # a NaN trial count would stop LS1 before its first probe
    for trials in (float("nan"), 2.5, True):
        with pytest.raises(ValueError, match="ls trials must be an integer"):
            LsConfig("ls1", trials=trials)


def test_ls_mutation_never_worsens_any_encoding():
    rng = Draws(81)
    cases = [
        ("bitstring", "general", lambda: rng.bits(32)),
        ("bitstring", ROTATION, lambda: rng.bits(20)),
        ("float", "general", lambda: rng.uniforms(16)),
        ("tree", "general", lambda: random_tree(5, rng, 4)),
    ]
    for encoding, mode, sample in cases:
        decode = 2
        n = 7 if mode == ROTATION else 5
        ev = FitnessEvaluator(n, encoding, mode, decode=decode)
        mutate, _ = make_operators(encoding, n)
        for _ in range(25):
            genotype = sample()
            start = Individual(genotype, ev.evaluate(genotype))
            out = ls_mutation(start, ev, mutate, rng, trials=10)
            assert out.key >= start.key


def test_ls_mutation_improvement_resets_the_counter():
    # a counting fake: improves exactly once, after 3 failures; the climber
    # keys its trials ahead in blocks and draws each block's new moves with
    # one row-block mutate call
    class FakeEvaluator:
        encoding = "bitstring"
        block_rows = 64
        evaluations = 0

        def key_ahead(self, block):
            return [0] * len(block)

        def evaluate(self, genotype, key=None):
            # scripted by the charge count, whatever key it is given
            self.evaluations += 1
            if self.evaluations == 4:
                return 100
            return 0

    calls = []

    def mutate(rows, rng):
        calls.append(len(rows))
        return rows.copy()

    start = Individual(np.zeros(8, np.uint8), 50)
    out = ls_mutation(start, FakeEvaluator(), mutate, Draws(0), trials=5)
    # 3 failures, improvement at 4, then 5 fresh failures: 9 candidates in
    # all, the second block the one unused move of the first and 4 new ones
    assert calls == [5, 4]
    assert out.key == 100


# (encoding, mode, n, decode) of every LS1 block path: one uint8 row per
# child, one float64 row per child, and the tree's blocks of one
LS1_SPACES = [
    ("bitstring", "general", 1, 4),
    ("bitstring", "general", 5, 4),
    ("bitstring", "general", 9, 4),
    ("bitstring", ROTATION, 7, 4),
    ("bitstring", ROTATION, 9, 4),
    ("float", "general", 7, 2),
    ("float", "general", 7, 4),
    ("tree", "general", 5, 4),
]


class Stop(Exception):
    pass


def _climbs(climber, space, trials, seed, budget=None, stop_at_note=None):
    """Run three climbs from random genotypes; return everything they show.

    ``stop_at_note`` makes the note raise on that call, as a run's target
    stop does.
    """
    encoding, mode, n, decode = space
    ev = FitnessEvaluator(n, encoding, mode, decode=decode, budget=budget)
    mutate, _ = make_operators(encoding, n)
    rng = Draws(seed)
    notes = []

    def note(individual):
        notes.append((ev.evaluations, individual.key))
        if len(notes) == stop_at_note:
            raise Stop()

    outs = []
    try:
        for _ in range(3):
            genotype = random_genotype(encoding, n, rng, mode=mode, decode=decode)
            start = Individual(genotype, ev.evaluate(genotype))
            out = climber(start, ev, mutate, rng, trials, note=note)
            genotype = out.genotype if encoding == "tree" else np.asarray(out.genotype).tobytes()
            outs.append((out.key, genotype))
    except (BudgetExhausted, Stop) as stop:
        return outs, notes, ev.evaluations, type(stop)
    return outs, notes, ev.evaluations, rng.below(2**64)


@pytest.mark.parametrize("trials", [1, 3, 25])
@pytest.mark.parametrize("space", LS1_SPACES, ids=lambda s: "-".join(map(str, s)))
def test_ls_mutation_blocks_match_the_per_trial_climb(space, trials):
    want = _climbs(ls_mutation_per_trial, space, trials, seed=88)
    assert _climbs(ls_mutation, space, trials, seed=88) == want
    _, notes, evaluations, _ = want
    if trials == 25 and space[2] > 1:
        # the trials after an accepted one are keyed again from the new parent
        assert len(notes) >= 2
    # a budget that runs out, and a note that raises, inside a block of
    # trials keyed after the first accepted one
    if notes and notes[0][0] + 2 < evaluations:
        budget = notes[0][0] + 2
        want = _climbs(ls_mutation_per_trial, space, trials, seed=88, budget=budget)
        assert want[2:] == (budget, BudgetExhausted)
        assert _climbs(ls_mutation, space, trials, seed=88, budget=budget) == want
    if len(notes) >= 2:
        want = _climbs(ls_mutation_per_trial, space, trials, seed=88, stop_at_note=2)
        assert want[2:] == (notes[1][0], Stop)
        assert _climbs(ls_mutation, space, trials, seed=88, stop_at_note=2) == want


def brute_force_first_improvement(bits, n, mode):
    """Independent replay of the ascending first-improvement flip climber."""
    bits = bits.copy()
    key = key_of(bits, n, mode)
    improved = True
    while improved:
        improved = False
        for j in range(bits.shape[0]):
            bits[j] ^= 1
            cand = key_of(bits, n, mode)
            if cand > key:
                key = cand
                improved = True
            else:
                bits[j] ^= 1
    return bits, key


@pytest.mark.parametrize("n,mode", [(4, "general"), (5, "general"), (7, ROTATION), (9, ROTATION)])
def test_ls_bitflip_matches_brute_force_replay(n, mode):
    rng = np.random.default_rng(82)
    ev = FitnessEvaluator(n, "bitstring", mode)
    for _ in range(10):
        bits = rng.integers(0, 2, ev.genotype_length, dtype=np.uint8)
        start = make_individual(bits, n, mode)
        out = ls_bitflip(start, ev)
        want_bits, want_key = brute_force_first_improvement(bits, n, mode)
        assert np.array_equal(out.genotype, want_bits)
        assert out.key == want_key


def test_ls_bitflip_result_is_one_flip_optimal():
    rng = np.random.default_rng(83)
    for n, mode in ((5, "general"), (9, ROTATION)):
        ev = FitnessEvaluator(n, "bitstring", mode)
        for _ in range(10):
            bits = rng.integers(0, 2, ev.genotype_length, dtype=np.uint8)
            out = ls_bitflip(make_individual(bits, n, mode), ev)
            base_key = key_of(out.genotype, n, mode)
            for j in range(out.genotype.shape[0]):
                flipped = out.genotype.copy()
                flipped[j] ^= 1
                assert key_of(flipped, n, mode) <= base_key


def test_ls_bitflip_improves_nonlinearity_not_just_key():
    # sanity against the affine-distance oracle on the final table
    rng = np.random.default_rng(84)
    ev = FitnessEvaluator(4, "bitstring")
    bits = rng.integers(0, 2, 16, dtype=np.uint8)
    out = ls_bitflip(make_individual(bits, 4), ev)
    assert out.key >> 4 == nonlinearity_by_distance(out.genotype)
    assert out.key >> 4 >= nonlinearity_by_distance(bits)


def test_improve_dispatches_variants():
    rng = Draws(85)
    ev = FitnessEvaluator(5, "bitstring")
    mutate, _ = make_operators("bitstring", 5)
    bits = rng.bits(32)
    start = make_individual(bits, 5)
    for variant in ("ls1", "ls2", "ls3"):
        out = improve(start, LsConfig(variant, trials=5), ev, mutate, rng)
        assert out.key >= start.key
    # ls3 output must be one-flip optimal (it ends with the sweep stage)
    out = improve(start, LsConfig("ls3", trials=5), ev, mutate, rng)
    for j in range(32):
        flipped = out.genotype.copy()
        flipped[j] ^= 1
        assert key_of(flipped, 5) <= out.key


def test_apply_ls_touches_best_plus_fraction():
    rng = Draws(86)
    ev = FitnessEvaluator(5, "bitstring")
    mutate, _ = make_operators("bitstring", 5)
    pop = [
        make_individual(rng.bits(32), 5) for _ in range(20)
    ]
    keys_before = [ind.key for ind in pop]
    best_before = max(keys_before)
    touched = []

    def note(ind):
        touched.append(ind)

    apply_ls(pop, LsConfig("ls2", fraction=0.15), ev, mutate, rng, note)
    # ceil(0.15 * 20) = 3 slots treated; none may worsen
    changed = sum(1 for old, ind in zip(keys_before, pop) if ind.key != old)
    assert changed <= 3
    assert all(ind.key >= old for old, ind in zip(keys_before, pop))
    assert max(ind.key for ind in pop) >= best_before
    # an empty population is left as it is, with no draw and no charge
    evaluations, word = ev.evaluations, Draws(86).below(1 << 30)
    rng = Draws(86)
    apply_ls([], LsConfig("ls2"), ev, mutate, rng, note)
    assert ev.evaluations == evaluations and rng.below(1 << 30) == word


def test_ls_charges_budget_and_stops_midway():
    rng = np.random.default_rng(87)
    ev = FitnessEvaluator(5, "bitstring", budget=40)
    mutate, _ = make_operators("bitstring", 5)
    bits = rng.integers(0, 2, 32, dtype=np.uint8)
    ev.evaluate(bits)
    start = make_individual(bits, 5)
    with pytest.raises(BudgetExhausted):
        # a fresh random table is far from one-flip optimal at n=5; a full
        # climb needs well over the 39 probes that remain
        ls_bitflip(start, ev)
    assert ev.evaluations == 40
