"""Variation operators: structural invariants under heavy random exercise."""

import numpy as np
import pytest

from boolevo.encodings import random_tree, tree_depth
from boolevo.operators import (
    bit_mutation,
    context_preserving_crossover,
    crossover_bitstring,
    crossover_float,
    crossover_tree,
    make_operators,
    mutate_bitstring,
    mutate_float,
    one_point_crossover,
    one_point_tree_crossover,
    shuffle_mutation,
    size_fair_crossover,
    subtree_crossover,
    subtree_mutation,
    uniform_crossover,
    uniform_tree_crossover,
)
from oracles import tree_table_pointwise


def test_bit_mutation_flips_exactly_one():
    rng = np.random.default_rng(51)
    bits = rng.integers(0, 2, 40, dtype=np.uint8)
    for _ in range(30):
        child = bit_mutation(bits, rng)
        assert int(np.sum(child != bits)) == 1


def test_shuffle_mutation_preserves_weight():
    rng = np.random.default_rng(52)
    bits = rng.integers(0, 2, 40, dtype=np.uint8)
    for _ in range(50):
        child = shuffle_mutation(bits, rng)
        assert child.sum() == bits.sum()
        assert child.shape == bits.shape


def test_mutate_bitstring_leaves_parent_untouched():
    rng = np.random.default_rng(53)
    bits = rng.integers(0, 2, 16, dtype=np.uint8)
    before = bits.copy()
    for _ in range(20):
        mutate_bitstring(bits, rng)
    assert np.array_equal(bits, before)


def test_one_point_crossover_structure():
    rng = np.random.default_rng(54)
    a = np.zeros(10, dtype=np.uint8)
    b = np.ones(10, dtype=np.uint8)
    for _ in range(30):
        child = one_point_crossover(a, b, rng)
        cut = int(np.argmax(child)) if child.any() else 10
        # prefix of a (zeros) then suffix of b (ones); cut inside the string
        assert 1 <= cut <= 9
        assert not child[:cut].any() and child[cut:].all()


def test_uniform_crossover_positions_from_parents():
    rng = np.random.default_rng(55)
    a = np.zeros(64, dtype=np.uint8)
    b = np.ones(64, dtype=np.uint8)
    seen_a = seen_b = False
    for _ in range(10):
        child = uniform_crossover(a, b, rng)
        seen_a |= bool((child == 0).any())
        seen_b |= bool((child == 1).any())
    assert seen_a and seen_b


def test_crossover_bitstring_mixes_both_kinds():
    rng = np.random.default_rng(56)
    a = np.zeros(16, dtype=np.uint8)
    b = np.ones(16, dtype=np.uint8)
    children = {crossover_bitstring(a, b, rng).tobytes() for _ in range(50)}
    assert len(children) > 2


def test_mutate_float_one_coordinate():
    rng = np.random.default_rng(57)
    values = rng.random(10)
    for _ in range(20):
        child = mutate_float(values, rng)
        assert int(np.sum(child != values)) <= 1
        assert 0.0 <= child.min() and child.max() <= 1.0


def test_crossover_float_stays_in_unit_box():
    rng = np.random.default_rng(58)
    a = rng.random(10)
    b = rng.random(10)
    arithmetic_seen = uniform_seen = False
    for _ in range(40):
        child = crossover_float(a, b, rng)
        assert child.min() >= 0.0 and child.max() <= 1.0
        if np.allclose(child, 0.5 * (a + b)):
            arithmetic_seen = True
        elif all(c in (x, y) for c, x, y in zip(child, a, b)):
            uniform_seen = True
    assert arithmetic_seen and uniform_seen


# ---------------------------------------------------------------------------
# trees


def random_pair(rng, n=4, depth=5):
    return random_tree(n, rng, depth), random_tree(n, rng, depth)


def test_subtree_mutation_respects_depth():
    rng = np.random.default_rng(59)
    for _ in range(100):
        t = random_tree(4, rng, max_depth=6)
        child = subtree_mutation(t, 4, rng, max_depth=6, max_nodes=500)
        assert tree_depth(child) <= 6
        assert len(child) <= 500


def test_subtree_crossover_inserts_donor_subtree():
    rng = np.random.default_rng(60)
    for _ in range(50):
        a, b = random_pair(rng)
        child = subtree_crossover(a, b, rng)
        assert len(child) >= 1


def test_uniform_tree_crossover_on_identical_shapes():
    rng = np.random.default_rng(61)
    a = ("AND", 1, 2)
    b = ("OR", 3, 4)
    children = {uniform_tree_crossover(a, b, rng) for _ in range(200)}
    # every child keeps the two-child shape with leaves from matching slots
    for child in children:
        assert child[0] in ("AND", "OR")
        assert child[1] in (1, 3)
        assert child[2] in (2, 4)
    assert len(children) > 4


def test_uniform_tree_crossover_takes_whole_subtrees_where_shapes_diverge():
    rng = np.random.default_rng(68)
    a = ("AND", "NOT", 1, 2)
    b = ("OR", 3, "XOR", 4, 1)
    children = {uniform_tree_crossover(a, b, rng) for _ in range(200)}
    # the root pairs; below it each slot comes whole from one parent
    assert children <= {
        (op,) + left + right
        for op in ("AND", "OR")
        for left in (("NOT", 1), (3,))
        for right in ((2,), ("XOR", 4, 1))
    }
    assert len(children) == 8


def test_size_fair_crossover_bounds_donor():
    rng = np.random.default_rng(62)
    for _ in range(100):
        a, b = random_pair(rng)
        # removed subtree of size m admits donors of size at most 2m+1, so the
        # child can exceed the parent by at most m+1 <= size(a)+1 nodes
        child = size_fair_crossover(a, b, rng)
        assert len(child) <= 2 * len(a) + 1


def test_one_point_tree_crossover_stays_in_common_region():
    rng = np.random.default_rng(63)
    a = ("AND", 1, "NOT", 2)
    b = ("OR", "NOT", 3, 4)
    for _ in range(50):
        child = one_point_tree_crossover(a, b, rng)
        # common region: root and both child slots; beyond that shapes differ
        assert child in (
            b,  # swap at root
            ("AND", "NOT", 3, "NOT", 2),  # swap at slot 0
            ("AND", 1, 4),  # swap at slot 1
        )


def test_context_preserving_crossover_uses_shared_coordinates():
    rng = np.random.default_rng(64)
    a = ("AND", 1, "NOT", 2)
    b = ("IF", 3, "OR", 4, 1, 2)
    children = set()
    for _ in range(50):
        child = context_preserving_crossover(a, b, rng)
        children.add(child)
        # shared coordinates: (), (0,), (1,), (1,0)
        assert child in (
            b,
            ("AND", 3, "NOT", 2),
            ("AND", 1, "OR", 4, 1),
            ("AND", 1, "NOT", 4),
        )
    assert len(children) == 4


def test_crossover_tree_respects_limits_or_returns_parent():
    rng = np.random.default_rng(65)
    for _ in range(200):
        a = random_tree(4, rng, max_depth=4)
        b = random_tree(4, rng, max_depth=4)
        child = crossover_tree(a, b, rng, max_depth=4, max_nodes=60)
        assert tree_depth(child) <= 4
        assert len(child) <= 60


def test_tree_operators_produce_valid_trees():
    rng = np.random.default_rng(66)
    for _ in range(100):
        a = random_tree(3, rng, max_depth=4)
        b = random_tree(3, rng, max_depth=4)
        child = crossover_tree(a, b, rng)
        tree_table_pointwise(child, 3)  # raises if malformed
        child = subtree_mutation(a, 3, rng, max_depth=7, max_nodes=500)
        tree_table_pointwise(child, 3)


def test_make_operators_dispatch():
    rng = np.random.default_rng(67)
    mutate, crossover = make_operators("bitstring", 4)
    child = crossover(np.zeros(16, np.uint8), np.ones(16, np.uint8), rng)
    assert child.shape == (16,)
    mutate, crossover = make_operators("tree", 4, max_depth=3, max_nodes=30)
    t = random_tree(4, rng, 3)
    assert tree_depth(mutate(t, rng)) <= 3
    with pytest.raises(ValueError):
        make_operators("matrix", 4)
