"""Variation operators: structural invariants under heavy random exercise."""

import numpy as np
import pytest

from boolevo.draws import Draws
from boolevo.encodings import node_depths, random_tree, subtree_end, tree_depth
from boolevo.operators import (
    _spliced_depth,
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
from oracles import (
    shuffle_mutation_by_window_permutation,
    size_fair_crossover_by_subtree_walks,
    subtree_mutation_by_tree_walks,
    tree_table_pointwise,
    uniform_crossover_by_where,
)


def test_bit_mutation_flips_exactly_one():
    rng = Draws(51)
    bits = rng.bits(40)
    for _ in range(30):
        child = bit_mutation(bits, rng)
        assert int(np.sum(child != bits)) == 1


def test_shuffle_mutation_preserves_weight():
    rng = Draws(52)
    bits = rng.bits(40)
    for _ in range(50):
        child = shuffle_mutation(bits, rng)
        assert child.sum() == bits.sum()
        assert child.shape == bits.shape


def test_mutate_bitstring_leaves_parent_untouched():
    rng = Draws(53)
    bits = rng.bits(16)
    before = bits.copy()
    for _ in range(20):
        mutate_bitstring(bits, rng)
    assert np.array_equal(bits, before)


def test_one_point_crossover_structure():
    rng = Draws(54)
    a = np.zeros(10, dtype=np.uint8)
    b = np.ones(10, dtype=np.uint8)
    for _ in range(30):
        child = one_point_crossover(a, b, rng)
        cut = int(np.argmax(child)) if child.any() else 10
        # prefix of a (zeros) then suffix of b (ones); cut inside the string
        assert 1 <= cut <= 9
        assert not child[:cut].any() and child[cut:].all()


def test_uniform_crossover_positions_from_parents():
    rng = Draws(55)
    a = np.zeros(64, dtype=np.uint8)
    b = np.ones(64, dtype=np.uint8)
    seen_a = seen_b = False
    for _ in range(10):
        child = uniform_crossover(a, b, rng)
        seen_a |= bool((child == 0).any())
        seen_b |= bool((child == 1).any())
    assert seen_a and seen_b


def test_uniform_crossover_matches_boolean_select():
    # the XOR select must give the np.where child from the same draws
    for length in (2, 128, 8192):
        parents = np.random.default_rng(length).integers(0, 2, (2, length), dtype=np.uint8)
        rng, oracle_rng = Draws(57), Draws(57)
        for _ in range(20):
            child = uniform_crossover(parents[0], parents[1], rng)
            want = uniform_crossover_by_where(parents[0], parents[1], oracle_rng)
            assert child.dtype == want.dtype and np.array_equal(child, want)
        assert rng.below(1 << 62) == oracle_rng.below(1 << 62)


def test_shuffle_mutation_matches_window_permutation():
    # permuting indices makes the same Fisher-Yates draws as permuting entries
    for length in (2, 128, 8192):
        bits = np.random.default_rng(length).integers(0, 2, length, dtype=np.uint8)
        rng, oracle_rng = Draws(58), Draws(58)
        for _ in range(50):
            child = shuffle_mutation(bits, rng)
            want = shuffle_mutation_by_window_permutation(bits, oracle_rng)
            assert child.dtype == want.dtype and np.array_equal(child, want)
        assert rng.below(1 << 62) == oracle_rng.below(1 << 62)


def test_crossover_bitstring_mixes_both_kinds():
    rng = Draws(56)
    a = np.zeros(16, dtype=np.uint8)
    b = np.ones(16, dtype=np.uint8)
    children = {crossover_bitstring(a, b, rng).tobytes() for _ in range(50)}
    assert len(children) > 2


def test_mutate_float_one_coordinate():
    rng = Draws(57)
    values = rng.uniforms(10)
    for _ in range(20):
        child = mutate_float(values, rng)
        assert int(np.sum(child != values)) <= 1
        assert 0.0 <= child.min() and child.max() <= 1.0


def test_crossover_float_stays_in_unit_box():
    rng = Draws(58)
    a = rng.uniforms(10)
    b = rng.uniforms(10)
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
    rng = Draws(59)
    for _ in range(100):
        t = random_tree(4, rng, max_depth=6)
        child = subtree_mutation(t, 4, rng, max_depth=6, max_nodes=500)
        assert tree_depth(child) <= 6
        assert len(child) <= 500


def test_spliced_depth_equals_a_walk_of_the_child():
    rng = Draws(65)
    for depth in range(9):
        for _ in range(400):
            tree = random_tree(7, rng, max_depth=depth)
            subtree = random_tree(7, rng, max_depth=rng.below(6))
            index = rng.below(len(tree))
            end = subtree_end(tree, index)
            child = tree[:index] + subtree + tree[end:]
            assert _spliced_depth(node_depths(tree), index, end, subtree) == tree_depth(child)


def test_subtree_mutation_matches_a_depth_walk_per_candidate():
    # caps below the parents' own depth and size reject some candidates on
    # the nodes outside the splice
    tree_rng = Draws(66)
    rng, oracle_rng = Draws(67), Draws(67)
    for depth in (0, 2, 4, 6, 8):
        for max_depth, max_nodes in ((8, 500), (4, 500), (6, 20)):
            for _ in range(40):
                tree = random_tree(7, tree_rng, max_depth=depth)
                want = subtree_mutation_by_tree_walks(tree, 7, oracle_rng, max_depth, max_nodes)
                assert subtree_mutation(tree, 7, rng, max_depth, max_nodes) == want
    assert rng.below(1 << 62) == oracle_rng.below(1 << 62)


def test_subtree_crossover_inserts_donor_subtree():
    rng = Draws(60)
    for _ in range(50):
        a, b = random_pair(rng)
        child = subtree_crossover(a, b, rng)
        assert len(child) >= 1


def test_uniform_tree_crossover_on_identical_shapes():
    rng = Draws(61)
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
    rng = Draws(68)
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
    rng = Draws(62)
    for _ in range(100):
        a, b = random_pair(rng)
        # removed subtree of size m admits donors of size at most 2m+1, so the
        # child can exceed the parent by at most m+1 <= size(a)+1 nodes
        child = size_fair_crossover(a, b, rng)
        assert len(child) <= 2 * len(a) + 1


def test_size_fair_crossover_matches_per_donor_subtree_walks():
    # the one reverse pass must admit the donors that a walk per node admits
    tree_rng = Draws(63)
    rng, oracle_rng = Draws(64), Draws(64)
    for depth in (1, 2, 4, 6, 8):
        for _ in range(60):
            a, b = random_pair(tree_rng, n=7, depth=depth)
            want = size_fair_crossover_by_subtree_walks(a, b, oracle_rng)
            assert size_fair_crossover(a, b, rng) == want
    assert rng.below(1 << 62) == oracle_rng.below(1 << 62)


def test_one_point_tree_crossover_stays_in_common_region():
    rng = Draws(63)
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
    rng = Draws(64)
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
    rng = Draws(65)
    for _ in range(200):
        a = random_tree(4, rng, max_depth=4)
        b = random_tree(4, rng, max_depth=4)
        child = crossover_tree(a, b, rng, max_depth=4, max_nodes=60)
        assert tree_depth(child) <= 4
        assert len(child) <= 60


def test_tree_operators_produce_valid_trees():
    rng = Draws(66)
    for _ in range(100):
        a = random_tree(3, rng, max_depth=4)
        b = random_tree(3, rng, max_depth=4)
        child = crossover_tree(a, b, rng)
        tree_table_pointwise(child, 3)  # raises if malformed
        child = subtree_mutation(a, 3, rng, max_depth=7, max_nodes=500)
        tree_table_pointwise(child, 3)


def test_make_operators_dispatch():
    rng = Draws(67)
    mutate, crossover = make_operators("bitstring", 4)
    child = crossover(np.zeros(16, np.uint8), np.ones(16, np.uint8), rng)
    assert child.shape == (16,)
    mutate, crossover = make_operators("tree", 4, max_depth=3, max_nodes=30)
    t = random_tree(4, rng, 3)
    assert tree_depth(mutate(t, rng)) <= 3
    with pytest.raises(ValueError):
        make_operators("matrix", 4)
