"""Variation operators: structural invariants under heavy random exercise.

The bitstring and float operators work on row blocks, so each test checks
every row of a block for the property that the row's kind of crossover or
mutation must have.
"""

import copy

import numpy as np
import pytest

from boolevo.draws import Draws
from boolevo.encodings import _random_node, node_depths, random_tree, subtree_end
from boolevo.operators import (
    _joint_preorder,
    _splice_fits,
    context_preserving_crossover,
    crossover_bitstring,
    crossover_float,
    crossover_tree,
    make_operators,
    mutate_bitstring,
    mutate_float,
    one_point_tree_crossover,
    size_fair_crossover,
    subtree_crossover,
    subtree_mutation,
    uniform_tree_crossover,
)
from oracles import (
    crossover_bitstring_by_where,
    joint_crossover_by_subtree_walks,
    joint_preorder_by_recursion,
    mutate_bitstring_by_index_gather,
    mutate_bitstring_by_window_permutation,
    next_draws,
    size_fair_crossover_by_subtree_walks,
    subtree_mutation_by_tree_walks,
    tree_depth,
    tree_depth_by_recursion,
    tree_table_pointwise,
    uniform_crossover_by_own_walk,
)

ROWS = 400
#: Row lengths of the inline-draw checks: n = 1 and 7 to 13 general, and
#: rotation-symmetric n = 7 and 9 (20 and 60 orbits).
LENGTHS = (2, 20, 60, 128, 512, 8192)


def identity_rows(length, rows=ROWS):
    """Rows whose entry ``2 * i`` stands for bit ``i``: a flip makes it odd."""
    return np.tile(np.arange(0, 2 * length, 2), (rows, 1))


def bit_rows(length, rows=20):
    return np.random.default_rng(length).integers(0, 2, (rows, length), dtype=np.uint8)


def low_product_words(k):
    """Words whose product with ``k`` has a low word under ``k``, the words
    that an inline draw hands back to ``below``: 0, which ``below`` rejects
    unless ``k`` is a power of two, and words at ``below``'s threshold
    ``(2**64 - k) % k``, which it accepts."""
    threshold = (2**64 - k) % k
    shift = (k & -k).bit_length() - 1  # the twos in k, which divide the threshold too
    step = 1 << (64 - shift)  # adding it to a word leaves its low product alone
    word = (threshold >> shift) * pow(k >> shift, -1, step) % step
    words = sorted({0, word, (word + step) % 2**64})
    assert all((w * k) % 2**64 == (threshold if w else 0) < k for w in words)
    return words


def draws_reading_next(seed, words):
    """A ``Draws`` whose next scalar draws read ``words`` in order."""
    rng = Draws(seed)
    rng.below(2)  # fills the block
    rng._words.extend(reversed(words))
    return rng


def drained_draws(seed, left):
    """A ``Draws`` with ``left`` unread words, so the next draws refill."""
    rng = Draws(seed)
    rng.below(2)
    del rng._words[: len(rng._words) - left]  # keeps the next `left`
    return rng


#: Coin words: ``below(2)`` is a word's top bit, 1 for a shuffle or a
#: uniform crossover, 0 for a flip or a one-point crossover.
HIGH, LOW = 1 << 63, 0
ORDINARY = 0x9E3779B97F4A7C15  # an odd word, whose low products are not small


def is_flip(row):
    return bool((row & 1).any())


def one_point_cut(row):
    """The cut of a child of zeros and ones that is zeros then ones, else None."""
    cut = int(np.argmax(row)) if row.any() else len(row)
    return cut if not row[:cut].any() and row[cut:].all() else None


def changed_window(child, parent):
    """``(start, stop)`` of the span of positions where ``child`` differs, or None."""
    changed = np.flatnonzero(child != parent)
    return (int(changed[0]), int(changed[-1]) + 1) if changed.size else None


def test_bit_mutation_flips_exactly_one():
    # on identity rows a flip makes one entry odd and leaves the rest alone
    for length in (2, 40, 128):
        identity = identity_rows(length)
        children = mutate_bitstring(identity, Draws(51))
        flips = [row for row in children if is_flip(row)]
        assert flips
        for row in flips:
            (position,) = np.flatnonzero(row != identity[0])
            assert row[position] == 2 * position + 1


def test_shuffle_mutation_preserves_weight():
    # a shuffle permutes one window of the identity and nothing outside it
    identity = identity_rows(40)
    children = mutate_bitstring(identity, Draws(52))
    shuffles = [row for row in children if not is_flip(row)]
    assert shuffles and any(changed_window(row, identity[0]) for row in shuffles)
    for row in shuffles:
        window = changed_window(row, identity[0])
        if window is not None:
            start, stop = window
            assert sorted(row[start:stop]) == list(identity[0, start:stop])
    # on bit rows a shuffle keeps the weight, inside its window too
    bits = Draws(53).bits(40 * ROWS).reshape(ROWS, 40)
    children = mutate_bitstring(bits, Draws(52))
    for child, parent in zip(children, bits):
        window = changed_window(child, parent)
        if window is None or child.sum() != parent.sum():
            continue
        start, stop = window
        assert child[start:stop].sum() == parent[start:stop].sum()
    assert children.shape == bits.shape and children.dtype == np.uint8


def test_mutate_bitstring_leaves_parent_untouched():
    rng = Draws(53)
    bits = rng.bits(16 * 20).reshape(20, 16)
    before = bits.copy()
    mutate_bitstring(bits, rng)
    assert np.array_equal(bits, before)
    # read-only rows, as the local search passes, are copied, not written
    identity = np.broadcast_to(np.arange(0, 32, 2), (20, 16))
    assert mutate_bitstring(identity, rng).shape == (20, 16)


def test_one_point_crossover_structure():
    # with parents of zeros and ones, a one-point child is zeros then ones,
    # its cut inside the string; any other row is a uniform child
    a = np.zeros((ROWS, 64), dtype=np.uint8)
    b = np.ones((ROWS, 64), dtype=np.uint8)
    children = crossover_bitstring(a, b, Draws(54))
    cuts = [one_point_cut(row) for row in children]
    assert all(1 <= cut <= 63 for cut in cuts if cut is not None)
    assert len({cut for cut in cuts if cut is not None}) > 30


def test_uniform_crossover_positions_from_parents():
    rng = Draws(55)
    a = rng.bits(64 * ROWS).reshape(ROWS, 64)
    b = rng.bits(64 * ROWS).reshape(ROWS, 64)
    children = crossover_bitstring(a, b, rng)
    assert children.dtype == np.uint8
    assert ((children == a) | (children == b)).all()
    # rows that are not one-point children mix both parents
    zeros, ones = np.zeros_like(a), np.ones_like(b)
    mixed = [row for row in crossover_bitstring(zeros, ones, rng) if one_point_cut(row) is None]
    assert mixed and all(row.any() and not row.all() for row in mixed)


def test_uniform_crossover_matches_boolean_select():
    # the XOR select must give the np.where children from the same draws
    for length in (2, 128, 8192):
        parents = np.random.default_rng(length).integers(0, 2, (40, length), dtype=np.uint8)
        rng, oracle_rng = Draws(57), Draws(57)
        for _ in range(5):
            children = crossover_bitstring(parents[0::2], parents[1::2], rng)
            want = crossover_bitstring_by_where(parents[0::2], parents[1::2], oracle_rng)
            assert children.dtype == want.dtype and np.array_equal(children, want)
        assert rng.below(1 << 62) == oracle_rng.below(1 << 62)


def test_shuffle_mutation_matches_window_permutation():
    # an in-place shuffle of int64 index rows, and a gather through permuted
    # indices of uint8 bit rows, make the same Fisher-Yates draws as
    # permuting the entries, and the inline draws those of a below call each
    for length in LENGTHS:
        for rows in (identity_rows(length, 20), bit_rows(length)):
            rng, oracle_rng, gather_rng = Draws(58), Draws(58), Draws(58)
            for _ in range(5):
                children = mutate_bitstring(rows, rng)
                want = mutate_bitstring_by_window_permutation(rows, oracle_rng)
                assert children.dtype == want.dtype and np.array_equal(children, want)
                assert np.array_equal(mutate_bitstring_by_index_gather(rows, gather_rng), want)
            assert next_draws(rng) == next_draws(oracle_rng) == next_draws(gather_rng)


@pytest.mark.parametrize("length", LENGTHS)
def test_bit_mutation_hands_low_products_back_to_below(length):
    # a low-product word read as a flip's position, as a shuffle's first end
    # or as its second
    for rows in (identity_rows(length, 6), bit_rows(length, 6)):
        for word in low_product_words(length):
            for coins in ((LOW,), (HIGH,), (HIGH, ORDINARY)):
                for seed in range(3):
                    rng = draws_reading_next(seed, (*coins, word))
                    oracle_rng = copy.deepcopy(rng)
                    children = mutate_bitstring(rows, rng)
                    want = mutate_bitstring_by_index_gather(rows, oracle_rng)
                    assert children.dtype == want.dtype and np.array_equal(children, want)
                    assert next_draws(rng) == next_draws(oracle_rng)


@pytest.mark.parametrize("length", LENGTHS)
def test_bit_crossover_hands_low_products_back_to_below(length):
    # a low-product word read as the cut of a block's first or second row
    parents = bit_rows(length, 12)
    a, b = parents[0::2], parents[1::2]
    for word in low_product_words(length - 1):
        for coins in ((LOW,), (HIGH, LOW), (LOW, ORDINARY, LOW)):
            for seed in range(3):
                rng = draws_reading_next(seed, (*coins, word))
                oracle_rng = copy.deepcopy(rng)
                children = crossover_bitstring(a, b, rng)
                assert np.array_equal(children, crossover_bitstring_by_where(a, b, oracle_rng))
                assert next_draws(rng) == next_draws(oracle_rng)


@pytest.mark.parametrize("length", LENGTHS)
def test_bit_operators_refill_mid_block_as_below_does(length):
    # the word list drained to a few words, so a block refills while drawing
    parents = bit_rows(length, 12)
    for left in range(4):
        for seed in range(3):
            for rows in (identity_rows(length, 6), parents):
                rng = drained_draws(100 + seed, left)
                oracle_rng = copy.deepcopy(rng)
                children = mutate_bitstring(rows, rng)
                assert np.array_equal(children, mutate_bitstring_by_index_gather(rows, oracle_rng))
                assert next_draws(rng) == next_draws(oracle_rng)
            rng = drained_draws(100 + seed, left)
            oracle_rng = copy.deepcopy(rng)
            children = crossover_bitstring(parents[0::2], parents[1::2], rng)
            want = crossover_bitstring_by_where(parents[0::2], parents[1::2], oracle_rng)
            assert np.array_equal(children, want)
            assert next_draws(rng) == next_draws(oracle_rng)


def test_bit_operators_reject_rows_too_short_to_draw_from():
    rng = Draws(59)
    with pytest.raises(ValueError, match="at least 1 entry"):
        mutate_bitstring(np.zeros((3, 0), dtype=np.uint8), rng)
    one = np.zeros((3, 1), dtype=np.uint8)
    with pytest.raises(ValueError, match="at least 2 entries"):
        crossover_bitstring(one, one, rng)
    # a single entry still mutates: its one position flips or shuffles alone
    assert mutate_bitstring(one, rng).shape == (3, 1)


def test_crossover_bitstring_mixes_both_kinds():
    a = np.zeros((50, 16), dtype=np.uint8)
    b = np.ones((50, 16), dtype=np.uint8)
    children = crossover_bitstring(a, b, Draws(56))
    assert len({row.tobytes() for row in children}) > 2


def test_mutate_float_one_coordinate():
    rng = Draws(57)
    values = rng.uniforms(10 * ROWS).reshape(ROWS, 10)
    children = mutate_float(values, rng)
    assert children.shape == values.shape and not np.shares_memory(children, values)
    changed = children != values
    assert (changed.sum(axis=1) <= 1).all() and changed.any(axis=1).mean() > 0.99
    assert (0.0 <= children[changed]).all() and (children[changed] < 1.0).all()


def test_crossover_float_stays_in_unit_box():
    rng = Draws(58)
    a = rng.uniforms(10 * ROWS).reshape(ROWS, 10)
    b = rng.uniforms(10 * ROWS).reshape(ROWS, 10)
    children = crossover_float(a, b, rng)
    assert children.min() >= 0.0 and children.max() <= 1.0
    means = (children == 0.5 * (a + b)).all(axis=1)
    mixes = ((children == a) | (children == b)).all(axis=1)
    # every row is the mean or a per-coordinate mix, and both kinds occur
    assert (means ^ mixes).all() and means.any() and mixes.any()


def test_each_kind_is_drawn_about_half_the_time():
    rows = 4000
    rng = Draws(59)
    # bitstring crossover: one-point children of zeros and ones are steps
    zeros = np.zeros((rows, 64), dtype=np.uint8)
    children = crossover_bitstring(zeros, zeros + 1, rng)
    one_point = np.mean([one_point_cut(row) is not None for row in children])
    # bitstring mutation: a flip leaves an odd entry in an identity row
    identity = identity_rows(64, rows)
    flips = (mutate_bitstring(identity, rng) & 1).any(axis=1).mean()
    # float crossover: the mean, or else a mix
    a, b = rng.uniforms(8 * rows).reshape(rows, 8), rng.uniforms(8 * rows).reshape(rows, 8)
    means = (crossover_float(a, b, rng) == 0.5 * (a + b)).all(axis=1).mean()
    for share in (one_point, flips, means):
        assert 0.46 < share < 0.54


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


def test_splice_fits_equals_a_walk_of_the_child():
    # caps from 0 to 8 over parents of depth 0 to 8, so many parents are
    # deeper than the cap, some of them outside the replaced span
    rng = Draws(65)
    fits = set()
    for depth in range(9):
        for _ in range(400):
            tree = random_tree(7, rng, max_depth=depth)
            max_depth = rng.below(9)
            depths = node_depths(tree)
            index = rng.below(len(tree))
            budget = max_depth - depths[index]
            subtree = _random_node(7, rng, budget, "grow")
            assert tree_depth_by_recursion(subtree) <= max(budget, 0)
            end = subtree_end(tree, index)
            child = tree[:index] + subtree + tree[end:]
            fit = _splice_fits(depths, index, end, max_depth)
            assert fit == (tree_depth_by_recursion(child) <= max_depth)
            fits.add((fit, depths[index] <= max_depth))
    # both outcomes, and misses with the replaced node within the cap
    assert fits == {(True, True), (False, True), (False, False)}


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


def test_mutate_after_crossover_reuses_the_childs_depths_with_the_same_outcome():
    # the tree operators made by make_operators hand the crossover child's
    # depths to the mutation; mutate must give what a walk per candidate
    # gives, on that child, on an equal but distinct tuple, on a parent given
    # back after five failed crossovers and on a tree never crossed over.
    # Parents up to 6 deep under a cap of 5 make crossovers give up, and
    # mutations of parents deeper than the cap
    n, max_depth, max_nodes = 6, 5, 40
    tree_rng = Draws(69)
    rng, oracle_rng = Draws(70), Draws(70)
    mutate, crossover = make_operators("tree", n, max_depth, max_nodes)
    given_back = 0
    for _ in range(300):
        a, b = random_pair(tree_rng, n=n, depth=6)
        child = crossover(a, b, rng)
        want = crossover_tree(a, b, oracle_rng, max_depth, max_nodes)[0]
        assert child == want
        given_back += child is a
        for tree in (child, tuple(list(child)), a):
            want = subtree_mutation_by_tree_walks(tree, n, oracle_rng, max_depth, max_nodes)
            assert mutate(tree, rng) == want
    assert given_back > 5
    assert rng.below(1 << 62) == oracle_rng.below(1 << 62)


def test_joint_preorder_matches_the_recursive_walk():
    rng = Draws(71)
    for n in range(1, 8):
        for depth in range(9):
            for method in ("grow", "full"):
                for _ in range(2):
                    a = random_tree(n, rng, depth, method)
                    b = random_tree(n, rng, rng.below(depth + 1), method)
                    for any_arity in (False, True):
                        pairs, ends = _joint_preorder(a, b, any_arity)
                        assert pairs == joint_preorder_by_recursion(a, b, any_arity)
                        # each pair's ends are its two subtrees' ends
                        want = [(subtree_end(a, i), subtree_end(b, j)) for i, j in pairs]
                        assert ends == want


def test_tree_crossovers_match_the_subtree_walks():
    # one-point and context-preserving children splice at the ends the joint
    # walk passed, uniform ones emit its pairs, size-fair ones splice at the
    # ends of one reverse pass; each must give the child and the next draw of
    # walking the trees again
    tree_rng = Draws(73)
    rng, oracle_rng = Draws(74), Draws(74)
    for n in range(1, 8):
        for depth in range(9):
            for method in ("grow", "full"):
                for _ in range(3):
                    a = random_tree(n, tree_rng, depth, method)
                    b = random_tree(n, tree_rng, tree_rng.below(depth + 1), method)
                    want = joint_crossover_by_subtree_walks(a, b, False, oracle_rng)
                    assert one_point_tree_crossover(a, b, rng) == want
                    want = joint_crossover_by_subtree_walks(a, b, True, oracle_rng)
                    assert context_preserving_crossover(a, b, rng) == want
                    want = uniform_crossover_by_own_walk(a, b, oracle_rng)
                    assert uniform_tree_crossover(a, b, rng) == want
                    want = size_fair_crossover_by_subtree_walks(a, b, oracle_rng)
                    assert size_fair_crossover(a, b, rng) == want
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
        child, depths = crossover_tree(a, b, rng, max_depth=4, max_nodes=60)
        assert tree_depth(child) <= 4
        assert len(child) <= 60
        assert depths == (None if child is a else node_depths(child))


def test_tree_operators_produce_valid_trees():
    rng = Draws(66)
    for _ in range(100):
        a = random_tree(3, rng, max_depth=4)
        b = random_tree(3, rng, max_depth=4)
        child = crossover_tree(a, b, rng)[0]
        tree_table_pointwise(child, 3)  # raises if malformed
        child = subtree_mutation(a, 3, rng, max_depth=7, max_nodes=500)
        tree_table_pointwise(child, 3)


def test_make_operators_dispatch():
    rng = Draws(67)
    mutate, crossover = make_operators("bitstring", 4)
    children = crossover(np.zeros((3, 16), np.uint8), np.ones((3, 16), np.uint8), rng)
    assert children.shape == (3, 16)
    assert mutate(children, rng).shape == (3, 16)
    mutate, crossover = make_operators("float", 4)
    assert crossover(np.zeros((2, 4)), np.ones((2, 4)), rng).shape == (2, 4)
    assert mutate(np.zeros((2, 4)), rng).shape == (2, 4)
    mutate, crossover = make_operators("tree", 4, max_depth=3, max_nodes=30)
    t = random_tree(4, rng, 3)
    assert tree_depth(mutate(t, rng)) <= 3
    with pytest.raises(ValueError):
        make_operators("matrix", 4)
