"""Encoding/decoding behaviour, with the tree evaluator checked against a
separate per-assignment interpreter."""

import copy
import json

import numpy as np
import pytest
from oracles import (
    float_bits_by_floor_and_shift,
    node_depths_by_recursion,
    random_node_by_list_pushes,
    tree_depth,
    tree_depth_by_recursion,
    tree_table_pointwise,
)

from boolevo.draws import Draws
from boolevo.encodings import (
    GENERAL,
    MAX_DECODE,
    ROTATION,
    _random_node,
    check_genotype,
    float_bits,
    float_dimension,
    genotype_table,
    node_depths,
    random_genotype,
    random_tree,
    subtree_end,
    tree_from_text,
    tree_to_text,
    tree_truth_bits,
    tree_truth_rows,
)
from boolevo.engine import deserialize_genotype
from boolevo.orbits import compute_orbits, is_rotation_symmetric
from boolevo.truthtable import TruthTable


# ---------------------------------------------------------------------------
# bitstring


def test_decode_bitstring_general():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert genotype_table(bits, "bitstring", 2) == TruthTable(2, [0, 1, 1, 0])
    assert genotype_table([True, False, False, True], "bitstring", 2) == TruthTable(
        2, [1, 0, 0, 1]
    )
    with pytest.raises(ValueError):
        genotype_table(bits, "bitstring", 3)


def test_decode_bitstring_rotation():
    tt = genotype_table(np.array([0, 1, 1, 0], dtype=np.uint8), "bitstring", 3, ROTATION)
    assert tt.bits.tolist() == [0, 1, 1, 1, 1, 1, 1, 0]
    assert is_rotation_symmetric(tt)


def test_bitstring_validation():
    raw = [0, 1, 1, 0]
    checked = check_genotype(raw, "bitstring", 2)
    assert checked.dtype == np.uint8 and checked.tolist() == raw
    # entries are compared before the cast, so 0.7 is not silently 0
    with pytest.raises(ValueError, match="0 or 1"):
        check_genotype([0, 0.7, 1, 0], "bitstring", 2)
    with pytest.raises(ValueError, match="numbers"):
        check_genotype(["0", "1", "1", "0"], "bitstring", 2)
    with pytest.raises(ValueError):
        check_genotype(np.zeros((2, 2), dtype=np.uint8), "bitstring", 2)


# ---------------------------------------------------------------------------
# float


def test_decode_float_quantisation():
    assert float_bits(np.array([0.0, 0.49, 0.51, 0.99, 1.0]), 1).tolist() == [0, 0, 1, 1, 1]


def test_decode_float_msb_first():
    # decode=3: 0.8 -> floor(0.8 * 8) = 6 -> bits 110
    assert float_bits(np.array([0.8]), 3).tolist() == [1, 1, 0]
    # the closed top cell: 1.0 clamps to 7 -> 111
    assert float_bits(np.array([1.0]), 3).tolist() == [1, 1, 1]


def test_decode_float_cell_boundaries():
    # with decode=2 the cells are [0,.25), [.25,.5), [.5,.75), [.75,1]
    bits = float_bits(np.array([0.24, 0.25, 0.5, 0.74999, 0.75]), 2)
    assert bits.reshape(-1, 2).tolist() == [
        [0, 0],
        [0, 1],
        [1, 0],
        [1, 0],
        [1, 1],
    ]


def test_float_bits_matches_floor_and_shift():
    # the bit-table lookup must agree with the floor-and-shift formula,
    # cell edges and both ends of [0, 1] included, on vectors and on 2-D
    # blocks as the evaluator passes them, for every decode up to MAX_DECODE
    rng = np.random.default_rng(59)
    for decode in range(1, MAX_DECODE + 1):
        edges = np.arange((1 << decode) + 1) / (1 << decode)
        for length in (2, 128, 8192):
            values = rng.random(length)
            values[0], values[-1] = 0.0, 1.0
            for vector in (values, np.concatenate([edges, values])):
                got = float_bits(vector, decode)
                want = float_bits_by_floor_and_shift(vector, decode)
                assert got.dtype == want.dtype and np.array_equal(got, want)
        for rows, length in ((1, 2), (16, 32), (4, 2048)):
            block = rng.random((rows, length))
            block[0, 0], block[-1, -1] = 0.0, 1.0
            block[:, 1] = edges[rng.integers(0, len(edges), rows)]
            got = float_bits(block, decode)
            assert got.dtype == np.uint8 and got.shape == (rows * length * decode,)
            for row, bits in zip(block, got.reshape(rows, -1)):
                assert np.array_equal(bits, float_bits_by_floor_and_shift(row, decode))


def test_float_genotype_validation():
    checked = check_genotype([0, 0.5, 1, 0.25], "float", 3, decode=2)
    assert checked.dtype == np.float64 and checked.tolist() == [0, 0.5, 1, 0.25]
    for bad in (-0.1, 1.2, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
            check_genotype([0.5, bad, 0.5, 0.5], "float", 3, decode=2)
    # a bool or numpy int would echo into the record as true or as a value
    # json cannot write
    refused = r"^decode must be an integer in 1\.\.16, got "
    for decode in (0, -2, 17, 2.0, True, np.int64(2), np.int64(4)):
        with pytest.raises(ValueError, match=refused) as error:
            check_genotype([0.5] * 4, "float", 3, decode=decode)
        assert "\n" not in str(error.value)
    # float_bits' bit table has 2**decode + 1 rows; decode 32 and 64 tile n=6
    # but would ask for tables of 2**32 and 2**64 rows
    for decode in (32, 64):
        with pytest.raises(ValueError, match=refused):
            float_dimension(6, decode)
    assert float_dimension(4, 16) == 1


def test_decode_float_genotype_exact_length_required():
    # n=3 general needs 8 bits: 4 entries at decode=2 work
    tt = genotype_table(np.full(4, 0.9), "float", 3, decode=2)
    assert tt.bits.tolist() == [1, 1] * 4
    # 3 entries at decode=3 give 9 bits: rejected
    with pytest.raises(ValueError):
        genotype_table(np.zeros(3), "float", 3, decode=3)
    # rotation mode at n=7 has 20 orbit bits; decode=3 cannot tile it
    with pytest.raises(ValueError):
        genotype_table(np.zeros(20), "float", 7, ROTATION, decode=3)


def test_decode_float_genotype_rotation():
    table = compute_orbits(5)
    dim = float_dimension(5, 2, ROTATION)
    assert dim * 2 == table.num_orbits
    rng = np.random.default_rng(31)
    tt = genotype_table(rng.random(dim), "float", 5, ROTATION, decode=2)
    assert is_rotation_symmetric(tt)


def test_float_dimension():
    assert float_dimension(3, 2) == 4
    assert float_dimension(7, 4, ROTATION) == 5
    with pytest.raises(ValueError):
        float_dimension(7, 3, ROTATION)  # 20 % 3 != 0


# ---------------------------------------------------------------------------
# trees


#: IF(x1, AND2(x2, x3), NOT(x2)) in flat preorder form
IF_TREE = ("IF", 1, "AND2", 2, 3, "NOT", 2)

MALFORMED_TREES = {
    "trailing tokens": ("AND", 1, 2, 3),
    "incomplete": ("IF", 1, "AND2", 2),
    "unknown operator": ("NAND", 1, 2),
    "leaf out of range": ("AND", 1, 4),
    "leaf zero": ("NOT", 0),
    "bool leaf": ("AND", True, 2),
    "str leaf": ("AND", "x1", 2),
    "empty": (),
}


#: what deserialize_genotype reads for each of MALFORMED_TREES
MALFORMED_TREE_TEXTS = {
    "trailing tokens": "AND(x1, x2, x3)",
    "incomplete": "IF(x1, AND2(x2))",
    "unknown operator": "NAND(x1, x2)",
    "leaf out of range": "AND(x1, x4)",
    "leaf zero": "NOT(x0)",
    "bool leaf": "AND(True, x2)",
    "str leaf": 'AND("x1", x2)',
    "empty": "",
}

#: (encoding, n, mode, decode, genotype) that neither entry may accept
BAD_GENOTYPES = {
    "bit 2": ("bitstring", 2, GENERAL, 3, [0, 1, 2, 0]),
    "unknown mode": ("bitstring", 2, "weird", 3, [0, 1, 1, 0]),
    "float 1.2": ("float", 3, GENERAL, 2, [0.5, 1.2, 0.5, 0.5]),
    "float nan": ("float", 3, GENERAL, 2, [0.5, float("nan"), 0.5, 0.5]),
    "float inf": ("float", 3, GENERAL, 2, [0.5, float("inf"), 0.5, 0.5]),
    "float strings": ("float", 3, GENERAL, 2, ["0.5"] * 4),
    "unknown encoding": ("matrix", 2, GENERAL, 3, [0, 1, 1, 0]),
    "decode 0": ("float", 3, GENERAL, 0, [0.5] * 4),
    "bitstring general length": ("bitstring", 3, GENERAL, 3, [0, 1, 1, 0]),
    "bitstring rs length": ("bitstring", 3, ROTATION, 3, [0, 1, 1]),
    "float general length": ("float", 3, GENERAL, 2, [0.5] * 3),
    "float rs length": ("float", 5, ROTATION, 2, [0.5] * 3),
    "tree in rs mode": ("tree", 3, ROTATION, 3, ("AND", 1, 2)),
    "float bools": ("float", 3, GENERAL, 2, [True, False, True, False]),
    "float bool in a list": ("float", 3, GENERAL, 2, [True, 0.5, 0.5, 0.5]),
}


def assert_rejected_at_every_entry(encoding, n, mode, decode, genotype, text=None):
    """The decoder and deserialize_genotype both raise ValueError."""
    with pytest.raises(ValueError):
        genotype_table(genotype, encoding, n, mode, decode)
    data = {"encoding": encoding, "n": n, "mode": mode, "decode": decode}
    if encoding == "bitstring":
        data["bits"] = "".join(str(bit) for bit in genotype)
    elif encoding == "float":
        data["values"] = list(genotype)
    else:
        data["text"] = tree_to_text(genotype) if text is None else text
    with pytest.raises(ValueError):
        deserialize_genotype(json.loads(json.dumps(data)))  # NaN and inf survive JSON


@pytest.mark.parametrize("case", list(BAD_GENOTYPES))
def test_bad_genotypes_rejected_at_every_entry(case):
    assert_rejected_at_every_entry(*BAD_GENOTYPES[case])


@pytest.mark.parametrize("case", list(MALFORMED_TREES))
def test_malformed_trees_rejected_at_every_entry(case):
    assert_rejected_at_every_entry(
        "tree", 3, GENERAL, 3, MALFORMED_TREES[case], MALFORMED_TREE_TEXTS[case]
    )


def test_tree_validation():
    assert check_genotype(("AND", 1, 2), "tree", 2) == ("AND", 1, 2)
    assert check_genotype(IF_TREE, "tree", 3) is IF_TREE
    with pytest.raises(ValueError):
        check_genotype(("NOT", 1, 2), "tree", 2)  # wrong arity leaves a trailing token
    with pytest.raises(ValueError):
        check_genotype(["AND", 1, 2], "tree", 2)  # a list is not a tree
    with pytest.raises(ValueError, match="unknown encoding"):
        check_genotype(("AND", 1, 2), "forest", 2)


def test_operator_semantics():
    n = 2
    assert tree_truth_bits(("AND", 1, 2), n).tolist() == [0, 0, 0, 1]
    assert tree_truth_bits(("OR", 1, 2), n).tolist() == [0, 1, 1, 1]
    assert tree_truth_bits(("XOR", 1, 2), n).tolist() == [0, 1, 1, 0]
    assert tree_truth_bits(("XNOR", 1, 2), n).tolist() == [1, 0, 0, 1]
    assert tree_truth_bits(("AND2", 1, 2), n).tolist() == [0, 0, 1, 0]
    assert tree_truth_bits(("NOT", 1), n).tolist() == [1, 1, 0, 0]
    # IF(x1, x2, x3): x2 where x1 else x3
    got = tree_truth_bits(("IF", 1, 2, 3), 3)
    assert got.tolist() == [0, 1, 0, 1, 0, 0, 1, 1]


def test_tree_evaluator_matches_pointwise_interpreter():
    rng = Draws(32)
    for _ in range(300):
        n = 1 + rng.below(6)
        tree = random_tree(n, rng, max_depth=1 + rng.below(5))
        assert tree_truth_bits(tree, n).tolist() == tree_table_pointwise(tree, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_tree_truth_rows_stack_the_one_tree_columns(n):
    # below n = 3 each tree's packed int takes a byte, trimmed to 2**n columns
    rng = Draws(40 + n)
    trees = [random_tree(n, rng, max_depth=rng.below(6)) for _ in range(12)]
    rows = tree_truth_rows(trees, n)
    assert rows.shape == (len(trees), 1 << n) and rows.dtype == np.uint8
    assert np.array_equal(rows, np.array([tree_truth_bits(tree, n) for tree in trees]))
    assert rows.tolist() == [tree_table_pointwise(tree, n) for tree in trees]


def test_genotype_table_decodes_trees():
    assert genotype_table(("XOR", 1, 2), "tree", 2) == TruthTable(2, [0, 1, 1, 0])
    table = genotype_table(IF_TREE, "tree", 3)
    assert table.bits.tolist() == tree_table_pointwise(IF_TREE, 3)


def test_tree_structure_helpers():
    t = IF_TREE
    assert [subtree_end(t, i) for i in range(len(t))] == [7, 2, 5, 4, 5, 7, 7]
    assert [subtree_end(t, 1, count) for count in range(4)] == [1, 2, 5, 7]
    assert node_depths(t) == [0, 1, 1, 2, 2, 1, 2]
    assert tree_depth(t) == 2
    assert tree_depth((1,)) == 0


def test_depth_walks_match_the_recursive_reference():
    rng = Draws(37)
    for n in range(1, 8):
        for depth in range(9):
            for method in ("grow", "grow", "full"):
                tree = random_tree(n, rng, max_depth=depth, method=method)
                assert node_depths(tree) == node_depths_by_recursion(tree)
                assert tree_depth(tree) == tree_depth_by_recursion(tree)


def test_random_node_matches_the_list_pushes():
    # same trees and the same next draw; a negative budget, which a mutation
    # below a node deeper than its cap draws at, makes one leaf
    rng, oracle_rng = Draws(38), Draws(38)
    for n in range(1, 8):
        for budget in range(-1, 9):
            for method in ("grow", "full"):
                for _ in range(3):
                    want = random_node_by_list_pushes(n, oracle_rng, budget, method)
                    assert _random_node(n, rng, budget, method) == want
                    assert rng.below(1 << 62) == oracle_rng.below(1 << 62)


def low_word_below_accepts(k):
    """A word whose product with ``k`` has a low word below ``k`` that
    ``below`` still accepts: exactly its threshold ``(2**64 - k) % k``."""
    threshold = (2**64 - k) % k
    shift = (k & -k).bit_length() - 1  # the twos in k, which divide the threshold too
    word = (threshold >> shift) * pow(k >> shift, -1, 2 ** (64 - shift)) % 2**64
    assert 0 < (word * k) % 2**64 == threshold < k
    return word


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("method", ["grow", "full"])
def test_random_node_hands_low_products_back_to_below(n, method):
    # no bound at n = 3, 5 or 7 (n, n + 7 and 7) is a power of two, so below
    # rejects the word 0, whose low product 0 is under (2**64 - k) % k, and
    # reads the next word; a word at that threshold has a low product under
    # k too, but below takes it.  The inline draw must hand both to below
    inner = 7 if method == "full" else n + 7  # the bound of every draw at budget > 0
    consumed = {}
    for word in (0, low_word_below_accepts(inner), low_word_below_accepts(n)):
        for seed in range(12):
            for position in range(4):
                rng = Draws(seed)
                rng.below(2)  # fills the block
                words = rng._words
                words.insert(len(words) - position, word)  # read after `position` words
                unread = len(words)
                oracle_rng = copy.deepcopy(rng)
                want = random_node_by_list_pushes(n, oracle_rng, 3, method)
                assert _random_node(n, rng, 3, method) == want
                assert rng.below(1 << 62) == oracle_rng.below(1 << 62)
                used = unread - len(rng._words) - 1 > position
                consumed[position] = consumed.get(position, 0) + used
    # a root draw always reads the word, and the later draws often do
    assert consumed[0] == 3 * 12
    assert min(consumed.values()) > 12


def test_random_node_refills_mid_tree_as_below_does():
    # the word list drained to a few words, so a tree refills while drawing
    refilled = 0
    for n in (3, 5, 7):
        for method in ("grow", "full"):
            for seed in range(12):
                for left in range(4):
                    rng = Draws(100 + seed)
                    rng.below(2)
                    del rng._words[: len(rng._words) - left]  # keeps the next `left`
                    oracle_rng = copy.deepcopy(rng)
                    want = random_node_by_list_pushes(n, oracle_rng, 3, method)
                    assert _random_node(n, rng, 3, method) == want
                    refilled += len(rng._words) > left
                    assert rng.below(1 << 62) == oracle_rng.below(1 << 62)
    assert refilled > 3 * 2 * 12


def test_tree_text_round_trip():
    t = ("IF", 1, "AND2", 2, 3, "NOT", 4)
    text = tree_to_text(t)
    assert text == "IF(x1, AND2(x2, x3), NOT(x4))"
    assert tree_from_text(text) == t
    assert tree_to_text((3,)) == "x3" and tree_from_text(" x3 ") == (3,)
    rng = Draws(33)
    for _ in range(50):
        t = random_tree(5, rng, max_depth=4)
        assert tree_from_text(tree_to_text(t)) == t
    assert tree_from_text("AND( x1 ,x2 )") == ("AND", 1, 2)
    for bad in (
        "FOO(x1, x2)", "AND(x1)", "x1 x2", "", "AND(x1 x2)", "AND(x1, x2",
        "AND(x1, x2))", "AND x1, x2", "NOT(x1)(x2)", "x", "x1.5",
    ):
        with pytest.raises(ValueError):
            tree_from_text(bad)


def test_random_tree_respects_limits():
    rng = Draws(34)
    for _ in range(100):
        depth = 1 + rng.below(7)
        t = random_tree(4, rng, max_depth=depth, method="grow")
        assert tree_depth(t) <= depth
        assert len(t) <= 500
    for _ in range(30):
        t = random_tree(4, rng, max_depth=3, method="full")
        assert tree_depth(t) == 3
    # a full tree of depth 1 already has three nodes or two, so a one-node
    # cap leaves the lone-leaf fallback
    for _ in range(5):
        t = random_tree(4, rng, max_depth=3, method="full", max_nodes=1)
        assert len(t) == 1 and 1 <= t[0] <= 4
    with pytest.raises(ValueError, match="^unknown tree init method 'ramped'$"):
        random_tree(4, rng, method="ramped")


def test_random_genotype_kinds():
    rng = Draws(35)
    g = random_genotype("bitstring", 4, rng)
    assert g.dtype == np.uint8 and g.shape == (16,)
    assert np.array_equal(check_genotype(g, "bitstring", 4), g)
    g = random_genotype("bitstring", 7, rng, mode=ROTATION)
    assert g.shape == (20,)
    g = random_genotype("float", 3, rng, decode=2)
    assert g.dtype == np.float64 and g.shape == (4,)
    assert np.array_equal(check_genotype(g, "float", 3, decode=2), g)
    g = random_genotype("tree", 5, rng, max_depth=5)
    assert check_genotype(g, "tree", 5) is g
    assert tree_depth(g) <= 5
    with pytest.raises(ValueError):
        random_genotype("matrix", 3, rng)
    with pytest.raises(ValueError):
        random_genotype("bitstring", 3, rng, mode="weird")


@pytest.mark.parametrize("max_depth", [1, 2, 3])
def test_random_genotype_respects_the_depth_cap(max_depth):
    rng = Draws(36)
    trees = [random_genotype("tree", 5, rng, max_depth=max_depth) for _ in range(200)]
    assert max(map(tree_depth, trees)) == max_depth
