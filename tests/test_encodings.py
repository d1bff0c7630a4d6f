"""Encoding/decoding behaviour, with the tree evaluator checked against a
separate per-assignment interpreter."""

import numpy as np
import pytest
from oracles import tree_table_pointwise

from boolevo.encodings import (
    GENERAL,
    ROTATION,
    BitstringGenotype,
    FloatGenotype,
    GpTree,
    decode_bitstring,
    decode_float,
    decode_float_genotype,
    evaluate_tree,
    float_dimension,
    node_depths,
    random_genotype,
    random_tree,
    replace_at,
    subtree_at,
    subtree_end,
    tree_depth,
    tree_from_text,
    tree_to_text,
    tree_truth_bits,
)
from boolevo.orbits import compute_orbits, is_rotation_symmetric
from boolevo.truthtable import TruthTable


# ---------------------------------------------------------------------------
# bitstring


def test_decode_bitstring_general():
    g = BitstringGenotype(np.array([0, 1, 1, 0], dtype=np.uint8))
    assert decode_bitstring(g, 2) == TruthTable(2, [0, 1, 1, 0])
    with pytest.raises(ValueError):
        decode_bitstring(g, 3)


def test_decode_bitstring_rotation():
    g = BitstringGenotype(np.array([0, 1, 1, 0], dtype=np.uint8), ROTATION)
    tt = decode_bitstring(g, 3)
    assert tt.bits.tolist() == [0, 1, 1, 1, 1, 1, 1, 0]
    assert is_rotation_symmetric(tt)


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitstringGenotype(np.array([0, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        BitstringGenotype(np.zeros(4, dtype=np.uint8), "weird")


# ---------------------------------------------------------------------------
# float


def test_decode_float_quantisation():
    g = FloatGenotype(np.array([0.0, 0.49, 0.51, 0.99, 1.0]), decode=1)
    assert decode_float(g).tolist() == [0, 0, 1, 1, 1]


def test_decode_float_msb_first():
    # decode=3: 0.8 -> floor(0.8 * 8) = 6 -> bits 110
    g = FloatGenotype(np.array([0.8]), decode=3)
    assert decode_float(g).tolist() == [1, 1, 0]
    # the closed top cell: 1.0 clamps to 7 -> 111
    g = FloatGenotype(np.array([1.0]), decode=3)
    assert decode_float(g).tolist() == [1, 1, 1]


def test_decode_float_cell_boundaries():
    # with decode=2 the cells are [0,.25), [.25,.5), [.5,.75), [.75,1]
    g = FloatGenotype(np.array([0.24, 0.25, 0.5, 0.74999, 0.75]), decode=2)
    assert decode_float(g).reshape(-1, 2).tolist() == [
        [0, 0],
        [0, 1],
        [1, 0],
        [1, 0],
        [1, 1],
    ]


def test_float_genotype_validation():
    with pytest.raises(ValueError):
        FloatGenotype(np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        FloatGenotype(np.array([0.5]), decode=0)


def test_decode_float_genotype_exact_length_required():
    # n=3 general needs 8 bits: 4 entries at decode=2 work
    g = FloatGenotype(np.full(4, 0.9), decode=2)
    tt = decode_float_genotype(g, 3)
    assert tt.bits.tolist() == [1, 1] * 4
    # 3 entries at decode=3 give 9 bits: rejected
    with pytest.raises(ValueError):
        decode_float_genotype(FloatGenotype(np.zeros(3), decode=3), 3)
    # rotation mode at n=7 has 20 orbit bits; decode=3 cannot tile it
    with pytest.raises(ValueError):
        decode_float_genotype(FloatGenotype(np.zeros(20), decode=3, mode=ROTATION), 7)


def test_decode_float_genotype_rotation():
    table = compute_orbits(5)
    dim = float_dimension(5, 2, ROTATION)
    assert dim * 2 == table.num_orbits
    rng = np.random.default_rng(31)
    g = FloatGenotype(rng.random(dim), decode=2, mode=ROTATION)
    tt = decode_float_genotype(g, 5)
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


def test_tree_validation():
    GpTree(("AND", 1, 2), 2)
    GpTree(IF_TREE, 3)
    with pytest.raises(ValueError):
        GpTree(("NOT", 1, 2), 2)  # wrong arity leaves a trailing token
    with pytest.raises(ValueError):
        GpTree(["AND", 1, 2], 2)  # a list is not a tree


@pytest.mark.parametrize("case", list(MALFORMED_TREES))
def test_malformed_trees_rejected_at_every_entry(case):
    tree = MALFORMED_TREES[case]
    with pytest.raises(ValueError):
        GpTree(tree, 3)
    with pytest.raises(ValueError):
        evaluate_tree(tree, 3)


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
    rng = np.random.default_rng(32)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        tree = random_tree(n, rng, max_depth=int(rng.integers(1, 6)))
        assert tree_truth_bits(tree, n).tolist() == tree_table_pointwise(tree, n)


def test_evaluate_tree_wrapper():
    g = GpTree(("XOR", 1, 2), 2)
    assert evaluate_tree(g) == TruthTable(2, [0, 1, 1, 0])
    assert evaluate_tree(("XOR", 1, 2), 2) == TruthTable(2, [0, 1, 1, 0])
    with pytest.raises(ValueError):
        evaluate_tree((1,))  # bare tree needs n


def test_tree_structure_helpers():
    t = IF_TREE
    assert [subtree_end(t, i) for i in range(len(t))] == [7, 2, 5, 4, 5, 7, 7]
    assert node_depths(t) == [0, 1, 1, 2, 2, 1, 2]
    assert tree_depth(t) == 2
    assert tree_depth((1,)) == 0
    assert subtree_at(t, 0) == t
    assert subtree_at(t, 2) == ("AND2", 2, 3)
    assert subtree_at(t, 6) == (2,)
    assert replace_at(t, 5, (3,)) == ("IF", 1, "AND2", 2, 3, 3)
    assert replace_at(t, 1, ("NOT", 3)) == ("IF", "NOT", 3, "AND2", 2, 3, "NOT", 2)
    assert replace_at(t, 0, (1,)) == (1,)
    for bad in (7, -1):
        with pytest.raises(IndexError):
            subtree_at(t, bad)
        with pytest.raises(IndexError):
            replace_at(t, bad, (1,))


def test_tree_text_round_trip():
    t = ("IF", 1, "AND2", 2, 3, "NOT", 4)
    text = tree_to_text(t)
    assert text == "IF(x1, AND2(x2, x3), NOT(x4))"
    assert tree_from_text(text) == t
    assert tree_to_text((3,)) == "x3" and tree_from_text(" x3 ") == (3,)
    rng = np.random.default_rng(33)
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
    rng = np.random.default_rng(34)
    for _ in range(100):
        depth = int(rng.integers(1, 8))
        t = random_tree(4, rng, max_depth=depth, method="grow")
        assert tree_depth(t) <= depth
        assert len(t) <= 500
    for _ in range(30):
        t = random_tree(4, rng, max_depth=3, method="full")
        assert tree_depth(t) == 3


def test_random_genotype_kinds():
    rng = np.random.default_rng(35)
    g = random_genotype("bitstring", 4, rng)
    assert isinstance(g, BitstringGenotype) and len(g) == 16
    g = random_genotype("bitstring", 7, rng, mode=ROTATION)
    assert len(g) == 20
    g = random_genotype("float", 3, rng, decode=2)
    assert isinstance(g, FloatGenotype) and g.dimension == 4
    g = random_genotype("tree", 5, rng, max_depth=5)
    assert isinstance(g, GpTree)
    assert tree_depth(g.root) <= 5
    with pytest.raises(ValueError):
        random_genotype("matrix", 3, rng)
    assert random_genotype("bitstring", 3, rng, mode=GENERAL).mode == GENERAL
