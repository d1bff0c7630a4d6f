"""Variation operators for the three genotype encodings.

All operators take and return raw genotypes (uint8 arrays, float64 arrays,
flat preorder token tuples for trees) and draw every random decision from
the generator they are handed, so runs replay exactly from a seed.  Tree
operators address nodes by preorder index and build children by splicing.
"""

from __future__ import annotations

import numpy as np

from .encodings import (
    OPERATOR_ARITY,
    Tree,
    _random_node,
    node_depths,
    replace_at,
    subtree_at,
    subtree_end,
    tree_depth,
)

# ---------------------------------------------------------------------------
# bitstring


def bit_mutation(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flip one uniformly chosen bit."""
    child = bits.copy()
    child[int(rng.integers(child.shape[0]))] ^= 1
    return child


def shuffle_mutation(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Shuffle the bits inside a random window [start, end]."""
    child = bits.copy()
    a = int(rng.integers(child.shape[0]))
    b = int(rng.integers(child.shape[0]))
    start, end = min(a, b), max(a, b)
    child[start : end + 1] = rng.permutation(child[start : end + 1])
    return child


def mutate_bitstring(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply bit-flip or window-shuffle mutation, chosen uniformly."""
    if rng.integers(2):
        return shuffle_mutation(bits, rng)
    return bit_mutation(bits, rng)


def one_point_crossover(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """First part of ``a`` up to a random breakpoint, rest of ``b``."""
    if a.shape[0] < 2:
        return a.copy()
    cut = int(rng.integers(1, a.shape[0]))
    return np.concatenate([a[:cut], b[cut:]])


def uniform_crossover(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Each position independently from either parent."""
    take_a = rng.integers(0, 2, a.shape[0]).astype(bool)
    return np.where(take_a, a, b)


def crossover_bitstring(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One-point or uniform crossover, chosen uniformly."""
    if rng.integers(2):
        return uniform_crossover(a, b, rng)
    return one_point_crossover(a, b, rng)


# ---------------------------------------------------------------------------
# float


def mutate_float(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Resample one uniformly chosen coordinate in [0, 1]."""
    child = values.copy()
    child[int(rng.integers(child.shape[0]))] = rng.random()
    return child


def crossover_float(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Arithmetic mean or per-coordinate uniform mix, chosen uniformly."""
    if rng.integers(2):
        take_a = rng.integers(0, 2, a.shape[0]).astype(bool)
        return np.where(take_a, a, b)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# trees

_TREE_RETRIES = 5


def _within_limits(tree: Tree, max_depth: int, max_nodes: int) -> bool:
    return len(tree) <= max_nodes and tree_depth(tree) <= max_depth


def subtree_mutation(
    tree: Tree, n: int, rng: np.random.Generator, max_depth: int, max_nodes: int
) -> Tree:
    """Replace a random node with a fresh grow-tree fitted to the depth cap."""
    depths = node_depths(tree)
    for _ in range(_TREE_RETRIES):
        index = int(rng.integers(len(tree)))
        budget = max_depth - depths[index]
        child = replace_at(tree, index, _random_node(n, rng, budget, "grow"))
        if _within_limits(child, max_depth, max_nodes):
            return child
    return tree


def subtree_crossover(a: Tree, b: Tree, rng: np.random.Generator) -> Tree:
    """Swap a random subtree of ``a`` for a random subtree of ``b``."""
    index_a = int(rng.integers(len(a)))
    index_b = int(rng.integers(len(b)))
    return replace_at(a, index_a, subtree_at(b, index_b))


def uniform_tree_crossover(a: Tree, b: Tree, rng: np.random.Generator) -> Tree:
    """Mix the parents node by node over their common shape.

    Where both parents carry operators of the same arity the child takes one
    of the two operators and goes on into the paired children; anywhere the
    shapes diverge it takes the whole subtree from one parent.
    """
    child: list = []
    i = j = 0
    unpaired = 1  # paired subtrees still to emit
    while unpaired:
        unpaired -= 1
        arity = OPERATOR_ARITY.get(a[i], 0)
        if arity and arity == OPERATOR_ARITY.get(b[j], 0):
            child.append(a[i] if rng.integers(2) else b[j])
            i, j = i + 1, j + 1
            unpaired += arity
        else:
            end_a, end_b = subtree_end(a, i), subtree_end(b, j)
            child.extend(a[i:end_a] if rng.integers(2) else b[j:end_b])
            i, j = end_a, end_b
    return tuple(child)


def size_fair_crossover(a: Tree, b: Tree, rng: np.random.Generator) -> Tree:
    """Subtree swap where the donor is at most twice-plus-one the removed size."""
    index_a = int(rng.integers(len(a)))
    limit = 2 * (subtree_end(a, index_a) - index_a) + 1
    donors = [j for j in range(len(b)) if subtree_end(b, j) - j <= limit]
    donor = donors[int(rng.integers(len(donors)))]
    return replace_at(a, index_a, subtree_at(b, donor))


def _joint_preorder(a: Tree, b: Tree, any_arity: bool) -> list[tuple[int, int]]:
    """Preorder ``(i, j)`` pairs of the nodes at the same coordinates in both trees.

    The walk goes on into paired children where the two arities agree, or,
    with ``any_arity``, into the child slots that both nodes have.
    """
    pairs: list[tuple[int, int]] = []

    def walk(i: int, j: int) -> tuple[int, int]:
        pairs.append((i, j))
        arity_a = OPERATOR_ARITY.get(a[i], 0)
        arity_b = OPERATOR_ARITY.get(b[j], 0)
        shared = min(arity_a, arity_b) if any_arity or arity_a == arity_b else 0
        i, j = i + 1, j + 1
        for _ in range(shared):
            i, j = walk(i, j)
        for _ in range(arity_a - shared):
            i = subtree_end(a, i)
        for _ in range(arity_b - shared):
            j = subtree_end(b, j)
        return i, j

    walk(0, 0)
    return pairs


def _swap_at_pair(a: Tree, b: Tree, pairs: list, rng: np.random.Generator) -> Tree:
    i, j = pairs[int(rng.integers(len(pairs)))]
    return replace_at(a, i, subtree_at(b, j))


def one_point_tree_crossover(a: Tree, b: Tree, rng: np.random.Generator) -> Tree:
    """Swap at one point of the common region, where the arities agree."""
    return _swap_at_pair(a, b, _joint_preorder(a, b, any_arity=False), rng)


def context_preserving_crossover(a: Tree, b: Tree, rng: np.random.Generator) -> Tree:
    """Swap subtrees that sit at identical coordinates in both parents."""
    return _swap_at_pair(a, b, _joint_preorder(a, b, any_arity=True), rng)


_TREE_CROSSOVERS = (
    subtree_crossover,
    uniform_tree_crossover,
    size_fair_crossover,
    one_point_tree_crossover,
    context_preserving_crossover,
)


def crossover_tree(
    a: Tree,
    b: Tree,
    rng: np.random.Generator,
    max_depth: int = 7,
    max_nodes: int = 500,
) -> Tree:
    """One of five tree crossovers, chosen uniformly per call.

    If the offspring breaks the depth or size cap the draw is retried a few
    times; after that the first parent is returned unchanged (trees are
    immutable tuples, so the parent itself is a safe copy).
    """
    for _ in range(_TREE_RETRIES):
        op = _TREE_CROSSOVERS[int(rng.integers(len(_TREE_CROSSOVERS)))]
        child = op(a, b, rng)
        if _within_limits(child, max_depth, max_nodes):
            return child
    return a


# ---------------------------------------------------------------------------
# dispatch


def make_operators(encoding: str, n: int, max_depth: int = 7, max_nodes: int = 500):
    """Bind ``(mutate, crossover)`` callables for one encoding."""
    if encoding == "bitstring":
        return mutate_bitstring, crossover_bitstring
    if encoding == "float":
        return mutate_float, crossover_float
    if encoding == "tree":

        def mutate(tree, rng):
            return subtree_mutation(tree, n, rng, max_depth, max_nodes)

        def crossover(a, b, rng):
            return crossover_tree(a, b, rng, max_depth, max_nodes)

        return mutate, crossover
    raise ValueError(f"unknown encoding {encoding!r}")
