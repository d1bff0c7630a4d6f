"""Variation operators for the three genotype encodings.

The bitstring and float operators are row-block operators: they take the
parents of a block of children as 2-D arrays, one row per child, and return
the children as a new 2-D array.  Each row draws its own kind of crossover
or mutation, so a block has the distribution of as many children made one
at a time.  The per-row decisions are scalar draws, which cost less than
vector draws at these row counts.  The tree operators take and return one
raw genotype, a flat preorder token tuple; they address nodes by preorder
index and splice every child as ``a[:i] + donor + a[end:]`` at subtree ends
the operator has walked, and walk a child's depths once, in the
crossover's cap check (:func:`make_operators`).  Every random decision
comes from the :class:`~boolevo.draws.Draws` an operator is handed, so runs
replay exactly from a seed.
"""

from __future__ import annotations

import numpy as np

from .draws import _LOW, Draws
from .encodings import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_NODES,
    OPERATOR_ARITY,
    Tree,
    _random_node,
    node_depths,
    subtree_end,
)

#: Longest window of 1-byte entries that the bit mutation shuffles in place:
#: numpy swaps only 8-byte items fast, so a longer one is gathered
_IN_PLACE_WINDOW = 128


# ---------------------------------------------------------------------------
# bitstring


def mutate_bitstring(rows: np.ndarray, rng: Draws) -> np.ndarray:
    """Flip one bit of each row, or shuffle a window of it, chosen uniformly.

    A row draws the coin, then a uniform position, which a flip flips.  A
    shuffle takes it as ``a``, draws ``b`` and reorders the window
    ``[min(a, b), max(a, b)]`` with the Fisher-Yates draws of
    ``rng.permutation(window)``, and so makes the same child.  Rows of
    8-byte entries, such as the local search's int64 index rows, and 1-byte
    windows of up to ``_IN_PLACE_WINDOW`` entries are shuffled in place
    (:meth:`Draws.shuffle`).  A longer 1-byte window is gathered through a
    shuffled int64 ``arange`` instead, since numpy swaps only 8-byte items
    fast: shuffling a uint8 window in place is slower from a few hundred
    entries up.  Works on rows of any integer type, so the local search can
    record moves on rows of indices.

    The coin and the positions are ``rng.below`` taken inline, as in
    :mod:`boolevo.draws`: the coin is one word's top bit, and a position the
    high word of one word times the row length, unless its low word is
    under the length, when the word goes back to ``below``.
    """
    count, length = rows.shape
    if count and length < 1:
        raise ValueError(f"mutation needs rows of at least 1 entry, got {length}")
    children = rows.copy()
    flat = children.reshape(-1)  # a view: a flip indexes it once
    in_place = children.itemsize == 8
    words, refill, below = rng._words, rng._refill, rng.below
    for row in range(count):
        if not words:
            refill()
        shuffle = words.pop() >> 63
        if not words:
            refill()
        word = words.pop()
        a = word * length
        if a & _LOW >= length:
            a >>= 64
        else:
            words.append(word)
            a = below(length)
        if not shuffle:
            flat[row * length + a] ^= 1
            continue
        if not words:
            refill()
        word = words.pop()
        b = word * length
        if b & _LOW >= length:
            b >>= 64
        else:
            words.append(word)
            b = below(length)
        start, stop = (a, b + 1) if a < b else (b, a + 1)
        window = children[row, start:stop]
        if in_place or stop - start <= _IN_PLACE_WINDOW:
            rng.shuffle(window)
        else:
            window[:] = window[rng.permutation(stop - start)]
    return children


def crossover_bitstring(a: np.ndarray, b: np.ndarray, rng: Draws) -> np.ndarray:
    """One-point or uniform crossover of each row pair, chosen uniformly.

    One-point takes ``a`` up to a uniform cut in ``1 .. length - 1`` and
    ``b`` after it.  Uniform takes each position from ``a`` or ``b`` by one
    uniform bit, 1 taking ``a``; the rows that draw it share one draw of
    bits and one select, the bit identity ``b ^ ((a ^ b) & mask)``.  The
    coin and the cut are ``rng.below`` taken inline, as in
    :func:`mutate_bitstring`.
    """
    count, length = a.shape
    children = b.copy()
    words, refill, below = rng._words, rng._refill, rng.below
    cuts = length - 1
    if count and cuts < 1:
        raise ValueError(f"one-point crossover needs rows of at least 2 entries, got {length}")
    mixed = []
    for row in range(count):
        if not words:
            refill()
        if words.pop() >> 63:
            mixed.append(row)
        else:
            if not words:
                refill()
            word = words.pop()
            cut = word * cuts
            if cut & _LOW >= cuts:
                cut = 1 + (cut >> 64)
            else:
                words.append(word)
                cut = 1 + below(cuts)
            children[row, :cut] = a[row, :cut]
    if mixed:
        take_a = rng.bits(len(mixed) * length).reshape(len(mixed), length)
        children[mixed] ^= (a[mixed] ^ b[mixed]) & take_a
    return children


# ---------------------------------------------------------------------------
# float


def mutate_float(rows: np.ndarray, rng: Draws) -> np.ndarray:
    """Resample one uniform coordinate of each row in [0, 1)."""
    count, length = rows.shape
    children = rows.copy()
    for row in range(count):
        children[row, rng.below(length)] = rng.uniform()
    return children


def crossover_float(a: np.ndarray, b: np.ndarray, rng: Draws) -> np.ndarray:
    """Arithmetic mean or per-coordinate uniform mix of each row pair, chosen uniformly.

    The rows that draw the mix share one draw of bits, 1 taking ``a``.
    """
    count, length = a.shape
    children = 0.5 * (a + b)
    mixed = [row for row in range(count) if rng.below(2)]
    if mixed:
        take_a = rng.bits(len(mixed) * length).reshape(len(mixed), length).view(bool)
        children[mixed] = np.where(take_a, a[mixed], b[mixed])
    return children


# ---------------------------------------------------------------------------
# trees

_TREE_RETRIES = 5


def _splice_fits(depths: list[int], index: int, end: int, max_depth: int) -> bool:
    """Whether ``tree[:index] + subtree + tree[end:]`` fits ``max_depth``, with
    ``depths = node_depths(tree)``.  A grow ``subtree`` drawn at budget
    ``max_depth - depths[index]`` is never taller than ``max(budget, 0)``,
    so it fits exactly when its root does."""
    return (
        depths[index] <= max_depth
        and max(depths[:index], default=0) <= max_depth
        and max(depths[end:], default=0) <= max_depth
    )


def subtree_mutation(
    tree: Tree, n: int, rng: Draws, max_depth: int, max_nodes: int, depths=None
) -> Tree:
    """Replace a random node with a fresh grow-tree fitted to the depth cap.

    ``depths`` is ``node_depths(tree)``, walked here unless given; no
    candidate child is walked (:func:`_splice_fits`).
    """
    if depths is None:
        depths = node_depths(tree)
    for _ in range(_TREE_RETRIES):
        index = rng.below(len(tree))
        subtree = _random_node(n, rng, max_depth - depths[index], "grow")
        end = subtree_end(tree, index)
        child = tree[:index] + subtree + tree[end:]
        if len(child) <= max_nodes and _splice_fits(depths, index, end, max_depth):
            return child
    return tree


def subtree_crossover(a: Tree, b: Tree, rng: Draws) -> Tree:
    """Swap a random subtree of ``a`` for a random subtree of ``b``."""
    i, j = rng.below(len(a)), rng.below(len(b))
    return a[:i] + b[j : subtree_end(b, j)] + a[subtree_end(a, i) :]


def uniform_tree_crossover(a: Tree, b: Tree, rng: Draws) -> Tree:
    """Mix the parents node by node over their common shape.

    Where both parents carry operators of the same arity the child takes one
    of the two operators and goes on into the paired children; anywhere the
    shapes diverge it takes the whole subtree from one parent.  One draw per
    pair of the joint walk, in preorder.
    """
    pairs, ends = _joint_preorder(a, b, any_arity=False)
    arity_of = OPERATOR_ARITY.get
    below = rng.below
    child: list = []
    for (i, j), (end_i, end_j) in zip(pairs, ends):
        # a pair of leaves takes one token either way
        if arity_of(a[i], 0) == arity_of(b[j], 0):
            child.append(a[i] if below(2) else b[j])
        else:
            child.extend(a[i:end_i] if below(2) else b[j:end_j])
    return tuple(child)


def size_fair_crossover(a: Tree, b: Tree, rng: Draws) -> Tree:
    """Subtree swap where the donor is at most twice-plus-one the removed size."""
    index_a = rng.below(len(a))
    end_a = subtree_end(a, index_a)
    limit = 2 * (end_a - index_a) + 1
    arity_of = OPERATOR_ARITY.get
    # one reverse pass over b: a subtree ends where its last child's ends
    donors = []  # (start, end) of each donor that fits the limit, last one first
    ends = []  # subtree ends of the nodes whose parent is still to come
    for j in range(len(b) - 1, -1, -1):
        arity = arity_of(b[j], 0)
        if arity:
            # the first child's end is on top; the last child's, which is
            # this node's end too, stays on the stack
            if arity > 1:
                ends.pop()
                if arity > 2:
                    ends.pop()
            end = ends[-1]
        else:
            end = j + 1
            ends.append(end)
        if end - j <= limit:
            donors.append((j, end))
    # the draw indexes the donors in preorder
    start, end = donors[len(donors) - 1 - rng.below(len(donors))]
    return a[:index_a] + b[start:end] + a[end_a:]


def _joint_preorder(a: Tree, b: Tree, any_arity: bool) -> tuple[list, list]:
    """Preorder ``(i, j)`` pairs of the nodes at the same coordinates in both
    trees, and the ``(end_i, end_j)`` ends of each pair's two subtrees.

    The walk goes on into paired children where the two arities agree, or,
    with ``any_arity``, into the child slots that both nodes have; after them
    a node's unpaired children are skipped by one ``subtree_end`` per tree.
    When a pair closes the walk stands at the ends of its two subtrees.
    """
    arity_of = OPERATOR_ARITY.get
    pairs: list[tuple[int, int]] = []
    ends: list = []
    i = j = 0
    # per pair on the path: [paired children left, unpaired in a, in b, its index]
    open_nodes = []
    while True:
        arity_a, arity_b = arity_of(a[i], 0), arity_of(b[j], 0)
        shared = min(arity_a, arity_b) if any_arity or arity_a == arity_b else 0
        node = [shared, arity_a - shared, arity_b - shared, len(pairs)]
        pairs.append((i, j))
        ends.append(None)
        i, j = i + 1, j + 1
        open_nodes.append(node)
        while not node[0]:
            open_nodes.pop()
            if node[1] or node[2]:
                i, j = subtree_end(a, i, node[1]), subtree_end(b, j, node[2])
            ends[node[3]] = (i, j)
            if not open_nodes:
                return pairs, ends
            node = open_nodes[-1]
        node[0] -= 1


def _swap_at_pair(a: Tree, b: Tree, joint: tuple[list, list], rng: Draws) -> Tree:
    pairs, ends = joint
    pick = rng.below(len(pairs))
    (i, j), (end_i, end_j) = pairs[pick], ends[pick]
    return a[:i] + b[j:end_j] + a[end_i:]


def one_point_tree_crossover(a: Tree, b: Tree, rng: Draws) -> Tree:
    """Swap at one point of the common region, where the arities agree."""
    return _swap_at_pair(a, b, _joint_preorder(a, b, any_arity=False), rng)


def context_preserving_crossover(a: Tree, b: Tree, rng: Draws) -> Tree:
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
    rng: Draws,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[Tree, list[int] | None]:
    """One of five tree crossovers, chosen uniformly per call, and its ``node_depths``.

    If the offspring breaks the depth or size cap the draw is retried a few
    times; after that the first parent comes back unchanged with None for its
    depths (trees are immutable tuples, so the parent itself is a safe copy).
    """
    for _ in range(_TREE_RETRIES):
        op = _TREE_CROSSOVERS[rng.below(len(_TREE_CROSSOVERS))]
        child = op(a, b, rng)
        if len(child) <= max_nodes:
            depths = node_depths(child)
            if max(depths) <= max_depth:
                return child, depths
    return a, None


# ---------------------------------------------------------------------------
# dispatch


def make_operators(
    encoding: str, n: int, max_depth: int = DEFAULT_MAX_DEPTH, max_nodes: int = DEFAULT_MAX_NODES
):
    """Bind ``(mutate, crossover)`` callables for one encoding.

    Row-block operators for bitstrings and floats, one child per call for
    trees.
    """
    if encoding == "bitstring":
        return mutate_bitstring, crossover_bitstring
    if encoding == "float":
        return mutate_float, crossover_float
    if encoding == "tree":
        last = [None, None]  # the last crossover's child and its depths, or a parent and None

        def mutate(tree, rng):
            depths = last[1] if tree is last[0] else None
            return subtree_mutation(tree, n, rng, max_depth, max_nodes, depths)

        def crossover(a, b, rng):
            last[:] = crossover_tree(a, b, rng, max_depth, max_nodes)
            return last[0]

        return mutate, crossover
    raise ValueError(f"unknown encoding {encoding!r}")
