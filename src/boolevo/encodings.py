"""Genotype encodings: bitstrings, float vectors and Boolean expression trees.

Every genotype is a raw value, the same form the search loops carry:

* a bitstring is a uint8 array of 0/1, one entry per truth-table row, or
  one per rotation orbit in the rotation-symmetric mode;
* a float vector is a float64 array in ``[0, 1]`` whose entries each
  quantise to ``decode`` bits (:func:`float_bits`);
* a tree is one flat tuple of tokens in preorder: an operator name for an
  inner node, the variable index ``v`` in ``1..n`` for the leaf ``x_v``.
  ``IF(x1, AND2(x2, x3), NOT(x2))`` is ``("IF", 1, "AND2", 2, 3, "NOT", 2)``.
  A node is addressed by its preorder index, the subtree rooted there is
  the slice ``tree[i:subtree_end(tree, i)]`` and its size is that slice's
  length; the tree operators splice children from such slices.

A genotype from outside the search goes through :func:`check_genotype`, the
one validator, and :func:`genotype_table` is the one decoder to a truth
table; the evaluator trusts the genotypes the search makes.  A search space
goes through :func:`check_space`, whose ``decode`` is checked by
:func:`~boolevo.truthtable.check_int`, like every integer option.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from .draws import _LOW, Draws
from .orbits import compute_orbits, expand
from .truthtable import TruthTable, _check_bits, _check_dimension, check_int

#: Operator name -> arity.  AND2 is the masking conjunction a AND NOT b,
#: IF(a, b, c) returns b where a is true and c elsewhere.
OPERATOR_ARITY = {
    "OR": 2,
    "XOR": 2,
    "AND": 2,
    "AND2": 2,
    "XNOR": 2,
    "NOT": 1,
    "IF": 3,
}

OPERATOR_NAMES = tuple(OPERATOR_ARITY)

Tree = tuple


# ---------------------------------------------------------------------------
# search spaces

GENERAL = "general"
ROTATION = "rs"
MODES = (GENERAL, ROTATION)
ENCODINGS = ("bitstring", "float", "tree")

#: Bits per float entry unless a run says otherwise.  4 tiles 2**n for every
#: n >= 2 and the orbit count for every odd n from 3 to 15.
DEFAULT_DECODE = 4
#: Most bits per float entry: :func:`float_bits` reads them from a cached
#: table of ``2**decode + 1`` rows, 1 MiB at this cap.
MAX_DECODE = 16
#: Tree depth and size caps unless a run says otherwise.
DEFAULT_MAX_DEPTH = 7
DEFAULT_MAX_NODES = 500


def target_length(n: int, mode: str = GENERAL) -> int:
    """Bits a genotype decodes to: one per table row, or one per rotation orbit."""
    return compute_orbits(n).num_orbits if mode == ROTATION else 1 << n


def check_space(
    n: int, encoding: str, mode: str = GENERAL, decode: int = DEFAULT_DECODE
) -> None:
    """Raise a one-line error unless ``n``, ``encoding`` and ``mode`` name a space.

    Trees only target the general space, and a float vector needs a
    ``decode`` that tiles the target length (see :func:`float_dimension`).
    """
    _check_dimension(n)
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if encoding == "tree" and mode == ROTATION:
        raise ValueError("tree genotypes only target the general space")
    if encoding == "float":
        float_dimension(n, decode, mode)


# ---------------------------------------------------------------------------
# tree structure helpers


def _validate_tree(tree: Tree, n: int) -> None:
    if not isinstance(tree, tuple) or not tree:
        raise ValueError(f"a tree must be a non-empty tuple of tokens, got {tree!r}")
    open_slots = 1
    for pos, token in enumerate(tree):
        if not open_slots:
            raise ValueError(f"trailing tokens after a complete tree at position {pos}")
        if type(token) is int:
            if not 1 <= token <= n:
                raise ValueError(f"leaf {token} out of range for n={n}")
        elif not isinstance(token, str) or token not in OPERATOR_ARITY:
            raise ValueError(f"unknown operator {token!r}")
        open_slots += OPERATOR_ARITY.get(token, 0) - 1
    if open_slots:
        raise ValueError(f"incomplete tree: {open_slots} operand(s) missing")


def subtree_end(tree: Tree, index: int, count: int = 1) -> int:
    """End of the subtree rooted at preorder ``index``: it is ``tree[index:end]``;
    with ``count``, the end of that many sibling subtrees in a row."""
    open_slots = count
    while open_slots:
        open_slots += OPERATOR_ARITY.get(tree[index], 0) - 1
        index += 1
    return index


def node_depths(tree: Tree) -> list[int]:
    """Depth of every node in preorder; the root has depth 0."""
    depths: list[int] = []
    pending = [0]  # depths of the nodes still to come, next one on top
    for token in tree:
        depth = pending.pop()
        depths.append(depth)
        arity = OPERATOR_ARITY.get(token)
        if arity:
            # the one to three child depths, pushed without building a list
            depth += 1
            pending.append(depth)
            if arity > 1:
                pending.append(depth)
                if arity > 2:
                    pending.append(depth)
    return depths


# ---------------------------------------------------------------------------
# tree text form


def tree_to_text(tree: Tree) -> str:
    """Serialize to prefix text, e.g. ``IF(x1, AND2(x2, x3), NOT(x4))``."""
    stack: list[str] = []
    for token in reversed(tree):
        arity = OPERATOR_ARITY.get(token, 0)
        if not arity:
            stack.append(f"x{token}")
            continue
        children = [stack.pop() for _ in range(arity)]
        stack.append(f"{token}({', '.join(children)})")
    return stack.pop()


def tree_from_text(text: str) -> Tree:
    """Parse the output of :func:`tree_to_text`; whitespace is free."""
    tokens: list = []
    for word in re.findall(r"\w+", text):
        if word in OPERATOR_ARITY:
            tokens.append(word)
        elif word[0] == "x" and word[1:].isdecimal():
            tokens.append(int(word[1:]))
        else:
            raise ValueError(f"bad token {word!r} in tree text {text!r}")
    tree = tuple(tokens)
    # the text is one tree exactly when its tokens print back to the same
    # words, brackets and commas; tokens that are not one tree run out of
    # operands while printing or print fewer words
    try:
        printed = tree_to_text(tree)
    except IndexError:
        printed = None
    if printed is None or _punctuation(printed) != _punctuation(text):
        raise ValueError(f"tree text {text!r} is not one well-formed tree")
    return tree


def _punctuation(text: str) -> str:
    return "".join(re.sub(r"\w+", "w", text).split())


# ---------------------------------------------------------------------------
# packed evaluation: every input assignment is one bit of a Python int


@lru_cache(maxsize=None)
def _variable_masks(n: int) -> tuple[int, ...]:
    # mask for x_v has bit i set when row i assigns x_v = 1; x_1 is the most
    # significant index bit
    index = np.arange(1 << n, dtype=np.uint32)
    masks = []
    for v in range(1, n + 1):
        column = ((index >> (n - v)) & 1).astype(np.uint8)
        masks.append(_pack_bits(column))
    return tuple(masks)


def _pack_bits(bits: np.ndarray) -> int:
    packed = np.packbits(bits, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _eval_packed(tree: Tree, masks: tuple[int, ...], full: int) -> int:
    # operands come after their operator in preorder, so a reverse pass finds
    # every operator's values on the stack with its first child on top; an
    # operator's value replaces its last child's in place
    stack: list[int] = []
    for token in reversed(tree):
        if type(token) is int:
            stack.append(masks[token - 1])
        elif token == "NOT":
            stack[-1] ^= full
        else:
            a = stack.pop()
            if token == "OR":
                stack[-1] |= a
            elif token == "XOR":
                stack[-1] ^= a
            elif token == "AND":
                stack[-1] &= a
            elif token == "AND2":
                stack[-1] = a & (full ^ stack[-1])
            elif token == "XNOR":
                stack[-1] ^= full ^ a
            else:  # IF
                b = stack.pop()
                stack[-1] = (a & b) | ((full ^ a) & stack[-1])
    return stack[0]


def tree_truth_rows(trees, n: int) -> np.ndarray:
    """Output columns of valid trees over all ``2**n`` assignments, one row
    per tree (unchecked).

    The packed ints are joined into one buffer and unpacked at once; each
    takes at least one byte, so the rows are trimmed to ``2**n`` columns.
    """
    size = 1 << n
    full = (1 << size) - 1
    masks = _variable_masks(n)
    nbytes = max(1, size // 8)
    raw = b"".join(_eval_packed(tree, masks, full).to_bytes(nbytes, "little") for tree in trees)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(trees), nbytes)
    return np.unpackbits(rows, axis=1, count=size, bitorder="little")


def tree_truth_bits(tree: Tree, n: int) -> np.ndarray:
    """Output column of a valid tree over all ``2**n`` assignments (unchecked):
    the one row of :func:`tree_truth_rows`."""
    return tree_truth_rows((tree,), n)[0]


# ---------------------------------------------------------------------------
# float quantisation


@lru_cache(maxsize=None)
def _cell_bits(decode: int) -> np.ndarray:
    """Read-only table whose row ``c`` holds the ``decode`` bits of cell ``c``.

    The extra last row repeats the all-ones top cell, so 1.0 lands there.
    """
    levels = 1 << decode
    cells = np.minimum(np.arange(levels + 1), levels - 1)
    shifts = np.arange(decode - 1, -1, -1)
    table = ((cells[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    table.flags.writeable = False
    return table


def float_bits(values: np.ndarray, decode: int) -> np.ndarray:
    """Quantise floats in [0, 1] to ``decode`` bits each, most significant first.

    Each entry maps to cell ``floor(value * 2**decode)`` with the top cell
    closed, so 1.0 yields all-ones rather than overflowing.  The cell is a
    truncating cast, which equals the floor on ``[0, 1]``, and its bits are
    one row of a cached table: the same bits as shifting the cell, with no
    random draw.  The rows are gathered with ``np.take``, which on a block
    is several times faster than the same fancy index.
    """
    cells = (values * (1 << decode)).astype(np.intp)
    return np.take(_cell_bits(decode), cells, axis=0).reshape(-1)


def float_dimension(n: int, decode: int, mode: str = GENERAL) -> int:
    """Vector length for a float genotype, or raise if ``decode`` cannot tile it."""
    _check_dimension(n)
    check_int("decode", decode, 1, MAX_DECODE)
    target = target_length(n, mode)
    if target % decode:
        raise ValueError(
            f"decode={decode} does not divide the {mode} target length {target} at n={n}"
        )
    return target // decode


# ---------------------------------------------------------------------------
# the one validator and the one decoder


def check_genotype(
    genotype, encoding: str, n: int, mode: str = GENERAL, decode: int = DEFAULT_DECODE
):
    """Validated raw genotype, or a one-line :class:`ValueError`.

    Bitstrings come back as a new uint8 array and float vectors as a new
    float64 array; a tree comes back as the same tuple.  The entries are
    checked before any cast, so ``0.7`` is not a bit and NaN is not in
    ``[0, 1]``.
    """
    check_space(n, encoding, mode, decode)
    if encoding == "tree":
        _validate_tree(genotype, n)
        return genotype
    if encoding == "float":
        length = float_dimension(n, decode, mode)
    else:
        length = target_length(n, mode)
    values = np.asarray(genotype)
    if values.shape != (length,):
        raise ValueError(
            f"{mode} {encoding} genotype at n={n} needs {length} entries, "
            f"got shape {values.shape}"
        )
    if encoding == "bitstring":
        return _check_bits(values, "bitstring entries")
    if values.dtype.kind not in "biuf":
        raise ValueError("float genotype entries must be numbers")
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise ValueError("float genotype entries must be finite and lie in [0, 1]")
    return values.astype(np.float64)


def genotype_table(
    genotype, encoding: str, n: int, mode: str = GENERAL, decode: int = DEFAULT_DECODE
) -> TruthTable:
    """Truth table of a raw genotype, validated first by :func:`check_genotype`.

    A tree is evaluated over all inputs, a float vector is quantised by
    :func:`float_bits`, and in rotation mode the orbit bits are expanded to
    the full symmetric table.
    """
    genotype = check_genotype(genotype, encoding, n, mode, decode)
    if encoding == "tree":
        bits = tree_truth_bits(genotype, n)
    elif encoding == "float":
        bits = float_bits(genotype, decode)
    else:
        bits = genotype
    if mode == ROTATION:
        return expand(compute_orbits(n), bits)
    return TruthTable(n, bits)


# ---------------------------------------------------------------------------
# random genotypes


def random_tree(
    n: int,
    rng: Draws,
    max_depth: int = DEFAULT_MAX_DEPTH,
    method: str = "grow",
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Tree:
    """Random tree by the grow or full method, within depth and size caps."""
    if method not in ("grow", "full"):
        raise ValueError(f"unknown tree init method {method!r}")
    depth = max_depth
    for _ in range(64):
        candidate = _random_node(n, rng, depth, method)
        if len(candidate) <= max_nodes:
            return candidate
        depth = max(1, depth - 1)
    return (1 + rng.below(n),)


def _random_node(n: int, rng: Draws, budget: int, method: str) -> Tree:
    """Random grow or full tree of at most ``max(budget, 0)`` depth, one draw
    per node in preorder.

    A node's draw is ``rng.below(k)`` taken inline in its common case: one
    word times ``k``, whose high word is the pick when the low word is at
    least ``k``.  A lower product, which one word in about ``2**64 / k``
    gives, goes back to the list and to ``below``, whose rejection loop then
    reads that word again.  So the words read, the trees and the next draw
    are those of a ``below`` call per node.
    """
    words, refill, below = rng._words, rng._refill, rng.below
    ops, grow = len(OPERATOR_NAMES), method != "full"
    inner = n + ops if grow else ops  # the bound of a node with budget left
    tokens: list = []
    # the depth budgets of the nodes still to draw, next one on top; siblings
    # share a budget
    pending = [budget]
    while pending:
        budget = pending.pop()
        k = inner if budget > 0 else n
        if not words:
            refill()
        word = words.pop()
        pick = word * k
        if pick & _LOW >= k:
            pick >>= 64
        else:
            words.append(word)
            pick = below(k)
        if grow or budget <= 0:
            if pick < n:
                tokens.append(pick + 1)
                continue
            pick -= n
        op = OPERATOR_NAMES[pick]
        tokens.append(op)
        # the one to three child budgets, pushed without building a list
        arity = OPERATOR_ARITY[op]
        budget -= 1
        pending.append(budget)
        if arity > 1:
            pending.append(budget)
            if arity > 2:
                pending.append(budget)
    return tuple(tokens)


def random_genotype(
    kind: str,
    n: int,
    rng: Draws,
    mode: str = GENERAL,
    decode: int = DEFAULT_DECODE,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
):
    """Uniform random raw genotype of the requested encoding."""
    check_space(n, kind, mode, decode)
    if kind == "bitstring":
        return rng.bits(target_length(n, mode))
    if kind == "float":
        return rng.uniforms(float_dimension(n, decode, mode))
    # ramped half and half: depth ramps over 2..max_depth (just max_depth
    # when that is 1), half grow half full
    lowest = min(2, max_depth)
    depth = lowest + rng.below(max_depth + 1 - lowest)
    method = "grow" if rng.below(2) else "full"
    return random_tree(n, rng, depth, method, max_nodes)
