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
  length.

A genotype from outside the search goes through :func:`check_genotype`, the
one validator, and :func:`genotype_table` is the one decoder to a truth
table; the evaluator trusts the genotypes the search makes.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from .orbits import compute_orbits, expand
from .truthtable import TruthTable, _check_bits, _check_dimension

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


def subtree_end(tree: Tree, index: int) -> int:
    """End of the subtree rooted at preorder ``index``: it is ``tree[index:end]``."""
    open_slots = 1
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
        arity = OPERATOR_ARITY.get(token, 0)
        if arity:
            pending += [depth + 1] * arity
    return depths


def tree_depth(tree: Tree) -> int:
    """Edges on the longest root-to-leaf path; a lone leaf has depth 0."""
    deepest = 0
    pending = [0]  # as in node_depths
    for token in tree:
        depth = pending.pop()
        arity = OPERATOR_ARITY.get(token, 0)
        if arity:
            pending += [depth + 1] * arity
        elif depth > deepest:
            deepest = depth
    return deepest


def subtree_at(tree: Tree, index: int) -> Tree:
    """Subtree rooted at preorder position ``index`` (root is 0)."""
    if not 0 <= index < len(tree):
        raise IndexError(f"preorder index {index} out of range")
    return tree[index : subtree_end(tree, index)]


def replace_at(tree: Tree, index: int, replacement: Tree) -> Tree:
    """Copy of the tree with the subtree at preorder ``index`` swapped out."""
    if not 0 <= index < len(tree):
        raise IndexError(f"preorder index {index} out of range")
    return tree[:index] + replacement + tree[subtree_end(tree, index) :]


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


def _unpack_bits(value: int, length: int) -> np.ndarray:
    nbytes = max(1, (length + 7) // 8)
    raw = np.frombuffer(value.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=length, bitorder="little")


def _eval_packed(tree: Tree, masks: tuple[int, ...], full: int) -> int:
    # operands come after their operator in preorder, so a reverse pass finds
    # every operator's values on the stack with its first child on top
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    for token in reversed(tree):
        if type(token) is int:
            push(masks[token - 1])
        elif token == "NOT":
            push(full ^ pop())
        else:
            a = pop()
            b = pop()
            if token == "OR":
                push(a | b)
            elif token == "XOR":
                push(a ^ b)
            elif token == "AND":
                push(a & b)
            elif token == "AND2":
                push(a & (full ^ b))
            elif token == "XNOR":
                push(full ^ a ^ b)
            else:  # IF
                c = pop()
                push((a & b) | ((full ^ a) & c))
    return stack[0]


def tree_truth_bits(tree: Tree, n: int) -> np.ndarray:
    """Output column of a valid tree over all ``2**n`` assignments (unchecked)."""
    size = 1 << n
    full = (1 << size) - 1
    return _unpack_bits(_eval_packed(tree, _variable_masks(n), full), size)


# ---------------------------------------------------------------------------
# float quantisation


def float_bits(values: np.ndarray, decode: int) -> np.ndarray:
    """Quantise floats in [0, 1] to ``decode`` bits each, most significant first.

    Each entry maps to cell ``floor(value * 2**decode)`` with the top cell
    closed, so 1.0 yields all-ones rather than overflowing.
    """
    levels = 1 << decode
    cells = np.floor(values * levels).astype(np.int64)
    np.minimum(cells, levels - 1, out=cells)
    shifts = np.arange(decode - 1, -1, -1, dtype=np.int64)
    bits = (cells[:, None] >> shifts[None, :]) & 1
    return bits.reshape(-1).astype(np.uint8)


def float_dimension(n: int, decode: int, mode: str = GENERAL) -> int:
    """Vector length for a float genotype, or raise if ``decode`` cannot tile it."""
    _check_dimension(n)
    if not isinstance(decode, (int, np.integer)) or decode < 1:
        raise ValueError(f"decode must be a positive int, got {decode!r}")
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
    rng: np.random.Generator,
    max_depth: int = 7,
    method: str = "grow",
    max_nodes: int = 500,
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
    return (int(rng.integers(1, n + 1)),)


def _random_node(n: int, rng: np.random.Generator, budget: int, method: str) -> Tree:
    # one draw per node, in preorder; the stack holds the depth budgets of the
    # nodes still to draw, and siblings share a budget
    tokens: list = []
    pending = [budget]
    while pending:
        budget = pending.pop()
        if budget <= 0:
            pick = int(rng.integers(n))
        elif method == "full":
            pick = n + int(rng.integers(len(OPERATOR_NAMES)))
        else:
            pick = int(rng.integers(n + len(OPERATOR_NAMES)))
        if pick < n:
            tokens.append(pick + 1)
        else:
            op = OPERATOR_NAMES[pick - n]
            tokens.append(op)
            pending.extend([budget - 1] * OPERATOR_ARITY[op])
    return tuple(tokens)


def random_genotype(
    kind: str,
    n: int,
    rng: np.random.Generator,
    mode: str = GENERAL,
    decode: int = DEFAULT_DECODE,
    max_depth: int = 7,
    max_nodes: int = 500,
):
    """Uniform random raw genotype of the requested encoding."""
    check_space(n, kind, mode, decode)
    if kind == "bitstring":
        return rng.integers(0, 2, target_length(n, mode), dtype=np.uint8)
    if kind == "float":
        return rng.random(float_dimension(n, decode, mode))
    # ramped half and half: depth ramps over 2..max_depth (just max_depth
    # when that is 1), half grow half full
    depth = int(rng.integers(min(2, max_depth), max_depth + 1))
    method = "grow" if rng.integers(2) else "full"
    return random_tree(n, rng, depth, method, max_nodes)
