"""Genotype encodings: bitstrings, float vectors and Boolean expression trees.

A tree is one flat tuple of tokens in preorder: an operator name for an
inner node, the variable index ``v`` in ``1..n`` for the leaf ``x_v``.
``IF(x1, AND2(x2, x3), NOT(x2))`` is ``("IF", 1, "AND2", 2, 3, "NOT", 2)``.
A node is addressed by its preorder index, the subtree rooted there is the
slice ``tree[i:subtree_end(tree, i)]`` and its size is that slice's length.
Trees are validated where they enter (:class:`GpTree`, :func:`evaluate_tree`
on a bare tree); the evaluator trusts them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .orbits import OrbitTable, compute_orbits, expand
from .truthtable import TruthTable, _check_dimension

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
# genotype containers

GENERAL = "general"
ROTATION = "rs"


@dataclass(frozen=True, eq=False)
class BitstringGenotype:
    """Raw bit vector; covers the full table or one bit per rotation orbit."""

    bits: np.ndarray
    mode: str = GENERAL

    def __post_init__(self) -> None:
        if self.mode not in (GENERAL, ROTATION):
            raise ValueError(f"unknown bitstring mode {self.mode!r}")
        bits = np.array(self.bits, dtype=np.uint8, copy=True)
        if bits.ndim != 1:
            raise ValueError("bitstring genotype must be one-dimensional")
        if bits.size and int(bits.max()) > 1:
            raise ValueError("bitstring entries must be 0 or 1")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return int(self.bits.shape[0])


@dataclass(frozen=True, eq=False)
class FloatGenotype:
    """Vector in [0, 1]^dimension; each entry decodes to ``decode`` bits."""

    values: np.ndarray
    decode: int = 3
    mode: str = GENERAL

    def __post_init__(self) -> None:
        if self.mode not in (GENERAL, ROTATION):
            raise ValueError(f"unknown float mode {self.mode!r}")
        if not isinstance(self.decode, (int, np.integer)) or self.decode < 1:
            raise ValueError(f"decode must be a positive int, got {self.decode!r}")
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 1:
            raise ValueError("float genotype must be one-dimensional")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("float genotype entries must lie in [0, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class GpTree:
    """Expression-tree genotype over x1..xn: a flat preorder tuple, validated here."""

    root: Tree
    n: int

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        _validate_tree(self.root, self.n)


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


def evaluate_tree(tree: GpTree | Tree, n: int | None = None) -> TruthTable:
    """Truth table computed by a tree genotype; a bare tree is validated first."""
    if isinstance(tree, GpTree):
        tree, n = tree.root, tree.n
    else:
        if n is None:
            raise ValueError("n is required when passing a bare tree")
        _check_dimension(n)
        _validate_tree(tree, n)
    return TruthTable(n, tree_truth_bits(tree, n))


# ---------------------------------------------------------------------------
# decoding


def decode_bitstring(
    genotype: BitstringGenotype, n: int, table: OrbitTable | None = None
) -> TruthTable:
    """Bit vector -> truth table, expanding orbit bits in rotation mode."""
    _check_dimension(n)
    if genotype.mode == ROTATION:
        table = table if table is not None else compute_orbits(n)
        return expand(table, genotype.bits)
    if len(genotype) != 1 << n:
        raise ValueError(f"need {1 << n} bits for n={n}, got {len(genotype)}")
    return TruthTable(n, genotype.bits)


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


def decode_float(genotype: FloatGenotype) -> np.ndarray:
    """Float genotype -> concatenated bit vector (see :func:`float_bits`)."""
    return float_bits(genotype.values, genotype.decode)


def decode_float_genotype(
    genotype: FloatGenotype, n: int, table: OrbitTable | None = None
) -> TruthTable:
    """Float vector -> truth table; the bit count must match the target exactly."""
    _check_dimension(n)
    if genotype.mode == ROTATION:
        table = table if table is not None else compute_orbits(n)
        target = table.num_orbits
    else:
        target = 1 << n
    total = genotype.dimension * genotype.decode
    if total != target:
        raise ValueError(
            f"dimension {genotype.dimension} x decode {genotype.decode} = {total} "
            f"bits, but {genotype.mode} mode at n={n} needs exactly {target}"
        )
    bits = decode_float(genotype)
    if genotype.mode == ROTATION:
        return expand(table, bits)
    return TruthTable(n, bits)


def float_dimension(n: int, decode: int, mode: str = GENERAL) -> int:
    """Vector length for a float genotype, or raise if it does not divide."""
    _check_dimension(n)
    target = compute_orbits(n).num_orbits if mode == ROTATION else 1 << n
    if decode < 1 or target % decode != 0:
        raise ValueError(
            f"decode={decode} does not divide the {mode} target length {target} at n={n}"
        )
    return target // decode


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
    decode: int = 3,
    max_depth: int = 7,
    max_nodes: int = 500,
):
    """Uniform random genotype of the requested encoding."""
    _check_dimension(n)
    if kind == "bitstring":
        length = compute_orbits(n).num_orbits if mode == ROTATION else 1 << n
        return BitstringGenotype(rng.integers(0, 2, length, dtype=np.uint8), mode)
    if kind == "float":
        dim = float_dimension(n, decode, mode)
        return FloatGenotype(rng.random(dim), decode, mode)
    if kind == "tree":
        # ramped half and half: depth ramps over 2..max_depth, half grow half full
        depth = int(rng.integers(2, max(3, max_depth + 1)))
        method = "grow" if rng.integers(2) else "full"
        return GpTree(random_tree(n, rng, depth, method, max_nodes), n)
    raise ValueError(f"unknown encoding kind {kind!r}")
