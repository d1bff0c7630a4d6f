"""Independent reference implementations used only by the test suite.

Everything here is written the slow, obvious way (per-element loops, matrix
definitions from first principles) so that the fast library code is checked
against genuinely separate logic.
"""

from __future__ import annotations

import numpy as np

from boolevo.encodings import (
    OPERATOR_ARITY,
    OPERATOR_NAMES,
    node_depths,
    random_genotype,
    replace_at,
    subtree_at,
)
from boolevo.engine import _draw_distinct
from boolevo.evaluation import Individual


def naive_walsh(bits) -> list[int]:
    """W(a) = sum_x (-1)^(f(x) XOR parity(a AND x)), by direct double loop."""
    bits = list(int(b) for b in bits)
    size = len(bits)
    out = []
    for a in range(size):
        acc = 0
        for x in range(size):
            parity = bin(a & x).count("1") & 1
            acc += -1 if (bits[x] ^ parity) else 1
        out.append(acc)
    return out


def hadamard_matrix(n: int) -> np.ndarray:
    """H[a, x] = (-1)^parity(a & x), built element-wise (no butterfly)."""
    idx = np.arange(1 << n, dtype=np.uint32)
    overlap = idx[:, None] & idx[None, :]
    parity = np.zeros_like(overlap)
    for shift in range(n):
        parity ^= (overlap >> shift) & 1
    return (1 - 2 * parity.astype(np.int64))


def batch_walsh_by_matrix(bit_rows: np.ndarray) -> np.ndarray:
    """Walsh spectra of many tables at once via the explicit Hadamard matrix."""
    bit_rows = np.asarray(bit_rows, dtype=np.int64)
    n = int(bit_rows.shape[1]).bit_length() - 1
    signs = 1 - 2 * bit_rows
    return signs @ hadamard_matrix(n)


def affine_tables(n: int) -> np.ndarray:
    """All 2**(n+1) affine truth tables as rows."""
    size = 1 << n
    idx = np.arange(size, dtype=np.uint32)
    rows = []
    for a in range(size):
        parity = np.zeros(size, dtype=np.uint8)
        overlap = idx & a
        for shift in range(n):
            parity ^= ((overlap >> shift) & 1).astype(np.uint8)
        rows.append(parity)
        rows.append(parity ^ 1)
    return np.array(rows, dtype=np.uint8)


def nonlinearity_by_distance(bits, affine=None) -> int:
    """Minimum Hamming distance to every affine function, by enumeration."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = int(bits.shape[0]).bit_length() - 1
    if affine is None:
        affine = affine_tables(n)
    distances = np.count_nonzero(affine != bits[None, :], axis=1)
    return int(distances.min())


def eval_tree_pointwise(tree, assignment: dict[int, bool]) -> bool:
    """Evaluate one flat preorder tree on one assignment using plain Python
    booleans, by recursive descent from the root."""
    value, end = _eval_from(tree, 0, assignment)
    if end != len(tree):
        raise AssertionError(f"trailing tokens after position {end}")
    return value


def _eval_from(tree, pos: int, assignment: dict[int, bool]) -> tuple[bool, int]:
    tag = tree[pos]
    if type(tag) is int:
        return assignment[tag], pos + 1
    arity = {"NOT": 1, "IF": 3}.get(tag, 2)
    vals = []
    pos += 1
    for _ in range(arity):
        value, pos = _eval_from(tree, pos, assignment)
        vals.append(value)
    if tag == "NOT":
        return not vals[0], pos
    if tag == "OR":
        return vals[0] or vals[1], pos
    if tag == "AND":
        return vals[0] and vals[1], pos
    if tag == "AND2":
        return vals[0] and not vals[1], pos
    if tag == "XOR":
        return vals[0] != vals[1], pos
    if tag == "XNOR":
        return vals[0] == vals[1], pos
    if tag == "IF":
        return (vals[1] if vals[0] else vals[2]), pos
    raise AssertionError(f"unknown tag {tag}")


def tree_table_pointwise(tree, n: int) -> list[int]:
    """Truth table of a tree, one assignment at a time, big-endian indexing."""
    out = []
    for i in range(1 << n):
        assignment = {v: bool((i >> (n - v)) & 1) for v in range(1, n + 1)}
        out.append(int(eval_tree_pointwise(tree, assignment)))
    return out


def _depths_from(tree, pos: int, depth: int, depths: list[int]) -> int:
    """Append the depth of each node of the subtree at ``pos``, in preorder,
    by recursive descent; return the subtree's end."""
    depths.append(depth)
    tag = tree[pos]
    pos += 1
    if type(tag) is not int:
        for _ in range({"NOT": 1, "IF": 3}.get(tag, 2)):
            pos = _depths_from(tree, pos, depth + 1, depths)
    return pos


def node_depths_by_recursion(tree) -> list[int]:
    """Depth of every node in preorder, the root at depth 0."""
    depths: list[int] = []
    if _depths_from(tree, 0, 0, depths) != len(tree):
        raise AssertionError("trailing tokens after the root's subtree")
    return depths


def _height_from(tree, pos: int) -> tuple[int, int]:
    """Height of the subtree at ``pos`` and its end, by recursive descent."""
    tag = tree[pos]
    pos += 1
    height = 0
    if type(tag) is not int:
        for _ in range({"NOT": 1, "IF": 3}.get(tag, 2)):
            child, pos = _height_from(tree, pos)
            height = max(height, child + 1)
    return height, pos


def tree_depth(tree) -> int:
    """Edges on the longest root-to-leaf path, from the library's depth walk;
    a lone leaf has depth 0."""
    return max(node_depths(tree))


def tree_depth_by_recursion(tree) -> int:
    """Edges on the longest root-to-leaf path: one more than the deepest
    child's, a leaf's 0."""
    height, end = _height_from(tree, 0)
    if end != len(tree):
        raise AssertionError("trailing tokens after the root's subtree")
    return height


def rotations(i: int, n: int) -> set[int]:
    """All indices reachable from i by repeatedly rotating its n bits right."""
    seen = set()
    v = i
    while v not in seen:
        seen.add(v)
        v = ((v & 1) << (n - 1)) | (v >> 1)
    return seen


def next_draws(rng) -> tuple:
    """The next scalar draw, raw words and Fisher-Yates draws of ``rng``.

    Together they pin its state: the unread words of its block, the bit
    generator, and the half word that the bit generator keeps for the next
    32-bit draw of a shuffle.
    """
    return rng.below(1 << 62), rng.bits(64).tolist(), rng.permutation(9).tolist()


# ---------------------------------------------------------------------------
# earlier formulas of rewritten library code, kept to pin the rewrites


def crossover_bitstring_by_where(a, b, rng) -> np.ndarray:
    """Row-block bitstring crossover, one row at a time: a one-point row
    joins a prefix of ``a`` to a suffix of ``b``, and the uniform rows select
    with a boolean ``np.where`` on one shared draw of bits."""
    count, length = a.shape
    children = [None] * count
    mixed = []
    for row in range(count):
        if rng.below(2):
            mixed.append(row)
        else:
            cut = 1 + rng.below(length - 1)
            children[row] = np.concatenate([a[row, :cut], b[row, cut:]])
    if mixed:
        take_a = rng.bits(len(mixed) * length).reshape(len(mixed), length).astype(bool)
        for row, mask in zip(mixed, take_a):
            children[row] = np.where(mask, a[row], b[row])
    return np.array(children)


def mutate_bitstring_by_window_permutation(rows, rng) -> np.ndarray:
    """Row-block bitstring mutation, one row at a time, whose window shuffle
    permutes the window's entries themselves."""
    children = rows.copy()
    length = rows.shape[1]
    for child in children:
        if rng.below(2):
            a = rng.below(length)
            b = rng.below(length)
            start, end = min(a, b), max(a, b)
            child[start : end + 1] = rng.permutation(child[start : end + 1])
        else:
            child[rng.below(length)] ^= 1
    return children


def mutate_bitstring_by_index_gather(rows, rng) -> np.ndarray:
    """Row-block bitstring mutation with one ``below`` call per draw, whose
    window shuffle gathers the window through ``rng.permutation`` of its
    indices, for rows of every item size."""
    count, length = rows.shape
    children = rows.copy()
    for row in range(count):
        if rng.below(2):
            a, b = rng.below(length), rng.below(length)
            start, stop = min(a, b), max(a, b) + 1
            window = children[row, start:stop]
            children[row, start:stop] = window[rng.permutation(stop - start)]
        else:
            children[row, rng.below(length)] ^= 1
    return children


def float_bits_by_floor_and_shift(values, decode: int) -> np.ndarray:
    """Cell floor(value * 2**decode), top cell closed, bits most significant first."""
    levels = 1 << decode
    cells = np.floor(values * levels).astype(np.int64)
    np.minimum(cells, levels - 1, out=cells)
    shifts = np.arange(decode - 1, -1, -1, dtype=np.int64)
    bits = (cells[:, None] >> shifts[None, :]) & 1
    return bits.reshape(-1).astype(np.uint8)


def bits_to_hex_per_digit(bits) -> str:
    """Hex form of a bit vector whose length is a multiple of 4, one digit
    per nibble, the lowest position the digit's most significant bit."""
    nibbles = np.asarray(bits, dtype=np.uint8).reshape(-1, 4)
    values = nibbles[:, 0] * 8 + nibbles[:, 1] * 4 + nibbles[:, 2] * 2 + nibbles[:, 3]
    return "".join("0123456789abcdef"[v] for v in values)


def bits_from_hex_per_digit(digits: str) -> np.ndarray:
    """Bits of a hex string, one ``int(c, 16)`` a digit, the digit's most
    significant bit at its lowest position."""
    return np.array([(int(c, 16) >> shift) & 1 for c in digits for shift in (3, 2, 1, 0)],
                    dtype=np.uint8)


def _subtree_end(tree, pos: int) -> int:
    """End of the subtree at preorder ``pos``, by recursive descent."""
    tag = tree[pos]
    pos += 1
    if type(tag) is not int:
        for _ in range({"NOT": 1, "IF": 3}.get(tag, 2)):
            pos = _subtree_end(tree, pos)
    return pos


def size_fair_crossover_by_subtree_walks(a, b, rng):
    """Size-fair crossover that measures every candidate donor with its own walk."""
    index_a = rng.below(len(a))
    end_a = _subtree_end(a, index_a)
    limit = 2 * (end_a - index_a) + 1
    donors = [j for j in range(len(b)) if _subtree_end(b, j) - j <= limit]
    donor = donors[rng.below(len(donors))]
    return a[:index_a] + b[donor:_subtree_end(b, donor)] + a[end_a:]


def random_node_by_list_pushes(n, rng, budget, method):
    """Random grow or full tree, one draw per node in preorder, that pushes
    each operator's child budgets as a list."""
    tokens: list = []
    pending = [budget]
    while pending:
        budget = pending.pop()
        if budget <= 0:
            pick = rng.below(n)
        elif method == "full":
            pick = n + rng.below(len(OPERATOR_NAMES))
        else:
            pick = rng.below(n + len(OPERATOR_NAMES))
        if pick < n:
            tokens.append(pick + 1)
        else:
            op = OPERATOR_NAMES[pick - n]
            tokens.append(op)
            pending.extend([budget - 1] * OPERATOR_ARITY[op])
    return tuple(tokens)


def joint_preorder_by_recursion(a, b, any_arity):
    """Preorder pairs of the nodes at the same coordinates in both trees, by
    recursive descent into the shared child slots, skipping each unshared
    child with its own walk."""
    pairs = []

    def walk(i, j):
        pairs.append((i, j))
        arity_a = OPERATOR_ARITY.get(a[i], 0)
        arity_b = OPERATOR_ARITY.get(b[j], 0)
        shared = min(arity_a, arity_b) if any_arity or arity_a == arity_b else 0
        i, j = i + 1, j + 1
        for _ in range(shared):
            i, j = walk(i, j)
        for _ in range(arity_a - shared):
            i = _subtree_end(a, i)
        for _ in range(arity_b - shared):
            j = _subtree_end(b, j)
        return i, j

    walk(0, 0)
    return pairs


def joint_crossover_by_subtree_walks(a, b, any_arity, rng):
    """One-point (``any_arity`` false) or context-preserving crossover that
    finds the chosen pair's two subtrees by walking them again."""
    pairs = joint_preorder_by_recursion(a, b, any_arity)
    i, j = pairs[rng.below(len(pairs))]
    return replace_at(a, i, subtree_at(b, j))


def uniform_crossover_by_own_walk(a, b, rng):
    """Uniform tree crossover that walks the common shape itself: one draw
    per node pair where the arities agree, or per diverging pair, whose
    whole subtree comes from one parent."""
    child = []
    i = j = 0
    unpaired = 1  # paired subtrees still to emit
    while unpaired:
        unpaired -= 1
        arity = OPERATOR_ARITY.get(a[i], 0)
        if arity and arity == OPERATOR_ARITY.get(b[j], 0):
            child.append(a[i] if rng.below(2) else b[j])
            i, j = i + 1, j + 1
            unpaired += arity
        else:
            end_a, end_b = _subtree_end(a, i), _subtree_end(b, j)
            child.extend(a[i:end_a] if rng.below(2) else b[j:end_b])
            i, j = end_a, end_b
    return tuple(child)


def subtree_mutation_by_tree_walks(tree, n, rng, max_depth, max_nodes):
    """Subtree mutation that measures each candidate child with a full depth walk."""
    depths = node_depths_by_recursion(tree)
    for _ in range(5):
        index = rng.below(len(tree))
        subtree = random_node_by_list_pushes(n, rng, max_depth - depths[index], "grow")
        child = replace_at(tree, index, subtree)
        if len(child) <= max_nodes and tree_depth_by_recursion(child) <= max_depth:
            return child
    return tree


def ls_mutation_per_trial(individual, evaluator, mutate, rng, trials, note=None):
    """The mutation hill climber one trial at a time: mutate the current
    individual, evaluate the child, keep it if strictly better, and stop after
    ``trials`` straight failures.

    A bitstring or float trial's move comes from the same row-block
    ``mutate`` calls as the library climber's: at the start, after an
    accepted trial and whenever the drawn moves run out, the moves are
    topped up to ``min(trials - failures, block_rows)`` by mutating that
    many identity rows (entry ``2 * i`` for bit ``i``, NaN for a float
    coordinate).  Each child is that move applied to the current genotype
    and keyed on its own.
    """
    current = individual
    failures = 0
    tree = evaluator.encoding == "tree"
    length = None if tree else len(individual.genotype)
    moves: list = []
    top_up = True
    while failures < trials:
        if tree:
            genotype = mutate(current.genotype, rng)
        else:
            if top_up or not moves:
                count = min(trials - failures, evaluator.block_rows) - len(moves)
                if evaluator.encoding == "bitstring":
                    identity = np.arange(0, 2 * length, 2)
                else:
                    identity = np.full(length, np.nan)
                moves.extend(mutate(np.tile(identity, (count, 1)), rng))
                top_up = False
            move = moves.pop(0)
            if evaluator.encoding == "bitstring":
                genotype = np.array(
                    [current.genotype[m // 2] ^ (m & 1) for m in move], dtype=np.uint8
                )
            else:
                genotype = np.array(
                    [c if np.isnan(m) else m for m, c in zip(move, current.genotype)]
                )
        key = evaluator.evaluate(genotype)
        if key > current.key:
            current = Individual(genotype, key)
            failures = 0
            top_up = True
            if note is not None:
                note(current)
        else:
            failures += 1
    return current


def initialise_per_genotype(state) -> None:
    """The initial population one genotype at a time: draw it, key it on its
    own with ``evaluate`` and note it, before the next is drawn."""
    cfg = state.config
    for _ in range(cfg.population_size):
        genotype = random_genotype(
            cfg.encoding,
            cfg.n,
            state.rng,
            mode=cfg.mode,
            decode=cfg.decode,
            max_depth=cfg.max_depth,
            max_nodes=cfg.max_nodes,
        )
        state.pop.append(Individual(genotype, state.evaluator.evaluate(genotype)))
        state.note(state.pop[-1])


def sst_step_per_row(state, steps) -> int:
    """One block of steady-state steps, each child keyed on its own.

    The block is ``min(population_size // 3, block_rows, steps)`` rows, its
    ``3 * rows`` slots the head of one random permutation of the slots.  A
    row's loser is the last-drawn of its lowest-keyed contestants, and its
    parents are the other two in draw order.  The mutation coins are drawn
    next, then the children are built from the population before the block
    with the same operator calls as the library's step.  Each child is then
    evaluated on its own and replaces its loser before the next child is
    evaluated.  Tree children are all built before the first is evaluated,
    which draws the same numbers as building each just before its charge,
    and differs only in what a stop leaves undrawn.
    """
    pop, rng = state.pop, state.rng
    rows = min(len(pop) // 3, state.evaluator.block_rows, steps)
    slots = [int(slot) for slot in rng.permutation(len(pop))[: 3 * rows]]
    losers, firsts, seconds = [], [], []
    for row in range(rows):
        tournament = slots[3 * row : 3 * row + 3]
        worst = min(pop[slot].key for slot in tournament)
        loser = [slot for slot in tournament if pop[slot].key == worst][-1]
        first, second = [slot for slot in tournament if slot != loser]
        losers.append(loser)
        firsts.append(pop[first].genotype)
        seconds.append(pop[second].genotype)
    coins = [rng.uniform() < state.config.p_mutation for _ in range(rows)]
    if state.config.encoding == "tree":
        children = []
        for a, b, coin in zip(firsts, seconds, coins):
            child = state.crossover(a, b, rng)
            children.append(state.mutate(child, rng) if coin else child)
    else:
        children = state.crossover(np.array(firsts), np.array(seconds), rng)
        mutated = [row for row in range(rows) if coins[row]]
        if mutated:
            children[mutated] = state.mutate(children[mutated], rng)
    for loser, child in zip(losers, children):
        key = state.evaluator.evaluate(child)
        pop[loser] = Individual(child, key)
        state.note(pop[loser])
    return rows


def de_step_per_trial(state) -> None:
    """One rand/1/bin generation, one trial at a time: for each target slot in
    order, draw three distinct slots other than the target and the crossover
    mask with one forced index, build the trial from the live population,
    evaluate it, and let it replace its target if at least as good, before
    the next trial is drawn."""
    cfg = state.config
    pop = state.pop
    size = len(pop)
    for target in range(size):
        r1, r2, r3 = _draw_distinct(state.rng, size, 3, taboo=(target,))
        mutant = pop[r1].genotype + cfg.de_weight * (pop[r2].genotype - pop[r3].genotype)
        np.clip(mutant, 0.0, 1.0, out=mutant)
        dim = mutant.shape[0]
        cross = state.rng.uniforms(dim) < cfg.de_crossover
        cross[state.rng.below(dim)] = True
        trial = np.where(cross, mutant, pop[target].genotype)
        key = state.evaluator.evaluate(trial)
        if key >= pop[target].key:
            pop[target] = Individual(trial, key)
            state.note(pop[target])
