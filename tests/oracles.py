"""Independent reference implementations used only by the test suite.

Everything here is written the slow, obvious way (per-element loops, matrix
definitions from first principles) so that the fast library code is checked
against genuinely separate logic.
"""

from __future__ import annotations

import numpy as np

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


def rotations(i: int, n: int) -> set[int]:
    """All indices reachable from i by repeatedly rotating its n bits right."""
    seen = set()
    v = i
    while v not in seen:
        seen.add(v)
        v = ((v & 1) << (n - 1)) | (v >> 1)
    return seen


# ---------------------------------------------------------------------------
# earlier formulas of rewritten library code, kept to pin the rewrites


def uniform_crossover_by_where(a, b, rng) -> np.ndarray:
    """Uniform crossover as a boolean select on one uniform bit per position."""
    take_a = rng.bits(a.shape[0]).astype(bool)
    return np.where(take_a, a, b)


def shuffle_mutation_by_window_permutation(bits, rng) -> np.ndarray:
    """Window shuffle that permutes the window's entries themselves."""
    child = bits.copy()
    a = rng.below(child.shape[0])
    b = rng.below(child.shape[0])
    start, end = min(a, b), max(a, b)
    child[start : end + 1] = rng.permutation(child[start : end + 1])
    return child


def float_bits_by_floor_and_shift(values, decode: int) -> np.ndarray:
    """Cell floor(value * 2**decode), top cell closed, bits most significant first."""
    levels = 1 << decode
    cells = np.floor(values * levels).astype(np.int64)
    np.minimum(cells, levels - 1, out=cells)
    shifts = np.arange(decode - 1, -1, -1, dtype=np.int64)
    bits = (cells[:, None] >> shifts[None, :]) & 1
    return bits.reshape(-1).astype(np.uint8)


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


def ls_mutation_per_trial(individual, evaluator, mutate, rng, trials, note=None):
    """The mutation hill climber one trial at a time: mutate the current
    individual, evaluate the child, keep it if strictly better, and stop after
    ``trials`` straight failures."""
    current = individual
    failures = 0
    while failures < trials:
        genotype = mutate(current.genotype, rng)
        key = evaluator.evaluate(genotype)
        if key > current.key:
            current = Individual(genotype, key)
            failures = 0
            if note is not None:
                note(current)
        else:
            failures += 1
    return current


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
