"""The three genotype encodings and how each decodes to a truth table."""

import numpy as np

from boolevo import (
    BitstringGenotype,
    FloatGenotype,
    GpTree,
    decode_bitstring,
    decode_float,
    decode_float_genotype,
    evaluate_tree,
    nonlinearity,
    random_genotype,
    tree_to_text,
    walsh_transform,
)

rng = np.random.default_rng(3)

# 1. bitstring: the table itself, or one bit per orbit in rotation mode
g = BitstringGenotype(rng.integers(0, 2, 32, dtype=np.uint8))
print("bitstring genotype of length", len(g), "-> n=5 table", decode_bitstring(g, 5).to_hex())

g = BitstringGenotype(rng.integers(0, 2, 20, dtype=np.uint8), mode="rs")
tt = decode_bitstring(g, 7)
print("20 orbit bits -> rotation-symmetric n=7 table", tt.to_hex())
print()

# 2. float vector: each entry quantises to `decode` bits, most significant
#    first; entry 0.8 with decode=3 lands in cell floor(0.8 * 8) = 6 = 110
g = FloatGenotype(np.array([0.8, 0.1, 0.55]), decode=3)
print("floats [0.8, 0.1, 0.55] at 3 bits each ->", decode_float(g).tolist())

# dimension x decode must exactly tile the target: 32 entries x 4 bits = 128
g = FloatGenotype(rng.random(32), decode=4)
print("32 floats at 4 bits -> n=7 table", decode_float_genotype(g, 7).to_hex()[:16], "...")
try:
    decode_float_genotype(FloatGenotype(rng.random(20), decode=3), 7)
except ValueError as e:
    print("20 x 3 bits rejected:", e)
print()

# 3. expression tree over x1..xn with Boolean operators, stored as one flat
#    preorder tuple: operator names for inner nodes, variable indices for leaves
tree = GpTree(("IF", 1, "AND2", 2, 3, "NOT", 2), 3)
print("tree", tree_to_text(tree.root))
tt = evaluate_tree(tree)
print("evaluates to", tt.bits.tolist(), "nl =", nonlinearity(walsh_transform(tt)))
print()

# random genotypes of every kind come from one factory
for kind in ("bitstring", "float", "tree"):
    g = random_genotype(kind, 5, rng, decode=2)
    print("random", kind, "genotype:", g if kind == "tree" else type(g).__name__)
