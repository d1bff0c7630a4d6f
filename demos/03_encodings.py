"""The three genotype encodings and how each decodes to a truth table.

Every genotype is a raw value: a uint8 array of bits, a float64 array in
[0, 1], or a flat preorder tuple of tree tokens.  `genotype_table` is the one
decoder and `check_genotype` the one validator it runs first.
"""

import numpy as np

from boolevo import (
    check_genotype,
    genotype_table,
    nonlinearity,
    random_genotype,
    tree_to_text,
    walsh_transform,
)
from boolevo.encodings import float_bits

rng = np.random.default_rng(3)

# 1. bitstring: the table itself, or one bit per orbit in rotation mode
bits = rng.integers(0, 2, 32, dtype=np.uint8)
print("bitstring genotype of length", len(bits), "-> n=5 table",
      genotype_table(bits, "bitstring", 5).to_hex())

orbit_bits = rng.integers(0, 2, 20, dtype=np.uint8)
tt = genotype_table(orbit_bits, "bitstring", 7, mode="rs")
print("20 orbit bits -> rotation-symmetric n=7 table", tt.to_hex())
print()

# 2. float vector: each entry quantises to `decode` bits, most significant
#    first; entry 0.8 with decode=3 lands in cell floor(0.8 * 8) = 6 = 110
print("floats [0.8, 0.1, 0.55] at 3 bits each ->",
      float_bits(np.array([0.8, 0.1, 0.55]), 3).tolist())

# dimension x decode must exactly tile the target: 32 entries x 4 bits = 128
values = rng.random(32)
print("32 floats at 4 bits -> n=7 table",
      genotype_table(values, "float", 7, decode=4).to_hex()[:16], "...")
try:
    genotype_table(rng.random(20), "float", 7, decode=3)
except ValueError as e:
    print("20 x 3 bits rejected:", e)
print()

# 3. expression tree over x1..xn with Boolean operators, stored as one flat
#    preorder tuple: operator names for inner nodes, variable indices for leaves
tree = ("IF", 1, "AND2", 2, 3, "NOT", 2)
print("tree", tree_to_text(tree))
tt = genotype_table(tree, "tree", 3)
print("evaluates to", tt.bits.tolist(), "nl =", nonlinearity(walsh_transform(tt)))
print()

# the validator turns bad outside input into a one-line error
for encoding, n, genotype, decode in (
    ("bitstring", 2, [0, 0.7, 1, 0], 3),
    ("float", 3, [0.5, float("nan"), 0.5, 0.5], 2),
    ("tree", 3, ("AND", 1, 4), 3),
):
    try:
        check_genotype(genotype, encoding, n, decode=decode)
    except ValueError as e:
        print(f"{encoding} {genotype} rejected:", e)
print()

# random genotypes of every kind come from one factory, already in raw form
for kind in ("bitstring", "float", "tree"):
    g = random_genotype(kind, 5, rng, decode=2)
    shown = tree_to_text(g) if kind == "tree" else f"{g.dtype} array of {len(g)}"
    print("random", kind, "genotype:", shown)
