"""Golden records: small runs over every encoding, mode, local search and
spectrum path must replay to the committed canonical JSON, byte for byte.

``golden/runs.jsonl`` holds one canonical record per entry of ``GOLDEN``, in
order.  A change that means to alter run behaviour regenerates the file and
says why; any other change must leave it untouched.  Regenerate from the
repository root with::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from boolevo.engine import RunConfig, run

GOLDEN_FILE = Path(__file__).parent / "golden" / "runs.jsonl"

_N7 = dict(n=7, population_size=20, evaluation_budget=400, seed=11)

GOLDEN = {
    "tt-n7": dict(_N7),
    "tt-ri-n7": dict(_N7, mode="rs"),
    "fp-sst-n7": dict(_N7, encoding="float", decode=4),
    "fp-sst-ri-n7": dict(_N7, encoding="float", mode="rs", decode=4),
    "fp-de-n7": dict(_N7, encoding="float", decode=4, algorithm="de"),
    "gp-n5": dict(n=5, encoding="tree", population_size=20, evaluation_budget=200, seed=12),
    "tt-ri-ls1-n9": dict(
        n=9, mode="rs", ls="ls1", population_size=20, evaluation_budget=600, seed=13
    ),
    "tt-ls2-n9": dict(n=9, ls="ls2", population_size=20, evaluation_budget=1_200, seed=14),
    "tt-ls3-n7": dict(_N7, ls="ls3", evaluation_budget=600),
    "tt-n11": dict(n=11, population_size=10, evaluation_budget=40, seed=15),
    "tt-n13": dict(n=13, population_size=10, evaluation_budget=30, seed=16),
    "tt-ls2-n12": dict(n=12, ls="ls2", population_size=10, evaluation_budget=300, seed=17),
    "gp-caps-n7": dict(
        n=7, encoding="tree", population_size=30, evaluation_budget=600,
        max_depth=4, max_nodes=25, seed=18,
    ),
    "gp-ls1-n5": dict(
        n=5, encoding="tree", population_size=20, evaluation_budget=400,
        ls="ls1", ls_fraction=0.1, seed=19,
    ),
    "fp-de-ls1-n7": dict(
        _N7, encoding="float", decode=4, algorithm="de", ls="ls1", evaluation_budget=600
    ),
    "tt-ri-ls2-n9": dict(
        n=9, mode="rs", ls="ls2", population_size=20, evaluation_budget=1_200, seed=20
    ),
    # stops on its target at evaluation 60, inside an LS1 climb, 15 trials
    # after the climb's first accepted trial (the seed is the first from 21
    # up whose stop fell after an accepted trial of its climb, with the
    # stream of one SST step at a time)
    "tt-ri-ls1-target-n7": dict(
        _N7, mode="rs", ls="ls1", target_nonlinearity=56, evaluation_budget=600, seed=36
    ),
    # stops on its target at evaluation 317, the 17th trial of the 15th DE
    # generation, after that generation's trial at slot 5 replaced its target
    # and a later trial of the generation drew slot 5 (the first seed from 21
    # up whose target stop falls mid-generation after a replacement that a
    # later trial of that generation reads)
    "fp-de-ri-target-n9": dict(
        n=9, encoding="float", mode="rs", decode=4, algorithm="de", population_size=20,
        target_nonlinearity=236, evaluation_budget=600, seed=21,
    ),
    # stops on its target at evaluation 257, the fifth row of the third
    # 6-row SST block of generation 12 (evaluations 253 to 258; population
    # 20 runs blocks of 6, 6, 6 and 2), so the block's last row is never
    # charged (the first seed from 21 up whose target stop falls inside an
    # SST block, neither at its first row nor at its last)
    "tt-sst-target-n7": dict(_N7, target_nonlinearity=53, seed=21),
    # the n >= 11 cells beyond plain TT: orbit products of g = 188 and 632,
    # float decode over a two- and a three-factor chain, three-factor flip
    # rows and 632-orbit flip rows (each LS2 record commits a flip), and
    # packed trees of 512 and 8192 bits
    "tt-ri-n11": dict(n=11, mode="rs", population_size=10, evaluation_budget=40, seed=22),
    "tt-ri-n13": dict(n=13, mode="rs", population_size=10, evaluation_budget=30, seed=23),
    "fp-sst-n11": dict(
        n=11, encoding="float", decode=4, population_size=10, evaluation_budget=40, seed=24
    ),
    "fp-de-n13": dict(
        n=13, encoding="float", decode=4, algorithm="de", population_size=10,
        evaluation_budget=30, seed=25,
    ),
    "tt-ls2-n13": dict(n=13, ls="ls2", population_size=10, evaluation_budget=1_500, seed=26),
    "tt-ri-ls2-n13": dict(
        n=13, mode="rs", ls="ls2", population_size=10, evaluation_budget=1_500, seed=27
    ),
    "gp-n9": dict(n=9, encoding="tree", population_size=20, evaluation_budget=200, seed=28),
    "gp-n13": dict(n=13, encoding="tree", population_size=10, evaluation_budget=40, seed=29),
}


def golden_line(name: str) -> str:
    return run(RunConfig(**GOLDEN[name])).to_json()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_record(name):
    lines = GOLDEN_FILE.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(GOLDEN)
    assert golden_line(name) == lines[list(GOLDEN).index(name)]


if __name__ == "__main__":
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(
        "".join(golden_line(name) + "\n" for name in GOLDEN), encoding="utf-8"
    )
    print(f"wrote {len(GOLDEN)} records to {GOLDEN_FILE}")
