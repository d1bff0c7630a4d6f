"""The benchmark's workloads: fixed-budget campaigns with no target stop.

Each workload is a list of ``(RunConfig keyword arguments, number of runs)``
pairs.  Every run spends exactly its evaluation budget, so one repetition of
a workload is a fixed amount of search work whatever the machine's speed.
Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.

Campaign run ``i`` of a workload run with ``--seed s`` uses the seed
``s * SEED_STRIDE + i``, so two different ``--seed`` values never share a
search run.

``REPETITIONS`` fixes how many times one benchmark run repeats a workload,
so every commit takes its medians over the same number of samples.  Each
count fills 20 to 28 s of ``--seconds 30`` on a 2-vCPU 2.0 GHz Xeon; the
``--seconds`` cap cuts a run short only when the machine is slower than
that (2 of 50 ``large-n`` runs measured on it).
"""

SEED_STRIDE = 1000

_N7 = dict(n=7, population_size=50, evaluation_budget=4_000)

WORKLOADS = {
    # criterion 07's traffic plus DE: both search loops, all n=7 encodings
    "n7-sst": [
        (dict(_N7, encoding="bitstring"), 3),
        (dict(_N7, encoding="bitstring", mode="rs"), 3),
        (dict(_N7, encoding="float", decode=4), 3),
        (dict(_N7, encoding="float", decode=4, algorithm="de"), 3),
    ],
    # criterion 06: the only workload that touches the tree layer
    "n7-gp": [
        (dict(n=7, encoding="tree", population_size=500, evaluation_budget=1_000), 12),
    ],
    # criterion 08 (LS1 on the orbit space) and LS2's incremental flip probes
    "n9-ls": [
        (dict(n=9, encoding="bitstring", mode="rs", ls="ls1", evaluation_budget=5_000), 8),
        (dict(n=9, encoding="bitstring", ls="ls2", evaluation_budget=5_000), 4),
    ],
    # kernel-bound: the cached dense matrix at n=11, the int64 butterfly at n=13
    "large-n": [
        (dict(n=11, encoding="bitstring", evaluation_budget=400), 3),
        (dict(n=13, encoding="bitstring", evaluation_budget=400), 3),
    ],
}

REPETITIONS = {"n7-sst": 5, "n7-gp": 4, "n9-ls": 8, "large-n": 8}
