"""Rotation-symmetric search at n=9 with local search attached.

After every generation's worth of steady-state steps, 5% of the population
(always including the incumbent best) is refined: ls1 retries mutations
until 25 in a row fail, ls2 sweeps all single-bit flips to a local optimum,
ls3 chains both.  Every probe counts against the same evaluation budget.
The plain run, without local search, is capped at 200,000 evaluations: it
needs about 1.76M to reach nl 240 with this seed, while each local-search
run reaches it within 60,000.
"""

from boolevo import RunConfig, run, verify_hex

for ls in (None, "ls1", "ls2", "ls3"):
    config = RunConfig(
        n=9,
        encoding="bitstring",
        mode="rs",
        ls=ls,
        population_size=50,
        evaluation_budget=200_000 if ls is None else 2_000_000,
        target_nonlinearity=240,
        seed=5,
    )
    record = run(config)
    print(
        f"{record.label:10s} nl={record.best_nonlinearity}  evals={record.evaluations:>9,d}  "
        f"stop={record.stop_reason}"
    )
    if ls is None:
        print(f"{'':10s} (capped at {config.evaluation_budget:,d} evaluations)")
    if ls == "ls1":
        best = record

print()
print("trajectory of the ls1 run (evaluations -> best fitness):")
for evals, fit in best.trajectory[-8:]:
    print(f"  {evals:>9,d}  {fit:.4f}")

print()
report = verify_hex(best.best_truth_table, 9)
print("best table is rotation symmetric:", report.rotation_symmetric)
for line in report.classification:
    print(" ", line)
