"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the module and class attributes
that boolevo looks up at call time (``boolevo.engine.sst_step``,
``boolevo.evaluation.spectrum_key``, ``FitnessEvaluator.evaluate`` and so
on).  Each call records a span: its name, start, end, parent span and
whether it returned normally.  Spans stay in memory in flat arrays and are
written out once, at the end of the repetition.

A span's self time is its duration minus the durations of its child spans.
The wrappers draw no random numbers and change no arguments, so a traced
repetition must produce byte-identical records; the benchmark checks that.
"""

from __future__ import annotations

import inspect
import statistics
from array import array
from collections import Counter
from time import perf_counter

# span names, by layer
RUN = "engine.run"
SST_STEP = "engine.sst_step"
DE_STEP = "engine.de_step"
MUTATE = "operators.mutate"
CROSSOVER = "operators.crossover"
RANDOM_GENOTYPE = "encodings.random_genotype"
FLOAT_BITS = "encodings.float_bits"
TREE_TRUTH_BITS = "encodings.tree_truth_bits"
EVALUATOR_INIT = "evaluation.FitnessEvaluator.init"
EVALUATE = "evaluation.evaluate"
SPECTRUM_KEY = "evaluation.spectrum_key"
TRY_FLIP = "evaluation.try_flip"
HADAMARD = "truthtable.hadamard_transform"
COMPUTE_ORBITS = "orbits.compute_orbits"
SIGN_PATTERNS = "orbits.orbit_sign_patterns"
APPLY_LS = "localsearch.apply_ls"
RUN_CAMPAIGN = "harness.run_campaign"
WRITE_RECORDS = "harness.write_records"

_ALL_SPANS = (
    RUN, SST_STEP, DE_STEP, MUTATE, CROSSOVER, RANDOM_GENOTYPE, FLOAT_BITS,
    TREE_TRUTH_BITS, EVALUATOR_INIT, EVALUATE, SPECTRUM_KEY, TRY_FLIP, HADAMARD,
    COMPUTE_ORBITS, SIGN_PATTERNS, APPLY_LS, RUN_CAMPAIGN, WRITE_RECORDS,
)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.names = list(_ALL_SPANS)
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self._ids[name]
        name_id, parent, start, end, ok, stack = (
            self.name_id, self.parent, self.start, self.end, self.ok, self._stack
        )

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            ok.append(0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            ok[index] = 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer boundary of the imported boolevo package."""
        from boolevo import engine, evaluation, harness, localsearch, orbits

        def patch(owner, attribute: str, name: str) -> None:
            setattr(owner, attribute, self.span(name, getattr(owner, attribute)))

        patch(harness, "run_campaign", RUN_CAMPAIGN)
        patch(harness, "write_records", WRITE_RECORDS)
        patch(harness, "run", RUN)
        patch(engine, "sst_step", SST_STEP)
        patch(engine, "de_step", DE_STEP)
        patch(engine, "apply_ls", APPLY_LS)
        patch(engine, "random_genotype", RANDOM_GENOTYPE)
        patch(evaluation.FitnessEvaluator, "__init__", EVALUATOR_INIT)
        patch(evaluation.FitnessEvaluator, "evaluate", EVALUATE)
        patch(evaluation.BitFlipSession, "try_flip", TRY_FLIP)
        patch(evaluation, "spectrum_key", SPECTRUM_KEY)
        patch(evaluation, "float_bits", FLOAT_BITS)
        patch(evaluation, "tree_truth_bits", TREE_TRUTH_BITS)
        patch(evaluation, "hadamard_transform", HADAMARD)
        patch(evaluation, "compute_orbits", COMPUTE_ORBITS)
        patch(orbits, "compute_orbits", COMPUTE_ORBITS)
        patch(evaluation, "orbit_sign_patterns", SIGN_PATTERNS)

        counters = self.counters
        make_operators = engine.make_operators

        def traced_make_operators(encoding, *args, **kwargs):
            mutate, crossover = make_operators(encoding, *args, **kwargs)
            mutate = self.span(MUTATE, mutate)
            crossover = self.span(CROSSOVER, crossover)
            if encoding != "tree":
                return mutate, crossover

            def tree_crossover(a, b, rng):
                child = crossover(a, b, rng)
                counters["tree_crossovers"] += 1
                counters["tree_crossover_parent"] += child == a
                return child

            return mutate, tree_crossover

        engine.make_operators = traced_make_operators

        ls_mutation = localsearch.ls_mutation
        signature = inspect.signature(ls_mutation)

        def counted_ls_mutation(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            note = bound.arguments.get("note")

            def counting_note(individual):
                counters["ls1_improvements"] += 1
                if note is not None:
                    note(individual)

            bound.arguments["note"] = counting_note
            return ls_mutation(*bound.args, **bound.kwargs)

        localsearch.ls_mutation = counted_ls_mutation

        commit = evaluation.BitFlipSession.commit

        def counted_commit(session):
            counters["ls2_commits"] += 1
            return commit(session)

        evaluation.BitFlipSession.commit = counted_commit

    def write(self, path) -> None:
        """Write all spans as TSV, times in ns from the first span's start."""
        origin = self.start[0] if len(self.start) else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\tok\n")
            for index, (nid, parent, start, end, ok) in enumerate(
                zip(self.name_id, self.parent, self.start, self.end, self.ok)
            ):
                handle.write(
                    f"{index}\t{parent}\t{names[nid]}\t{round((start - origin) * 1e9)}"
                    f"\t{round((end - origin) * 1e9)}\t{ok}\n"
                )

    def layer_metrics(
        self, setup_end: int, evaluations: int, expected_init: int
    ) -> tuple[dict, list]:
        """Per-layer metrics of one traced repetition, plus coverage problems.

        ``setup_end`` is the number of spans recorded during set-up; later
        spans belong to the campaigns.  ``evaluations`` is the sum of the
        records' evaluation counts and ``expected_init`` the number of
        initial-population evaluations the workload's configs imply.
        """
        count = len(self.start)
        ids = self._ids
        duration = [e - s for s, e in zip(self.start, self.end)]
        child_time = [0.0] * count
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += duration[index]

        calls = Counter()
        ok_calls = Counter()
        total = Counter()
        self_total = Counter()
        setup_total = Counter()
        setup_self = Counter()
        step_durations = []
        sst_id = ids[SST_STEP]
        for index in range(count):
            nid = self.name_id[index]
            spent = duration[index]
            own = spent - child_time[index]
            if index < setup_end:
                setup_total[nid] += spent
                setup_self[nid] += own
                continue
            calls[nid] += 1
            ok_calls[nid] += self.ok[index]
            total[nid] += spent
            self_total[nid] += own
            if nid == sst_id:
                step_durations.append(spent)

        sources = Counter()
        evaluate_id, flip_id = ids[EVALUATE], ids[TRY_FLIP]
        source_of = {
            ids[SST_STEP]: "variation",
            ids[DE_STEP]: "variation",
            ids[APPLY_LS]: "ls",
            ids[RUN]: "init",
        }
        for index in range(setup_end, count):
            nid = self.name_id[index]
            if (nid != evaluate_id and nid != flip_id) or not self.ok[index]:
                continue
            ancestor = self.parent[index]
            while ancestor >= 0 and self.name_id[ancestor] not in source_of:
                ancestor = self.parent[ancestor]
            source = source_of[self.name_id[ancestor]] if ancestor >= 0 else "outside"
            sources[source] += 1
            if source == "ls" and nid == evaluate_id:
                sources["ls1 trials"] += 1

        def per_call_us(name: str, own: bool = False) -> float:
            nid = ids[name]
            if not calls[nid]:
                return 0.0
            return 1e6 * (self_total if own else total)[nid] / calls[nid]

        def ratio(numerator: int, denominator: int) -> float:
            return numerator / denominator if denominator else 0.0

        if len(step_durations) >= 2:
            percentiles = statistics.quantiles(step_durations, n=100)
            p50, p99 = percentiles[49] * 1e6, percentiles[98] * 1e6
        else:
            p50 = p99 = 0.0
        counters = self.counters
        metrics = {
            "engine.sst_step.self_us": per_call_us(SST_STEP, own=True),
            "engine.sst_step.p50_us": p50,
            "engine.sst_step.p99_us": p99,
            "engine.sst_step.calls": calls[ids[SST_STEP]],
            "engine.de_step.self_us": per_call_us(DE_STEP, own=True),
            "engine.de_step.calls": calls[ids[DE_STEP]],
            "engine.run.self_us_per_eval": 1e6 * ratio(self_total[ids[RUN]], evaluations),
            "operators.mutate.us": per_call_us(MUTATE),
            "operators.mutate.calls": calls[ids[MUTATE]],
            "operators.crossover.us": per_call_us(CROSSOVER),
            "operators.crossover.calls": calls[ids[CROSSOVER]],
            "operators.tree_crossover_parent_ratio": ratio(
                counters["tree_crossover_parent"], counters["tree_crossovers"]
            ),
            "encodings.tree_truth_bits.us": per_call_us(TREE_TRUTH_BITS),
            "encodings.float_bits.us": per_call_us(FLOAT_BITS),
            "encodings.random_genotype.us": per_call_us(RANDOM_GENOTYPE),
            "evaluation.evaluate.self_us": per_call_us(EVALUATE, own=True),
            "evaluation.evaluate.calls": ok_calls[evaluate_id],
            "evaluation.spectrum_key.us": per_call_us(SPECTRUM_KEY),
            "evaluation.try_flip.us": per_call_us(TRY_FLIP),
            "evaluation.try_flip.calls": ok_calls[flip_id],
            "evaluation.FitnessEvaluator.init_s": setup_total[ids[EVALUATOR_INIT]],
            "evaluation.evals_init": sources["init"],
            "evaluation.evals_variation": sources["variation"],
            "evaluation.evals_ls": sources["ls"],
            "truthtable.hadamard_transform.us": per_call_us(HADAMARD),
            "orbits.compute_orbits.cold_s": setup_total[ids[COMPUTE_ORBITS]],
            "orbits.orbit_sign_patterns.cold_s": setup_self[ids[SIGN_PATTERNS]],
            "localsearch.apply_ls.self_us": per_call_us(APPLY_LS, own=True),
            "localsearch.apply_ls.calls": calls[ids[APPLY_LS]],
            "localsearch.ls1_accept_ratio": ratio(
                counters["ls1_improvements"], sources["ls1 trials"]
            ),
            "localsearch.ls2_commit_ratio": ratio(counters["ls2_commits"], ok_calls[flip_id]),
            "harness.run_campaign.self_s": self_total[ids[RUN_CAMPAIGN]],
            "harness.write_records.s": total[ids[WRITE_RECORDS]],
            "trace.spans": count,
        }

        problems = []
        charged = ok_calls[evaluate_id] + ok_calls[flip_id]
        if charged != evaluations:
            problems.append(
                f"traced evaluate + try_flip calls {charged} != records' evaluations {evaluations}"
            )
        if sources["outside"]:
            problems.append(f"{sources['outside']} evaluations ran outside engine.run")
        if sources["init"] != expected_init:
            problems.append(
                f"traced init evaluations {sources['init']} != population sizes {expected_init}"
            )
        return metrics, problems

