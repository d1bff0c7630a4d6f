"""Command-line interface.

Subcommands: ``search`` (one run), ``campaign`` (repeated runs with exports),
``verify`` (inspect a truth table in hex), ``orbits`` and ``bounds`` (lookup
tables).  ``search`` and ``campaign`` also read a JSON run spec via
``--spec``: one object keyed by the library's own keyword names (the
:class:`RunConfig` fields, and for a campaign the :class:`Campaign` counts
in place of ``seed``), so a record's ``config`` plus its ``seed`` is a
spec.  Explicit flags win over the spec.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import fields

from .encodings import ENCODINGS, MODES
from .engine import ALGORITHMS, RunConfig, run
from .harness import Campaign, SummaryRow, run_campaign, verify_hex
from .localsearch import VARIANTS
from .orbits import compute_orbits, orbit_count
from .truthtable import bounds

_RUN_FIELDS = {field.name for field in fields(RunConfig)}
_CAMPAIGN_FIELDS = {field.name for field in fields(Campaign)} - {"config"}
#: The keys a spec file, and so the flags, may give for each subcommand;
#: a campaign's seeds are seed_base + run index
_SPEC_KEYS = {
    "search": _RUN_FIELDS,
    "campaign": (_RUN_FIELDS - {"seed"}) | _CAMPAIGN_FIELDS,
}


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    # the parser's argument_default is SUPPRESS: a flag left out leaves the
    # spec's value, or else the library default, in force
    parser.add_argument("--spec", help="JSON object of keyword values; flags override it")
    # required, but it may come from the spec, so _keywords checks it
    parser.add_argument("--n", type=int, help="number of variables")
    parser.add_argument("--encoding", choices=ENCODINGS)
    parser.add_argument(
        "--mode",
        choices=MODES,
        help="search the full space or only rotation-symmetric functions",
    )
    parser.add_argument("--algorithm", choices=ALGORITHMS)
    parser.add_argument("--population-size", type=int)
    parser.add_argument("--budget", type=int, dest="evaluation_budget")
    parser.add_argument("--p-mutation", type=float)
    parser.add_argument("--decode", type=int, help="bits per float entry")
    parser.add_argument("--max-depth", type=int)
    parser.add_argument("--max-nodes", type=int)
    parser.add_argument("--de-weight", type=float)
    parser.add_argument("--de-crossover", type=float)
    parser.add_argument("--ls", choices=VARIANTS)
    parser.add_argument("--ls-fraction", type=float)
    parser.add_argument("--ls-trials", type=int)
    parser.add_argument("--target-nl", type=int, dest="target_nonlinearity")
    parser.add_argument("--time-limit", type=float)
    parser.add_argument("--label")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``boolevo`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="boolevo",
        description="Evolve Boolean functions with high nonlinearity.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser(
        "search", help="run one evolutionary search", argument_default=argparse.SUPPRESS
    )
    _add_run_options(search)
    search.add_argument("--seed", type=int)
    search.add_argument("--out", default=None, help="append the run record here (JSON lines)")

    campaign = commands.add_parser(
        "campaign",
        help="repeat a search over many seeds",
        argument_default=argparse.SUPPRESS,
    )
    _add_run_options(campaign)
    campaign.add_argument("--runs", type=int, dest="num_runs")
    campaign.add_argument("--seed-base", type=int)
    campaign.add_argument("--workers", type=int)
    campaign.add_argument(
        "--out", default=None, help="directory for runs.jsonl, summary.csv, boxplot.csv"
    )

    verify = commands.add_parser("verify", help="report properties of a hex truth table")
    verify.add_argument("hex", help="truth table, 2**n / 4 hex digits")
    verify.add_argument("--n", type=int, required=True)

    orbits = commands.add_parser("orbits", help="rotation-orbit structure of {0,1}^n")
    orbits.add_argument("--n", type=int, required=True)
    orbits.add_argument("--list", action="store_true", help="print every representative")

    bounds_cmd = commands.add_parser("bounds", help="nonlinearity bounds for odd n")
    bounds_cmd.add_argument("--n", type=int, required=True)

    return parser, commands.choices


def _load_spec(path: str, command: str) -> dict:
    """The keyword values of a spec file; its values are checked where the
    library checks them, by RunConfig.validate and run_campaign."""
    try:
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as error:
        raise ValueError(f"spec file {path!r}: {error.strerror}") from None
    except json.JSONDecodeError as error:
        raise ValueError(
            f"spec file {path!r}: {error.msg} at line {error.lineno} column {error.colno}"
        ) from None
    except UnicodeDecodeError as error:
        raise ValueError(f"spec file {path!r}: {error}") from None
    except RecursionError:
        # json gives up on deep nesting with the interpreter's recursion limit
        raise ValueError(f"spec file {path!r}: JSON nested too deeply") from None
    if not isinstance(spec, dict):
        kind = type(spec).__name__
        raise ValueError(f"spec file {path!r} must hold one JSON object, not a {kind}")
    unknown = sorted(spec.keys() - _SPEC_KEYS[command])
    if unknown:
        raise ValueError(f"spec file {path!r}: unknown keys for {command}: {unknown}")
    return spec


def _keywords(args, subparser: argparse.ArgumentParser) -> dict:
    """The subcommand's keyword values: the spec's, with explicit flags over them."""
    flags = {k: v for k, v in vars(args).items() if k in _SPEC_KEYS[args.command]}
    spec = _load_spec(args.spec, args.command) if "spec" in args else {}
    keywords = {**spec, **flags}
    if "n" not in keywords:
        subparser.error("the following arguments are required: --n")
    return keywords


def _summary_lines(rows: list[SummaryRow]) -> list[str]:
    out = []
    for row in rows:
        out.append(
            f"{row.label}: runs={row.num_runs} max={row.max_fitness:.4f} "
            f"avg={row.avg_fitness:.4f} std={row.std_fitness:.4f} "
            f"best_nl={row.max_nonlinearity}"
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, commands[args.command])
    except (ValueError, LookupError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args, subparser: argparse.ArgumentParser) -> int:
    if args.command == "search":
        config = RunConfig(**_keywords(args, subparser))
        # the record file is opened before the search, so a bad path fails at
        # once, not after it; a bad config fails before the file is made
        config.validate()
        with open(args.out, "a", encoding="utf-8") if args.out else nullcontext() as handle:
            record = run(config)
            print(f"label          {record.label}")
            print(f"seed           {record.seed}")
            print(f"evaluations    {record.evaluations}")
            print(f"stop reason    {record.stop_reason}")
            print(f"best fitness   {record.best_fitness:.6f}")
            print(f"best nl        {record.best_nonlinearity}")
            print(f"truth table    {record.best_truth_table}")
            print(f"wall time      {record.wall_time_s:.2f}s")
            if handle is not None:
                handle.write(record.to_json() + "\n")
                print(f"record appended to {args.out}")
        return 0

    if args.command == "campaign":
        keywords = _keywords(args, subparser)
        counts = {k: keywords.pop(k) for k in _CAMPAIGN_FIELDS if k in keywords}
        config = RunConfig(**keywords)
        campaign = Campaign(config, **counts)
        records, rows = run_campaign(campaign, out_dir=args.out)
        reached = sum(1 for r in records if r.target_reached)
        for line in _summary_lines(rows):
            print(line)
        if config.target_nonlinearity is not None:
            print(f"target reached in {reached}/{len(records)} runs")
        if args.out:
            print(f"artefacts written to {args.out}")
        return 0

    if args.command == "verify":
        report = verify_hex(args.hex, args.n)
        p = report.properties
        print(f"n                  {p.n}")
        print(f"nonlinearity       {p.nonlinearity}")
        print(f"balanced           {'yes' if p.balanced else 'no'} (weight {p.hamming_weight})")
        print(f"max |W|            {p.max_abs_walsh} (x{p.num_max_values})")
        print(f"fitness            {p.fitness:.6f}")
        print(f"rotation symmetric {'yes' if report.rotation_symmetric else 'no'}")
        for line in report.classification:
            print(line)
        return 0

    if args.command == "orbits":
        table = compute_orbits(args.n)
        print(f"n               {args.n}")
        print(f"orbits          {orbit_count(args.n)}")
        print(f"largest orbit   {int(table.orbit_sizes.max())}")
        print(f"fixed points    {int((table.orbit_sizes == 1).sum())}")
        if args.list:
            for rep, size in zip(table.representatives, table.orbit_sizes):
                print(f"{int(rep):>6}  size {int(size)}")
        return 0

    if args.command == "bounds":
        b = bounds(args.n)
        print(f"n               {b.n}")
        print(f"quadratic       {b.quadratic}")
        print(f"best known      {b.best_known}")
        print(f"upper bound     {b.upper}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
