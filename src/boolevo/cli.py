"""Command-line interface.

Subcommands: ``search`` (one run), ``campaign`` (repeated runs with exports),
``verify`` (inspect a truth table in hex), ``orbits`` and ``bounds`` (lookup
tables).  Every option can also come from an INI file via ``--config``; the
file supplies defaults and explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import configparser
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


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    # the parser's argument_default is SUPPRESS: a flag left out leaves its
    # RunConfig default in force
    parser.add_argument("--n", type=int, required=True, help="number of variables")
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


def _config_from_args(args) -> RunConfig:
    return RunConfig(**{k: v for k, v in vars(args).items() if k in _RUN_FIELDS})


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``boolevo`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="boolevo",
        description="Evolve Boolean functions with high nonlinearity.",
    )
    parser.add_argument("--config", help="INI file with per-subcommand defaults")
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
    campaign.add_argument("--runs", type=int, default=30)
    campaign.add_argument("--seed-base", type=int, default=0)
    campaign.add_argument("--workers", type=int, default=1)
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


def _load_ini_defaults(path: str, command: str) -> dict:
    # no interpolation, so a value such as "50%" reaches argparse as written
    ini = configparser.ConfigParser(interpolation=None)
    try:
        read = ini.read(path)
    except configparser.Error as error:
        # its message runs on with the file's position and the line itself
        message = str(error).splitlines()[0]
        raise ValueError(f"config file {path!r}: {message}") from None
    if not read:
        raise OSError(f"cannot read config file {path!r}")
    if command not in ini:
        return {}
    # keys use flag spelling without the leading dashes; values stay strings
    # so argparse applies each option's type exactly as it would on the CLI
    return dict(ini[command].items())


def _apply_ini_defaults(subparser, defaults: dict, command: str) -> None:
    action_by_flag = {}
    for action in subparser._actions:
        for option in action.option_strings:
            action_by_flag[option.lstrip("-")] = action
    resolved = {}
    unknown = []
    for key, value in defaults.items():
        action = action_by_flag.get(key.replace("_", "-"))
        if action is None:
            unknown.append(key)
        elif isinstance(action, argparse._StoreTrueAction):
            resolved[action.dest] = _ini_boolean(key, value)
        else:
            resolved[action.dest] = value
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
    subparser.set_defaults(**resolved)
    for action in subparser._actions:
        if action.dest in resolved and action.required:
            action.required = False


def _ini_boolean(key: str, value: str) -> bool:
    """An on/off flag's INI value, in configparser's boolean words."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(
            f"config key {key} must be 1/yes/true/on or 0/no/false/off, got {value!r}"
        ) from None


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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    try:
        if known.config:
            # from the tokens --config leaves, so a path named like a
            # subcommand cannot choose the section
            command = next((token for token in rest if token in commands), None)
            if command is None:
                parser.error("a subcommand is required")
            defaults = _load_ini_defaults(known.config, command)
            if defaults:
                _apply_ini_defaults(commands[command], defaults, command)
        args = parser.parse_args(argv)
        return _dispatch(args)
    except (ValueError, LookupError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "search":
        config = _config_from_args(args)
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
        config = _config_from_args(args)
        campaign = Campaign(
            config=config,
            num_runs=args.runs,
            seed_base=args.seed_base,
            workers=args.workers,
        )
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
