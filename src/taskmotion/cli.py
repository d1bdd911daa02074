"""Command line front end.

Four subcommands: `run` executes a scenario and reports the outcome,
`validate` checks a scenario without running it, `gen` writes a built-in
benchmark as scenario text, and `dot` renders a scenario's graphs for
graphviz. Every subcommand takes the scenario either as a positional
argument or through `--scenario`; the value is `hanoi`, `habitat`, or a
scenario file path.

Exit codes: 0 when a run reaches its goal (and for any successful
non-run command), 2 when a run ends unsolvable or depth-limited, 1 for
usage and parse errors and for an output that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .andor import to_dot
from .dsl import DslError, Scenario, parse, serialize
from .interface import DEFAULT_RETRIES
from .network import DEFAULT_DEPTH_CAP
from .planner import (
    FinalStatus,
    PlanResult,
    RunConfig,
    metrics_text,
    run_scenario,
    trace_text,
)
from .scenarios import BadDiskCount, gen_habitat, gen_hanoi


class CliError(Exception):
    """Fatal usage-level problem; the message goes to stderr, exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which this tool reserves
    # for unsolved runs; remap usage problems to exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(f"{self.prog}: error: {message}")


def _pick_scenario_name(args) -> str:
    flag = getattr(args, "scenario", None)
    positional = getattr(args, "scenario_pos", None)
    if flag and positional:
        raise CliError("error: scenario given both positionally and "
                       "with --scenario")
    name = flag or positional
    if not name:
        raise CliError("error: no scenario; pass one positionally or "
                       "with --scenario")
    return name


def _load_scenario(args) -> Scenario:
    name = _pick_scenario_name(args)
    if name == "hanoi":
        try:
            return gen_hanoi(args.disks, omnipotent=args.omnipotent)
        except BadDiskCount as exc:
            raise CliError(f"error: {exc}")
    if name == "habitat":
        return gen_habitat()
    path = Path(name)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"error: cannot read {name}: {exc.strerror}")
    try:
        return parse(text)
    except DslError as exc:
        raise CliError(f"{name}:{exc.line}:{exc.col}: {exc.message}")


@contextmanager
def _writing(path: str):
    """Yield `path` to write an output to; an `OSError` in the block
    becomes one `cannot write` line naming the path that failed."""
    try:
        yield Path(path)
    except OSError as exc:
        raise CliError(f"error: cannot write {exc.filename or path}: {exc.strerror}")


def _render_table(metrics: dict) -> str:
    columns = metrics["table"]["columns"]
    rows = metrics["table"]["rows"]
    cells = [[_fmt(row[c]) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells))
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.rjust(w) for c, w in zip(columns, widths))]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _export_network_dots(result: PlanResult, directory: str):
    """Write one `graph_NNN.dot` per network entry into `directory`, after
    removing the `graph_NNN.dot` files an earlier run left there."""
    entries = result.network.entries
    with _writing(directory) as out:
        out.mkdir(parents=True, exist_ok=True)
        for old in out.glob("graph_*.dot"):
            if old.name[len("graph_"):-len(".dot")].isdigit():
                old.unlink()
        for index, entry in enumerate(entries, start=1):
            text = to_dot(entry.compiled.template, f"graph_{index:03d}_{entry.kind}",
                          entry.true_leaves, virtual=True)
            (out / f"graph_{index:03d}.dot").write_text(text)
    return len(entries)


def _cmd_run(args) -> int:
    scn = _load_scenario(args)
    config = RunConfig(depth_cap=args.depth_cap, retries=args.retries,
                       seed=args.seed)
    result = run_scenario(scn, config)
    print(f"scenario: {scn.name}")
    print(f"status:   {result.status.value}")
    if "detail" in result.metrics:
        print(f"detail:   {result.metrics['detail']}")
    print(f"depth:    {result.depth}")
    print(f"moves:    {result.moves}")
    print(f"sim time: {result.world.clock:.3f}s")
    print()
    print(_render_table(result.metrics))
    print()
    for row in result.metrics["modules"]:
        print(f"{row['module']:<28} avg {row['avg_s']:.6f}s"
              f"  std {row['std_s']:.6f}s  calls {row['calls']}")
    if args.out:
        with _writing(args.out) as out:
            out.write_text(metrics_text(result.metrics))
        print(f"wrote {args.out}")
    if args.trace:
        with _writing(args.trace) as out:
            out.write_text(trace_text(result.trace))
        print(f"wrote {args.trace}")
    if args.dot:
        count = _export_network_dots(result, args.dot)
        print(f"wrote {count} graph files to {args.dot}")
    return 0 if result.status is FinalStatus.GOAL_ACHIEVED else 2


def _cmd_validate(args) -> int:
    scn = _load_scenario(args)
    print(f"{scn.name}: ok ({len(scn.objects)} objects, "
          f"{len(scn.actions)} actions, {len(scn.graph.ids)} graph nodes, "
          f"{len(scn.stages)} stages)")
    return 0


def _cmd_gen(args) -> int:
    scn = _load_scenario(args)
    text = serialize(scn)
    if args.out:
        with _writing(args.out) as out:
            out.write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_dot(args) -> int:
    scn = _load_scenario(args)
    if args.dot:
        with _writing(args.dot) as out:
            out.mkdir(parents=True, exist_ok=True)
            (out / "main.dot").write_text(to_dot(scn.graph, title=scn.name))
            for stage_name in sorted(scn.stages):
                text = to_dot(scn.stages[stage_name], title=stage_name)
                (out / f"{stage_name}.dot").write_text(text)
        print(f"wrote {1 + len(scn.stages)} graph files to {args.dot}")
    else:
        sys.stdout.write(to_dot(scn.graph, title=scn.name))
    return 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _add_scenario_args(sub):
    sub.add_argument("scenario_pos", nargs="?", metavar="scenario",
                     help="'hanoi', 'habitat', or a scenario file path")
    sub.add_argument("--scenario",
                     help="same as the positional scenario argument")
    sub.add_argument("--disks", type=int, default=3,
                     help="disk count for the hanoi generator (default 3)")
    sub.add_argument("--omnipotent", action="store_true",
                     help="hanoi variant with one arm that reaches everything")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taskmotion",
        description="task and motion planning over expanding graph networks")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute a scenario")
    _add_scenario_args(run)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--depth-cap", type=_at_least(1), default=DEFAULT_DEPTH_CAP)
    run.add_argument("--retries", type=_at_least(0), default=DEFAULT_RETRIES)
    run.add_argument("--out", help="write the metrics document to this file")
    run.add_argument("--trace", help="write line-delimited run events to this file")
    run.add_argument("--dot", help="directory for one DOT file per network graph")
    run.set_defaults(fn=_cmd_run)

    validate = commands.add_parser("validate", help="parse and check a scenario")
    _add_scenario_args(validate)
    validate.set_defaults(fn=_cmd_validate)

    gen = commands.add_parser("gen", help="write a benchmark as scenario text")
    _add_scenario_args(gen)
    gen.add_argument("--out", help="write to this .scn file instead of stdout")
    gen.set_defaults(fn=_cmd_gen)

    dot = commands.add_parser("dot", help="render scenario graphs for graphviz")
    _add_scenario_args(dot)
    dot.add_argument("--dot", help="directory for main and stage graph files")
    dot.set_defaults(fn=_cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
