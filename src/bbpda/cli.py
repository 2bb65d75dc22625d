"""Command-line surface tying the modules together.

Subcommands: ``check`` (equivalence verdicts), ``tableau`` (proof search),
``game`` (scripted or solved plays), ``compile-ncm`` (counter-machine
compilation), ``lts`` (finite fragments), ``prop2`` (counter-test laws) and
``reduction-check`` (bounded game evidence on a compiled machine).

Exit codes: 0 equivalent / all properties hold, 1 inequivalent / a property
fails, 2 unknown / inconclusive (also when a search exhausts the recursion
limit or the closure budget), 64 parse, flag or model errors and illegal
game scripts.  All iteration orders are canonical, so outputs and exit
codes are deterministic.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .equivalence import BoundedChecker, ClosureBudgetExhausted, ExactOracle
from .equivalence import check_finite_exact, cut_reason, least_failing
from .game import (
    GameConfig,
    ScriptError,
    ScriptedStrategy,
    parse_script,
    play_dot,
    run_play,
    solve_bounded,
)
from .ncm import (
    MachineError,
    bounded_reduction_check,
    compile_reduction,
    lift_machine,
    parse_machine,
    prop2_suite,
)
from .system import Exceeded, ParseError, format_system, parse_system, parse_term
from .system import SystemError as ModelError
from .tableau import Goal, UnsupportedFlavor, format_tableau, search_tableau, tableau_dot

EX_EQUIVALENT = 0
EX_INEQUIVALENT = 1
EX_UNKNOWN = 2
EX_USAGE = 64


class _CliParser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 64."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _schedule(text: str):
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad depth schedule {text!r}")
    if not values or any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("depth schedule needs non-negative entries")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("depth schedule must be strictly increasing")
    return values


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _load_pair(args):
    system = parse_system(_read(args.system))
    left = parse_term(args.left, system)
    right = parse_term(args.right, system)
    return system, left, right


def cmd_check(args) -> int:
    system, left, right = _load_pair(args)
    verdict = check_finite_exact(left, right, system, budget=args.budget)
    lines = [verdict.format()]
    code = {"equivalent": EX_EQUIVALENT, "inequivalent": EX_INEQUIVALENT}.get(
        verdict.kind, EX_UNKNOWN
    )
    if verdict.kind == "unknown" and args.depth_schedule:
        related = BoundedChecker(system, silent_cap=args.silent_cap).rel
        failing = least_failing(related, left, right, args.depth_schedule)
        for depth in args.depth_schedule:
            lines.append(f"bounded depth {depth}: {'apart' if depth == failing else 'related'}")
            if depth == failing:
                code = EX_INEQUIVALENT
                break
        else:
            lines.append("bounded evidence only; equivalence remains unknown")
    _emit("\n".join(lines), args.output)
    return code


def cmd_tableau(args) -> int:
    system, left, right = _load_pair(args)
    flavor = args.flavor
    if flavor is None:
        if "eps_popping" in system.flavor:
            flavor = "eps-popping"
        elif "eps_pushing" in system.flavor:
            flavor = "eps-pushing"
        else:
            print("error: system declares no flavor; pass --flavor", file=sys.stderr)
            return EX_USAGE
    oracle = ExactOracle(system, budget=args.budget)
    try:
        root, stats = search_tableau(
            Goal(left, right), flavor, system, oracle, node_cap=args.node_cap
        )
    except UnsupportedFlavor as exc:
        _emit(f"unknown ({exc})", args.output)
        return EX_UNKNOWN
    if root is None:
        _emit(f"unknown (no tableau within budgets; nodes={stats.nodes})", args.output)
        return EX_UNKNOWN
    text = tableau_dot(root) if args.format == "dot" else format_tableau(root)
    _emit(text, args.output)
    return EX_EQUIVALENT


def cmd_game(args) -> int:
    system, left, right = _load_pair(args)
    start = GameConfig(left, right)
    if args.script:
        moves = parse_script(_read(args.script), system)
        attacker = ScriptedStrategy(moves, system, "A")
        defender = ScriptedStrategy(moves, system, "D")
        outcome = run_play(
            system,
            start,
            attacker,
            defender,
            max_rounds=args.max_rounds,
            silent_cap=args.silent_cap,
        )
        text = play_dot(outcome) if args.format == "dot" else outcome.format()
        _emit(text, args.output)
        if outcome.winner == "script-error":
            return EX_USAGE
        # a play the attacker does not win is evidence only, as in a solved game
        return EX_INEQUIVALENT if outcome.winner == "attacker" else EX_UNKNOWN
    result = solve_bounded(start, BoundedChecker(system, silent_cap=args.silent_cap), args.depth)
    if args.format == "dot" and result.outcome is not None:
        _emit(play_dot(result.outcome), args.output)
    else:
        _emit(result.format(), args.output)
    return EX_INEQUIVALENT if result.winner == "attacker" else EX_UNKNOWN


def cmd_compile_ncm(args) -> int:
    machine = parse_machine(_read(args.machine), counters=args.counters)
    lifted = lift_machine(machine) if machine.counters == 2 else machine
    output = compile_reduction(lifted)
    _emit(format_system(output.system), args.output)
    if args.inventory:
        lines = [f"root-pair {output.root_pair.format()}"]
        lines += [f"state {key} {name}" for key, name in sorted(output.state_inventory.items())]
        lines += [f"symbol {s}" for s in output.symbol_inventory]
        lines += [f"action {a}" for a in output.action_inventory]
        _emit("\n".join(lines), args.inventory)
    return EX_EQUIVALENT


def cmd_lts(args) -> int:
    system = parse_system(_read(args.system))
    roots = tuple(parse_term(t, system) for t in args.terms)
    fragment = system.reachable_lts(roots, budget=args.budget)
    if isinstance(fragment, Exceeded):
        _emit(
            f"exceeded (explored {fragment.explored}, frontier {fragment.frontier})",
            args.output,
        )
        return EX_UNKNOWN
    _emit(fragment.format(), args.output)
    return EX_EQUIVALENT


def cmd_prop2(args) -> int:
    machine = parse_machine(_read(args.machine), counters=args.counters)
    lifted = lift_machine(machine) if machine.counters == 2 else machine
    output = compile_reduction(lifted)
    report = prop2_suite(
        output, max_counter=args.max_counter, bounded_depth=args.bounded_depth
    )
    _emit(report.format(), args.output)
    if report.violations:
        return EX_INEQUIVALENT
    if report.unknown:
        return EX_UNKNOWN
    return EX_EQUIVALENT


def cmd_reduction_check(args) -> int:
    machine = parse_machine(_read(args.machine), counters=args.counters)
    report = bounded_reduction_check(
        machine, schedule=args.depth_schedule, silent_cap=args.silent_cap
    )
    _emit(report.format(), args.output)
    return (
        EX_INEQUIVALENT if report.attacker_win_depth is not None else EX_UNKNOWN
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="bbpda", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the report to a file instead of stdout")

    p = sub.add_parser("check", help="equivalence verdict for a term pair")
    p.add_argument("system", help="system file")
    p.add_argument("left", help="left term")
    p.add_argument("right", help="right term")
    p.add_argument("--budget", type=_positive, default=500, help="fragment node budget")
    p.add_argument("--depth-schedule", type=_schedule, default=())
    p.add_argument("--silent-cap", type=_positive, default=None)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tableau", help="search for a successful tableau")
    p.add_argument("system")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--flavor", choices=("eps-popping", "eps-pushing"), default=None)
    p.add_argument("--budget", type=_positive, default=500)
    p.add_argument("--node-cap", type=_positive, default=4000)
    p.add_argument("--format", choices=("text", "dot"), default="text")
    common(p)
    p.set_defaults(func=cmd_tableau)

    p = sub.add_parser("game", help="play a scripted game or solve at bounded depth")
    p.add_argument("system")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--script", default=None, help="script file with A/D moves")
    p.add_argument("--depth", type=_positive, default=8)
    p.add_argument("--max-rounds", type=_positive, default=64)
    p.add_argument("--silent-cap", type=_positive, default=None)
    p.add_argument("--format", choices=("text", "dot"), default="text")
    common(p)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("compile-ncm", help="compile a counter machine to a system file")
    p.add_argument("machine", help="counter-machine file")
    p.add_argument("--counters", type=int, choices=(2, 3), default=2)
    p.add_argument("--inventory", default=None, help="also write the state inventory")
    common(p)
    p.set_defaults(func=cmd_compile_ncm)

    p = sub.add_parser("lts", help="write the reachable finite fragment")
    p.add_argument("system")
    p.add_argument("terms", nargs="+", help="root terms")
    p.add_argument("--budget", type=_positive, default=500)
    common(p)
    p.set_defaults(func=cmd_lts)

    p = sub.add_parser("prop2", help="check the counter-test laws on a compiled machine")
    p.add_argument("machine")
    p.add_argument("--counters", type=int, choices=(2, 3), default=2)
    p.add_argument("--max-counter", type=_positive, default=3)
    p.add_argument("--bounded-depth", type=_positive, default=6)
    common(p)
    p.set_defaults(func=cmd_prop2)

    p = sub.add_parser(
        "reduction-check", help="bounded game evidence from a compiled machine's root pair"
    )
    p.add_argument("machine")
    p.add_argument("--counters", type=int, choices=(2, 3), default=2)
    p.add_argument("--depth-schedule", type=_schedule, default=(4, 8, 16, 32))
    p.add_argument("--silent-cap", type=_positive, default=8)
    common(p)
    p.set_defaults(func=cmd_reduction_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it
    unchanged, so every ``main`` call can share it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    try:
        return args.func(args)
    except (ParseError, MachineError, ModelError, ScriptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (RecursionError, ClosureBudgetExhausted) as exc:
        _emit(f"unknown ({cut_reason(exc)})", args.output)
        return EX_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
