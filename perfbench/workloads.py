"""The benchmark's workloads: inputs, CLI queries, verdict checks and the
reasons each workload exists.

Every workload is a closed loop with one client: the next CLI call starts
only after the previous one returned.  A workload's input files and query
list are made once per run from the seed (``generate``, untimed, in the
run's own process); each process then does the program's set-up work on
them (``prepare``: machine compilation or corpus file parsing, timed as
set-up) and runs one pass of CLI calls; the pass's outputs are checked
against references that do not come from the decider that produced them.

The ``why``/``moves``/``steady`` texts are the predictions later changes
cite: ``moves`` names the per-layer metrics a change to that layer should
move on this workload, ``steady`` what should not change.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field

PROP2_MACHINE = "1: inc c1 goto 2\n2: halt\n"
LOOPING_MACHINE = "1: goto 1 or goto 1\n2: halt\n"
HALTING_MACHINE = "1: halt\n"

# `1: halt` has no infinite run, and the Attacker's first win on its root
# pair comes at depth 6 (the value criterion 7's halting direction relies on).
HALTING_REFUTED_AT = 6

EXIT_FOR_KIND = {"equivalent": 0, "inequivalent": 1, "unknown": 2}


@dataclass
class Query:
    """One CLI call; ``group`` ties the calls whose verdicts are cross-checked."""

    kind: str
    argv: list
    group: int = 0
    # (index of an earlier query, exit code): the client skips this call
    # when that query exited with that code
    skip_if: tuple | None = None


def save_queries(path: str, queries: list) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([asdict(q) for q in queries], handle)


def load_queries(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        items = json.load(handle)
    return [
        Query(i["kind"], i["argv"], i["group"], i["skip_if"] and tuple(i["skip_if"]))
        for i in items
    ]


def _compile_machines(queries: list) -> None:
    """Set-up of the machine workloads: compile each query's machine once
    (each CLI call compiles it again, inside the measured pass)."""
    from bbpda.ncm import compile_reduction, lift_machine, parse_machine

    for query in queries:
        with open(query.argv[1], encoding="utf-8") as handle:
            compile_reduction(lift_machine(parse_machine(handle.read())))


@dataclass
class Outcome:
    query: Query
    code: int | None  # None when the call raised
    stdout: str
    error: str | None  # the traceback's last line, if it raised
    interval: tuple  # perf_counter (start, end) of the call


@dataclass
class Checked:
    """Verdict check of one pass."""

    wrong: list = field(default_factory=list)  # (query index, reason)
    verdicts: int = 0  # verdicts delivered (see each workload's definition)


# ---------------------------------------------------------------------------
# prop2-laws
# ---------------------------------------------------------------------------


def prop2_expected_counts(max_counter: int) -> dict:
    """Per-law instance counts of ``prop2``, from the laws' own enumeration.

    With v = (max_counter + 1)^3 counter vectors: laws 1 and 2 range over
    all vector pairs, laws 3-6 over all pairs for each of the 3 counters,
    and law 7 over 7 sampled test states x 2 prefixes x all pairs.
    """
    pairs = ((max_counter + 1) ** 3) ** 2
    counts = {1: pairs, 2: pairs}
    counts.update({law: 3 * pairs for law in (3, 4, 5, 6)})
    counts[7] = 7 * 2 * pairs
    return counts


class Prop2Laws:
    name = "prop2-laws"
    why = (
        "the counter-test laws of criterion 5's machine at --max-counter 2: "
        "20412 exact checks on ~6-node fragments of the compiled 482-state "
        "system, one CLI call; about half the time is fragment exploration "
        "(stack_word -> PdaSystem.step -> reachable_lts), a third "
        "FragmentStratification plus attacker scripts, a tenth "
        "branching_partition.  Inputs are fixed by the law enumeration, so "
        "the workload seed does not apply."
    )
    moves = (
        "terms.stack_word.calls/.s and system.step.calls/.s -> run_s",
        "system.reachable_lts.calls/.s/.nodes/.closed_ratio -> run_s",
        "equivalence.check_finite_exact/.branching_partition/"
        ".FragmentStratification/.extract_attacker_script -> run_s",
        "ncm.compile_reduction.s/.states/.rules -> setup_s",
    )
    steady = (
        "no BoundedChecker, game or tableau work: equivalence.BoundedChecker.rel.calls, "
        "game.* and tableau.* stay 0",
    )

    def __init__(self, smoke: bool):
        self.max_counter = 1 if smoke else 2

    def generate(self, workdir: str, seed: int) -> list:
        path = os.path.join(workdir, "criterion5.ncm")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(PROP2_MACHINE)
        argv = ["prop2", path, "--max-counter", str(self.max_counter)]
        return [Query("prop2", argv)]

    prepare = staticmethod(_compile_machines)

    def check(self, outcomes: list) -> Checked:
        checked = Checked()
        expected = prop2_expected_counts(self.max_counter)
        for index, out in enumerate(outcomes):
            if out.code is None:
                continue
            seen = {}
            problems = []
            for line in out.stdout.splitlines():
                m = re.fullmatch(r"statement (\d+): (\d+) instances, (.*)", line)
                if m:
                    seen[int(m.group(1))] = int(m.group(2))
                    if m.group(3) != "ok":
                        problems.append(line)
                elif line.startswith(("violation", "unknown")):
                    problems.append(line)
            if out.code != 0:
                problems.append(f"exit {out.code}, expected 0")
            if seen != expected:
                problems.append(f"instance counts {seen}, expected {expected}")
            if problems:
                checked.wrong.append((index, "; ".join(problems)))
            else:
                checked.verdicts += sum(seen.values())
        return checked


# ---------------------------------------------------------------------------
# reduction-depth
# ---------------------------------------------------------------------------


class ReductionDepth:
    name = "reduction-depth"
    why = (
        "bounded reduction evidence: criterion 7's looping machine survives "
        "--depth-schedule 4,8,12 (exit 2) and `1: halt` is refuted at depth 6 "
        "of 2,4,6,8 (exit 1, SolverStrategy replay); nearly all time is "
        "BoundedChecker.rel with the garbage_collapse canon map and horizon "
        "truncation, plus the duplicate check_bounded cross-check.  The "
        "halting machine of criterion 7 needs depth 16 (~40 s) and is left "
        "out for run length.  Inputs are fixed, so the seed does not apply."
    )
    moves = (
        "equivalence.BoundedChecker.rel.calls, equivalence.check_bounded.calls/.s, "
        "ncm.canon.calls, terms.stack_word.calls/.s (horizon _trunc) -> run_s "
        "(and raw_cpu_s in the run record)",
        "game.solve_bounded.calls/.s/.memo_pairs -> run_s, peak_rss_mb",
        "game.run_play.s/.rounds -> query_p50_ms (the `1: halt` call)",
    )
    steady = (
        "per-term memoisation leaves system.step, system.reachable_lts and "
        "refinement with almost no work: changes there predict no change here",
    )

    def __init__(self, smoke: bool):
        self.looping_schedule = (2, 4) if smoke else (4, 8, 12)
        self.halting_schedule = (2, 4, 6) if smoke else (2, 4, 6, 8)

    def generate(self, workdir: str, seed: int) -> list:
        queries = []
        for label, text, schedule in (
            ("looping", LOOPING_MACHINE, self.looping_schedule),
            ("halting", HALTING_MACHINE, self.halting_schedule),
        ):
            path = os.path.join(workdir, f"{label}.ncm")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            argv = [
                "reduction-check",
                path,
                "--depth-schedule",
                ",".join(str(d) for d in schedule),
            ]
            queries.append(Query(label, argv))
        return queries

    prepare = staticmethod(_compile_machines)

    def check(self, outcomes: list) -> Checked:
        checked = Checked()
        for index, out in enumerate(outcomes):
            if out.code is None:
                continue
            if out.query.kind == "looping":
                schedule = self.looping_schedule
                expected_code, win_depth = 2, None
            else:
                schedule = self.halting_schedule
                expected_code, win_depth = 1, HALTING_REFUTED_AT
            expected = []
            for depth in schedule:
                if depth == win_depth:
                    expected.append(f"depth {depth}: attacker (attack found, cross-check agrees)")
                    break
                expected.append(f"depth {depth}: defender (survives, cross-check agrees)")
            lines = [l for l in out.stdout.splitlines() if l.startswith("depth ")]
            problems = []
            if out.code != expected_code:
                problems.append(f"exit {out.code}, expected {expected_code}")
            if lines != expected:
                problems.append(f"depth lines {lines}, expected {expected}")
            if win_depth is not None and f"attacker wins at depth {win_depth}:" not in out.stdout:
                problems.append(f"no attacker win at depth {win_depth}")
            if problems:
                checked.wrong.append((index, "; ".join(problems)))
            else:
                checked.verdicts += len(lines)
        return checked


# ---------------------------------------------------------------------------
# toy-corpus
# ---------------------------------------------------------------------------

# A pair's cost is heavy-tailed (mostly pushing-system tableau searches) and
# the corpus changes with the workload seed, so a pass samples many systems
# with few pairs each: 60 systems x 6 pairs spread run_s by 0.21 over ten
# seeds, and the per-pair costs predict about 0.06 for 480 x 2.
CORPUS_SEEDS_PER_PASS = 480
PAIRS_PER_SYSTEM = 2
GAME_DEPTH = 8


class ToyCorpus:
    name = "toy-corpus"
    why = (
        "thousands of short queries on 2 sampled pairs of each of 480 random "
        "popping and 480 random pushing systems (tests/corpus.py, corpus seeds "
        "from the workload seed): check and game --depth 8 on every pair, "
        "then tableau for a certificate on each pair check did not refute "
        "(about 4760 CLI calls on ~7-node fragments, some running out their "
        "500-node budget); per-call costs (argparse rebuild, file parsing, the "
        "per-pair ExactOracle cache in tableau search) weigh heavily, and the "
        "games have no canon or horizon.  A change aimed at prop2-laws or "
        "reduction-depth that taxes short queries shows up here."
    )
    moves = (
        "cli.build_parser.s, cli.parse.s -> query_p50_ms",
        "system.reachable_lts.calls/.s/.nodes/.closed_ratio, "
        "equivalence.check_finite_exact/.branching_partition/.FragmentStratification "
        "-> query_p99_ms",
        "equivalence.ExactOracle.judge.calls/.hit_ratio, tableau.search_tableau.*, "
        "tableau.compute_match.s, tableau.verify_tableau.s -> query_p99_ms, decided_frac",
        "terms.compose.calls, game.run_play.s/.rounds -> query_p50_ms",
    )
    steady = ("no canon or horizon: ncm.* stays 0",)

    def __init__(self, smoke: bool, audit: bool = False):
        self.seeds_per_pass = 6 if smoke else CORPUS_SEEDS_PER_PASS
        # The audit asks tableau about every pair, refuted ones too, and so
        # shows known defect 2 of NOTES.md (tableau proves some inequivalent
        # pairs); the timed workload asks it only for pairs check did not
        # refute.
        self.audit = audit

    def generate(self, workdir: str, seed: int) -> list:
        from corpus import random_popping_system, random_pushing_system, sample_pairs

        from bbpda.system import format_system, parse_system, parse_term
        from bbpda.terms import format_term

        queries = []
        group = 0
        first = seed * self.seeds_per_pass
        for corpus_seed in range(first, first + self.seeds_per_pass):
            for family, make in (
                ("pop", random_popping_system),
                ("push", random_pushing_system),
            ):
                system = make(corpus_seed)
                text = format_system(system)
                path = os.path.join(workdir, f"{family}{corpus_seed}.sys")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                parsed = parse_system(text)
                for left, right in sample_pairs(corpus_seed, system, PAIRS_PER_SYSTEM):
                    terms = [format_term(left), format_term(right)]
                    if [parse_term(t, parsed) for t in terms] != [left, right]:
                        raise ValueError(f"term text does not round-trip: {terms}")
                    check_index = len(queries)
                    queries.append(Query("check", ["check", path, *terms], group))
                    queries.append(
                        Query("game", ["game", path, *terms, "--depth", str(GAME_DEPTH)], group)
                    )
                    skip_if = None if self.audit else (check_index, 1)
                    queries.append(Query("tableau", ["tableau", path, *terms], group, skip_if))
                    group += 1
        return queries

    @staticmethod
    def prepare(queries: list) -> None:
        """Set-up: parse every system file and every pair's terms once."""
        from bbpda.system import parse_system, parse_term

        systems = {}
        for query in queries:
            if query.kind != "check":
                continue
            path, left, right = query.argv[1:4]
            if path not in systems:
                with open(path, encoding="utf-8") as handle:
                    systems[path] = parse_system(handle.read())
            parse_term(left, systems[path])
            parse_term(right, systems[path])

    def check(self, outcomes: list) -> Checked:
        """Cross-check each pair's verdicts.

        check equivalent -> game survives (exit 2); check inequivalent with
        failing-depth <= 8 -> game wins (exit 1); tableau found (exit 0) ->
        check is not inequivalent and game does not win.  Each output must
        also agree with its own exit code.  A call that raised has no
        verdict and is skipped; a tableau call the client skipped has none
        either.
        """
        checked = Checked()
        by_group: dict = {}
        for index, out in enumerate(outcomes):
            by_group.setdefault(out.query.group, {})[out.query.kind] = (index, out)
            if out.code is None:
                continue
            problem = _self_consistency(out)
            if problem:
                checked.wrong.append((index, problem))
            else:
                checked.verdicts += 1
        for calls in by_group.values():
            _, check = calls["check"]
            game_i, game = calls["game"]
            tab_i, tab = calls.get("tableau", (None, None))
            found = tab is not None and tab.code == 0
            if found and game.code == 1:
                checked.wrong.append((tab_i, "tableau found but game refutes"))
            kind, depth = _check_verdict(check)
            if kind is None:
                continue
            if game.code is not None:
                if kind == "equivalent" and game.code != 2:
                    checked.wrong.append((game_i, "check equivalent but game refutes"))
                if kind == "inequivalent" and depth <= GAME_DEPTH and game.code != 1:
                    checked.wrong.append(
                        (game_i, f"check fails at depth {depth} but game survives")
                    )
            if found and kind == "inequivalent":
                checked.wrong.append((tab_i, "tableau found for an inequivalent pair"))
        return checked


def _check_verdict(out: Outcome):
    if out.code is None:
        return None, None
    kind = depth = None
    for line in out.stdout.splitlines():
        if line.startswith("verdict "):
            kind = line.split()[1]
        elif line.startswith("failing-depth "):
            depth = int(line.split()[1])
    if kind == "inequivalent" and depth is None:
        return None, None
    return kind, depth


def _self_consistency(out: Outcome):
    text = out.stdout
    if out.query.kind == "check":
        kind, _ = _check_verdict(out)
        if kind not in EXIT_FOR_KIND or EXIT_FOR_KIND[kind] != out.code:
            return f"check says {kind} but exits {out.code}"
    elif out.query.kind == "game":
        wins = text.startswith(f"attacker wins at depth {GAME_DEPTH}")
        survives = text.startswith(f"defender survives at depth {GAME_DEPTH}")
        if (out.code, wins, survives) not in ((1, True, False), (2, False, True)):
            return f"game output disagrees with exit {out.code}"
    elif out.query.kind == "tableau":
        unknown = text.startswith("unknown")
        if (out.code, unknown) not in ((0, False), (2, True)):
            return f"tableau output disagrees with exit {out.code}"
    return None


WORKLOADS = {w.name: w for w in (Prop2Laws, ReductionDepth, ToyCorpus)}
