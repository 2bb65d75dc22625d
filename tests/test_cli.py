"""Command-line interface: exit codes, file round-trips, determinism."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from corpus import random_popping_system, random_pushing_system, sample_pairs
from bbpda import equivalence, game
from bbpda.cli import main
from bbpda.equivalence import BoundedChecker, least_failing
from bbpda.ncm import parse_machine
from bbpda.system import format_system, parse_system, parse_term
from bbpda.terms import format_term, stack_word, standard_cont

POP = """
states p q
symbols X Y
actions a b
flavor eps-popping
rule p X a -> p
rule q X a -> q
rule p Y b -> p X
rule q Y b -> q X
"""

AB = """
states p q
symbols X
actions a b
flavor eps-popping
rule p X a -> p
rule q X a -> q
rule q X b -> q
"""

GROWING = """
states p
symbols X
actions a
rule p X a -> p X X
"""

MACHINE = "1: inc c1 goto 2\n2: halt\n"

# attacker-win play of pushing corpus system 250 at depth 8, as DOT
PUSH250_PLAY_DOT = """digraph play {
  rankdir=TB;
  n0 [label="config s1 X1 X0 | s0 X1 X1", shape=box];
  n1 [label="A left a -> s1 X0 (1, 2)", shape=ellipse];
  n0 -> n1;
  n2 [label="D eps* a -> s1 X1 X1", shape=ellipse];
  n1 -> n2;
  n3 [label="A pick 1", shape=ellipse];
  n2 -> n3;
  n4 [label="config s1 X0 (1, 2) | s1 X1 X1", shape=box];
  n3 -> n4;
  n5 [label="A left b -> 2", shape=ellipse];
  n4 -> n5;
  n6 [label="D eps* b -> s1 X1 X0 X1", shape=ellipse];
  n5 -> n6;
  n7 [label="config 2 | s1 X1 X0 X1", shape=box];
  n6 -> n7;
  n8 [label="A stuck selection-mismatch", shape=ellipse];
  n7 -> n8;
  outcome [label="winner: attacker", shape=diamond];
  n8 -> outcome;
}
"""


@pytest.fixture()
def pop_file(tmp_path):
    path = tmp_path / "pop.sys"
    path.write_text(POP)
    return str(path)


@pytest.fixture()
def ab_file(tmp_path):
    path = tmp_path / "ab.sys"
    path.write_text(AB)
    return str(path)


def pushing_file(tmp_path, seed):
    path = tmp_path / f"push{seed}.sys"
    path.write_text(format_system(random_pushing_system(seed)))
    return str(path)


@pytest.fixture()
def machine_file(tmp_path):
    path = tmp_path / "m.ncm"
    path.write_text(MACHINE)
    return str(path)


def test_check_equivalent_exit_zero(pop_file, capsys):
    assert main(["check", pop_file, "p Y (1, 1)", "q Y (1, 1)"]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_check_inequivalent_exit_one(ab_file, capsys):
    assert main(["check", ab_file, "p X (1, 1)", "q X (1, 1)"]) == 1
    out = capsys.readouterr().out
    assert "inequivalent" in out


def test_check_unknown_exit_two(tmp_path, capsys):
    path = tmp_path / "grow.sys"
    path.write_text(GROWING)
    code = main(["check", str(path), "p X (1)", "p X X (1)", "--budget", "10"])
    assert code == 2


def test_check_bounded_schedule_refutes(tmp_path, capsys):
    path = tmp_path / "grow2.sys"
    path.write_text(
        """
states p q
symbols X
actions a b
rule p X a -> p X X
rule q X a -> q X X
rule q X b -> q
"""
    )
    code = main(
        ["check", str(path), "p X (1)", "q X (1)", "--budget", "10",
         "--depth-schedule", "1,2"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["verdict unknown", "explored 10", "bounded depth 1: apart"]


def test_usage_error_exit_64(pop_file):
    assert main(["check", pop_file, "p Y (1, 1)"]) == 64  # missing right term
    assert main(["no-such-command"]) == 64
    assert main(["check", "/nonexistent/file", "p", "q"]) == 64
    assert main(
        ["check", pop_file, "p Y (1, 1)", "q Y (1, 1)", "--depth-schedule", "4,2"]
    ) == 64


def test_nonpositive_option_names_positive_integer(pop_file, machine_file, capsys):
    for argv in (
        ["game", pop_file, "p Y (1, 1)", "q Y (1, 1)", "--depth", "0"],
        ["prop2", machine_file, "--max-counter", "0"],
        ["check", pop_file, "p Y (1, 1)", "q Y (1, 1)", "--budget", "-3"],
    ):
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be a positive integer" in err, err
        assert "budget must be" not in err


def test_parse_error_exit_64(pop_file, capsys):
    assert main(["check", pop_file, "p Z (1, 1)", "q Y (1, 1)"]) == 64
    assert "error:" in capsys.readouterr().err


def test_tableau_success_and_failure(pop_file, capsys):
    assert main(["tableau", pop_file, "p Y (1, 1)", "q Y (1, 1)"]) == 0
    capsys.readouterr()
    assert main(["tableau", pop_file, "p X (1, 2)", "q X (1, 2)"]) == 2
    assert "unknown" in capsys.readouterr().out


def test_tableau_dot_output(pop_file, tmp_path):
    out = tmp_path / "t.dot"
    code = main(
        ["tableau", pop_file, "p Y (1, 1)", "q Y (1, 1)", "--format", "dot",
         "--output", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("digraph")


def test_game_solver_exit_codes(ab_file):
    assert main(["game", ab_file, "p X (1, 1)", "q X (1, 1)", "--depth", "4"]) == 1
    # survival is evidence only, never a proof: exit 2
    assert main(["game", ab_file, "q X (1, 1)", "q X (1, 1)", "--depth", "4"]) == 2


def test_game_script_play(ab_file, tmp_path, capsys):
    script = tmp_path / "play.script"
    script.write_text("A left a -> 2\nD eps* a -> 2\n")
    code = main(
        ["game", ab_file, "q X (1, 2)", "q X (1, 2)", "--script", str(script),
         "--max-rounds", "1"]
    )
    # a play the attacker does not win is evidence only: exit 2
    assert code == 2
    assert "winner undetermined" in capsys.readouterr().out


def test_lts_output_round_trip(pop_file, capsys):
    assert main(["lts", pop_file, "p Y (1, 1)"]) == 0
    out = capsys.readouterr().out
    assert "p Y (1, 1)" in out


def test_lts_exceeded_exit_two(tmp_path, capsys):
    path = tmp_path / "grow.sys"
    path.write_text(GROWING)
    assert main(["lts", str(path), "p X (1)", "--budget", "5"]) == 2
    assert "exceeded" in capsys.readouterr().out


def test_lts_exceeded_counts_distinct_frontier(tmp_path, capsys):
    # both rules lead to the same term, so the queue holds it twice
    path = tmp_path / "twice.sys"
    path.write_text("states p\nsymbols X\nactions a b\nrule p X a -> p X X\nrule p X b -> p X X\n")
    assert main(["lts", str(path), "p X", "--budget", "3"]) == 2
    assert capsys.readouterr().out == "exceeded (explored 3, frontier 1)\n"


def test_compile_round_trip(machine_file, tmp_path):
    out = tmp_path / "compiled.sys"
    inv = tmp_path / "compiled.inv"
    code = main(
        ["compile-ncm", machine_file, "--output", str(out), "--inventory", str(inv)]
    )
    assert code == 0
    # the written system file re-parses, and re-emitting it is bit-identical
    text = out.read_text()
    system = parse_system(text)
    from bbpda.system import format_system

    assert format_system(system) == text
    inventory = inv.read_text()
    assert inventory.startswith("root-pair ")
    assert "symbol bot" in inventory


def test_machine_file_round_trip(machine_file):
    text = open(machine_file).read()
    machine = parse_machine(text)
    assert parse_machine(machine.format()).instructions == machine.instructions


def test_outputs_deterministic(pop_file, machine_file, capsys):
    runs = []
    for _ in range(2):
        code = main(["check", pop_file, "p Y (1, 1)", "q Y (1, 1)"])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        code = main(["compile-ncm", machine_file])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]


def test_prop2_small(machine_file, capsys):
    code = main(["prop2", machine_file, "--max-counter", "1"])
    assert code == 0
    assert "statement" in capsys.readouterr().out.lower()


def test_reduction_check_halting_machine(tmp_path, capsys):
    path = tmp_path / "halting.ncm"
    path.write_text("1: ifz c1 goto 2 else dec goto 2\n2: halt\n")
    code = main(
        ["reduction-check", str(path), "--depth-schedule", "4,8,16"]
    )
    assert code == 1
    assert "attacker wins at depth" in capsys.readouterr().out


def test_model_error_exit_64(tmp_path, capsys):
    path = tmp_path / "dup.sys"
    path.write_text("states p p\nsymbols X\nactions a\nrule p X a -> p\n")
    assert main(["check", str(path), "p X (1)", "p X (1)"]) == 64
    assert "error: duplicate state names" in capsys.readouterr().err


def test_game_without_required_silent_cap_exit_64(tmp_path, capsys):
    path = tmp_path / "cyclic.sys"
    path.write_text(
        "states p\nsymbols X\nactions a\nrule p X eps -> p X\nrule p X a -> p\n"
    )
    assert main(["game", str(path), "p X (1)", "p X (1)"]) == 64
    assert "silent cap" in capsys.readouterr().err


def test_game_recursion_limit_exit_two(tmp_path, capsys):
    path = tmp_path / "loop.sys"
    path.write_text(
        "states p q\nsymbols X\nactions a\nrule p X a -> p X\nrule q X a -> q X\n"
    )
    code = main(["game", str(path), "p X (1, 1)", "q X (1, 1)", "--depth", "300"])
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("unknown") and "recursion limit" in out


def test_tableau_pushing_subtableau_unknown(tmp_path, capsys):
    path = pushing_file(tmp_path, 76)
    code = main(["tableau", path, "s0 X0 X1 (1, 1)", "s1 X1 (1, 2)"])
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("unknown") and "eps-pushing" in out


def test_tableau_match_keeps_selection_clause(tmp_path, capsys):
    # Match must not pair the selection 2 with s1 X0 (1, 2); check refutes
    # this pair at depth 1
    path = tmp_path / "pop177.sys"
    path.write_text(format_system(random_popping_system(177)))
    code = main(["tableau", str(path), "s1 X2 (s1 X2 (1, 2), 2)", "s1 X2 X0"])
    assert code == 2
    assert capsys.readouterr().out.startswith("unknown")


def test_game_dot_renders_solver_play(tmp_path, capsys):
    path = pushing_file(tmp_path, 250)
    code = main(
        ["game", path, "s1 X1 X0", "s0 X1 X1", "--depth", "8", "--format", "dot"]
    )
    assert code == 1
    assert capsys.readouterr().out == PUSH250_PLAY_DOT


# the answer to p's a-move needs one silent step before q's a-step
SILENT_ANSWER = """
states p q
symbols X Y
actions a
rule p X a -> p
rule q X eps -> q Y
rule q Y a -> q
"""


def test_game_silent_cap_counts_answering_step(tmp_path, capsys):
    path = tmp_path / "silent.sys"
    path.write_text(SILENT_ANSWER)
    argv = ["game", str(path), "p X (1, 1)", "q X (1, 1)", "--depth", "1", "--silent-cap"]
    assert main(argv + ["1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "D stuck"
    assert main(argv + ["2"]) == 2
    assert capsys.readouterr().out.startswith("defender survives")


def test_check_schedule_applies_silent_cap(tmp_path, capsys):
    # the joint fragment closes, but the cap still bounds the answer chains
    path = tmp_path / "silent.sys"
    path.write_text(SILENT_ANSWER)
    argv = ["check", str(path), "p X (1, 1)", "q X (1, 1)", "--budget", "1",
            "--depth-schedule", "1,2", "--silent-cap"]
    assert main(argv + ["1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "bounded depth 1: apart"
    assert main(argv + ["2"]) == 2
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "bounded depth 1: related",
        "bounded depth 2: related",
        "bounded evidence only; equivalence remains unknown",
    ]


def test_game_illegal_script_exit_64(ab_file, tmp_path, capsys):
    script = tmp_path / "illegal.script"
    script.write_text("A left a -> 1\nD eps* a -> 1\n")  # q's a-move pops to 2
    code = main(["game", ab_file, "p X (1, 2)", "q X (1, 2)", "--script", str(script)])
    assert code == 64
    lines = capsys.readouterr().out.splitlines()
    # the trace is still printed, and it counts the one round played
    assert lines[:3] == ["winner script-error", "rounds 1", "config p X (1, 2) | q X (1, 2)"]
    assert lines[-1] == "script-error no legal chain ends at 1"


def test_game_script_defender_stuck(ab_file, tmp_path, capsys):
    script = tmp_path / "stuck.script"
    script.write_text("A right b -> 1\n")  # p X has no b-move to answer with
    code = main(["game", ab_file, "p X (1, 1)", "q X (1, 1)", "--script", str(script)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["winner attacker", "rounds 1"]
    assert lines[-1] == "D stuck"


def _corpus_pairs(tmp_path, seeds):
    """(system, system file, left text, right text) for two sampled pairs of
    each popping and pushing corpus system."""
    out = []
    for family, generate in (("pop", random_popping_system), ("push", random_pushing_system)):
        for seed in seeds:
            system = generate(seed)
            path = tmp_path / f"{family}{seed}.sys"
            path.write_text(format_system(system))
            for left, right in sample_pairs(seed, system, 2):
                out.append((system, str(path), format_term(left), format_term(right)))
    return out


def _tall_pushing_pairs(tmp_path, seeds):
    """Like ``_corpus_pairs``, for two pairs of each pushing corpus system
    whose stacks hold 6 to 8 symbols; the second pair shares one word."""
    out = []
    for seed in seeds:
        system = random_pushing_system(seed)
        path = pushing_file(tmp_path, seed)
        rng = random.Random(f"tall:{seed}")
        cont = standard_cont(system.q_count)

        def word():
            return tuple(rng.choice(system.symbols) for _ in range(rng.randint(6, 8)))

        def term(w):
            return format_term(stack_word(system.states, rng.choice(system.states), w, cont))

        shared = word()
        for left, right in ((term(word()), term(word())), (term(shared), term(shared))):
            out.append((system, path, left, right))
    return out


def _script_lines(check_out):
    return [
        line for line in check_out.splitlines()
        if not line.startswith(("verdict ", "failing-depth ", "witness-nodes ", "explored "))
    ]


def test_check_scripts_replay_to_attacker_wins(tmp_path, capsys):
    replayed = 0
    for _system, path, left, right in _corpus_pairs(tmp_path, range(20)):
        if main(["check", path, left, right]) != 1:
            capsys.readouterr()
            continue
        script = tmp_path / "check.script"
        script.write_text("\n".join(_script_lines(capsys.readouterr().out)) + "\n")
        code = main(["game", path, left, right, "--script", str(script)])
        out = capsys.readouterr().out
        assert (code, out.splitlines()[0]) == (1, "winner attacker"), (path, left, right, out)
        replayed += 1
    assert replayed > 20


def test_check_failing_depth_matches_bounded_checker(tmp_path, capsys):
    compared = 0
    for system, path, left, right in _corpus_pairs(tmp_path, range(20)):
        if main(["check", path, left, right]) != 1:
            capsys.readouterr()
            continue
        lines = capsys.readouterr().out.splitlines()
        depth = int(lines[1].removeprefix("failing-depth "))
        checker = BoundedChecker(system)
        pair = (parse_term(left, system), parse_term(right, system))
        assert least_failing(checker.rel, *pair, range(depth + 1)) == depth, (path, left, right)
        compared += 1
    assert compared > 20


def test_cli_sweep_never_raises(tmp_path, capsys):
    script = tmp_path / "check.script"
    pairs = _corpus_pairs(tmp_path, range(6)) + _tall_pushing_pairs(tmp_path, range(6))
    for _system, path, left, right in pairs:
        codes = [main(["check", path, left, right])]
        script.write_text("\n".join(_script_lines(capsys.readouterr().out)) + "\n")
        for argv in (
            ["check", path, left, right, "--budget", "5", "--depth-schedule", "1,2,4"],
            ["game", path, left, right],
            ["game", path, left, right, "--script", str(script)],
            ["tableau", path, left, right],
            ["lts", path, left, right],
        ):
            codes.append(main(argv))
        capsys.readouterr()
        assert all(isinstance(c, int) and c in (0, 1, 2, 64) for c in codes), (path, codes)


def test_main_is_reentrant(tmp_path, capsys):
    path = tmp_path / "silent.sys"
    path.write_text(SILENT_ANSWER)
    # the fragment budget leaves the exact verdict unknown, so a depth
    # schedule or silent cap left over from an earlier call would show
    plain = ["check", str(path), "p X (1, 1)", "q X (1, 1)", "--budget", "1"]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    fresh = subprocess.run(
        [sys.executable, "-m", "bbpda.cli", *plain],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (fresh.returncode, fresh.stdout) == (2, "verdict unknown\nexplored 1\n")

    def call(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    expected = (fresh.returncode, fresh.stdout)
    assert call(plain + ["--depth-schedule", "1,2", "--silent-cap", "1"])[0] == 1
    assert call(plain) == expected
    assert call(["check", str(path), "p X (1, 1)"])[0] == 64  # missing right term
    assert call(plain) == expected
    assert call(["check", "--help"])[0] == 0
    assert call(plain) == expected


def _closure_budget_system(tmp_path, extra_rules=()):
    """p0's silent closure has 16383 nodes, and only its 8192 deepest can
    answer b; s answers b at once.  No rule plays c unless one is added."""
    lines = ["states s z " + " ".join(f"p{i}" for i in range(14)), "symbols X Y Z",
             "actions b c", "flavor eps-pushing"]
    for i in range(13):
        lines += [f"rule p{i} X eps -> p{i + 1} X Y", f"rule p{i} X eps -> p{i + 1} X Z"]
    lines += ["rule p13 X b -> z X", "rule s X b -> z X", *extra_rules]
    path = tmp_path / "closure.sys"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_closure_budget_exhausted_is_unknown(tmp_path, capsys):
    path = _closure_budget_system(tmp_path)
    assert main(["check", path, "s X Y", "p0 X Y", "--budget", "40000"]) == 0
    assert capsys.readouterr().out.startswith("verdict equivalent")
    # the script's answer search runs out of budget before it reaches an
    # answer: unknown, not a stuck defender
    script = tmp_path / "b.script"
    script.write_text("A left b -> z X Y\n")
    assert main(["game", path, "s X Y", "p0 X Y", "--script", str(script)]) == 2
    assert capsys.readouterr().out == "unknown (closure budget 4096 exhausted)\n"


def test_check_script_cut_by_closure_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(equivalence, "CLOSURE_BUDGET", 1)
    monkeypatch.setattr(game, "CLOSURE_BUDGET", 1)

    def check(rules):
        path = tmp_path / "cut.sys"
        path.write_text("states p q\nsymbols X Y\nactions a b\n" + rules)
        assert main(["check", str(path), "p X (1, 1)", "q X (1, 1)"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("explored ")
        return lines[:-1]

    # p's b-move refutes exactly; q needs a silent step before its a-move,
    # which no closure of one node reaches, so the depth search is cut
    assert check(
        "rule p X a -> p\nrule p X b -> p\nrule q X eps -> q Y\nrule q Y a -> q\n"
    ) == ["verdict inequivalent", "unknown (closure budget 1 exhausted)"]
    # q's b-move refutes at depth 1 and p, with no silent step, answers
    # nothing within budget; q answers p's a-move at once, but the play
    # enumerates q's whole silent closure for that earlier attack
    assert check(
        "rule p X a -> p\nrule q X a -> q\nrule q X b -> q\nrule q X eps -> q Y\n"
    ) == ["verdict inequivalent", "failing-depth 1", "unknown (closure budget 1 exhausted)"]


def test_check_refutation_cut_by_closure_budget(tmp_path, capsys):
    # p0 answers s's c-move nowhere in its 16383-node silent closure: the
    # exact verdict stands, and the depth search says what cut it
    path = _closure_budget_system(tmp_path, ["rule s X c -> z X"])
    assert main(["check", path, "s X Y", "p0 X Y", "--budget", "40000"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["verdict inequivalent", "unknown (closure budget 4096 exhausted)"]
    assert lines[2].startswith("explored ") and len(lines) == 3


def test_check_deep_chain(tmp_path, capsys):
    # the pair is apart only once the attacker has popped every X
    path = tmp_path / "chain.sys"
    path.write_text(
        "states p q\nsymbols X Y\nactions a b c\n"
        "rule p X a -> p\nrule q X a -> q\nrule p Y b -> p Y\nrule q Y c -> q Y\n"
    )

    def pair(k):
        return [f"p {'X ' * k}Y", f"q {'X ' * k}Y"]

    assert main(["check", str(path), *pair(300), "--budget", "1000"]) == 1
    limit = sys.getrecursionlimit()
    assert capsys.readouterr().out.splitlines() == [
        "verdict inequivalent",
        f"unknown (search exceeded the Python recursion limit {limit})",
        "explored 602",
    ]
    assert main(["check", str(path), *pair(120)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "failing-depth 121"
    script = tmp_path / "chain.script"
    script.write_text("\n".join(_script_lines(out)) + "\n")
    argv = ["game", str(path), *pair(120), "--script", str(script), "--max-rounds", "200"]
    assert main(argv) == 1
    assert capsys.readouterr().out.startswith("winner attacker\n")


def test_check_builds_no_stratification(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("FragmentStratification built")

    monkeypatch.setattr(equivalence.FragmentStratification, "__init__", forbidden)
    refuted = 0
    for _system, path, left, right in _corpus_pairs(tmp_path, range(10)):
        refuted += main(["check", path, left, right]) == 1
        main(["check", path, left, right, "--budget", "5", "--depth-schedule", "1,2,4"])
    capsys.readouterr()
    assert refuted > 5
