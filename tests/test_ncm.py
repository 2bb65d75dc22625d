"""Counter-machine parsing, lifting, compilation and encoding checks."""

import pytest

import bbpda.equivalence
import bbpda.ncm
from bbpda.equivalence import BoundedChecker
from bbpda.game import GameConfig, survives_round
from bbpda.ncm import (
    BOT,
    Branch,
    CounterConfig,
    CounterMachine,
    DecOrZero,
    Halt,
    Inc,
    MachineError,
    Star,
    bounded_reduction_check,
    compile_reduction,
    counter_word,
    decode_config,
    encode_config,
    format_machine,
    garbage_collapse,
    lemma12_spotcheck,
    lemma13_scenarios,
    lift_machine,
    parse_machine,
    prop2_suite,
)
from bbpda.system import SystemError
from bbpda.terms import EMPTY_TUP, StackWord, stack_word

TWO_COUNTER = """
1: inc c1 goto 2
2: ifz c2 goto 3 else dec goto 1
3: goto 1 or goto 4
4: halt
"""


@pytest.fixture(scope="module")
def compiled():
    machine = parse_machine("1: inc c1 goto 2\n2: halt\n")
    return compile_reduction(lift_machine(machine))


def test_parse_machine_round_trip():
    machine = parse_machine(TWO_COUNTER)
    assert machine.size == 4
    assert isinstance(machine.instructions[0], Inc)
    assert isinstance(machine.instructions[1], DecOrZero)
    assert isinstance(machine.instructions[2], Branch)
    assert isinstance(machine.instructions[3], Halt)
    assert parse_machine(format_machine(machine)).instructions == machine.instructions


def test_parse_machine_rejects_bad_programs():
    with pytest.raises(MachineError):
        parse_machine("1: inc c1 goto 2\n")  # missing halt
    with pytest.raises(MachineError):
        parse_machine("1: inc c3 goto 2\n2: halt\n")  # c3 needs a lifted machine
    with pytest.raises(MachineError):
        parse_machine("1: inc c1 goto 9\n2: halt\n")  # target out of range
    with pytest.raises(MachineError):
        parse_machine("1: star c1 goto 2\n2: halt\n")  # star only after lifting


def test_lift_machine_doubles_and_guards():
    machine = parse_machine(TWO_COUNTER)
    lifted = lift_machine(machine)
    assert lifted.counters == 3
    assert lifted.size == 2 * machine.size
    assert isinstance(lifted.instructions[0], Star)
    # every even slot holds a lifted original instruction, every odd slot
    # past the first a c3 guard
    for i in range(1, machine.size):
        guard = lifted.instructions[2 * i]
        assert isinstance(guard, DecOrZero) and guard.counter == 3


def test_compiled_system_shape(compiled):
    system = compiled.system
    assert system.flavor_violations() == []
    assert "eps_pushing" in system.recompute_flavor()
    assert system.has_silent_head_cycles  # pump self-loops
    assert set(compiled.symbol_inventory) >= {"X", "C1", "C2", "C3", "bot"}


def test_bot_is_never_popped(compiled):
    for rule in compiled.system.rules:
        if rule.head_symbol == "bot":
            assert rule.target_word and rule.target_word[-1] == "bot"


def test_encode_decode_round_trip(compiled):
    for vec in ((0, 0, 0), (2, 1, 0), (1, 2, 3)):
        cfg = CounterConfig(2, vec)
        game = encode_config(compiled, cfg)
        assert decode_config(compiled, game) == cfg


def test_decode_rejects_non_instruction_configs(compiled):
    cfg = encode_config(compiled, CounterConfig(1, (1, 0, 0)))
    broken = type(cfg)(cfg.left, compiled.process("t", ("X", "bot")))
    with pytest.raises(MachineError):
        decode_config(compiled, broken)


def test_counter_word_order():
    assert counter_word((2, 1, 1)) == ("C1", "C1", "C2", "C3")


def test_prop2_small_vectors(compiled):
    report = prop2_suite(compiled, max_counter=1)
    assert report.ok, report.format()
    assert set(report.statements) == set(range(1, 8))


def test_lemma13_increment_scenario(compiled):
    result = lemma13_scenarios(compiled, scenario=1, e=1, j=2, alpha=(1, 0, 0))
    assert result.exact_match
    assert result.equivalence_checked


def test_lemma13_decrement_requires_positive_counter(compiled):
    with pytest.raises(MachineError):
        lemma13_scenarios(compiled, scenario=2, e=1, j=2, alpha=(0, 0, 0))


def test_lemma13_assignment_scenario(compiled):
    result = lemma13_scenarios(
        compiled, scenario=3, e=3, j=2, alpha=(1, 0, 0), star_value=2
    )
    assert result.exact_match


def test_lemma12_reset_states_stay_equivalent(compiled):
    results = lemma12_spotcheck(compiled, e=1, o="+", j=2, steps=4, depth=2)
    assert results
    assert all(holds for _term, holds in results)


def test_prop2_bounded_fallback_when_fragments_do_not_close(compiled, monkeypatch):
    # with no exact judgement, laws 2-4 fall back to the bounded relation and
    # the others stay unknown
    monkeypatch.setattr("bbpda.ncm.exact_equivalent", lambda *args, **kwargs: None)
    report = prop2_suite(compiled, max_counter=1)
    laws = {u.split(")", 1)[0].lstrip("(") for u in report.unknown}
    assert laws == {"1", "5", "6", "7"}
    assert not report.violations
    assert sorted(report.statements) == [1, 2, 3, 4, 5, 6, 7]


def test_reduction_check_builds_one_checker(monkeypatch):
    built = []
    init = BoundedChecker.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("check_bounded re-run")

    monkeypatch.setattr(BoundedChecker, "__init__", counting_init)
    monkeypatch.setattr(bbpda.ncm, "check_bounded", forbidden)
    monkeypatch.setattr(bbpda.equivalence, "check_bounded", forbidden)
    report = bounded_reduction_check(parse_machine("1: halt\n"), schedule=(2, 4, 6))
    assert len(built) == 1
    assert report.attacker_win_depth == 6
    assert report.entries[-1] == (6, "attacker (attack found, cross-check agrees)")


def _reduction(text):
    machine = parse_machine(text)
    return compile_reduction(lift_machine(machine) if machine.counters == 2 else machine)


def _reduction_checker(output, canon=None):
    if canon is None:
        canon = garbage_collapse(output)
    return BoundedChecker(output.system, silent_cap=8, canon=canon, horizon=True)


@pytest.mark.parametrize(
    "text, root_first_win", [("1: halt\n", 6), ("1: goto 1 or goto 1\n2: halt\n", None)]
)
def test_one_reduction_checker_serves_depths_in_any_order(text, root_first_win):
    output = _reduction(text)
    root = output.root_pair
    depths = range(8)

    def related(first_win):
        # the depth-k relations are nested: related below the first win only
        return [first_win is None or d < first_win for d in depths]

    # the words X C1 C2^6 bot and X C1 C1 C2^5 bot differ in their third symbol,
    # which cuts to depths 0 and 1 drop and deeper cuts keep; both are cut up to depth 6
    counters = [output.process("p1", ("X", *counter_word(c), BOT)) for c in ((1, 6, 0), (2, 5, 0))]
    shared = _reduction_checker(output)
    for (left, right), first_win in (((root.left, root.right), root_first_win), (counters, 6)):
        fresh = [_reduction_checker(output).rel(left, right, d) for d in depths]
        assert fresh == related(first_win)
        for d in (*depths, *reversed(depths)):
            assert shared.rel(left, right, d) == fresh[d], d
            assert survives_round(shared, GameConfig(left, right), d) == fresh[d], d
    # content below the bottom marker is never exposed, so rel quotients it away
    garbage = ("C1", "X", BOT, "C2")
    left = output.process(root.left.state, root.left.word + garbage)
    right = output.process(root.right.state, root.right.word + garbage)
    assert [shared.rel(left, right, d) for d in depths] == related(root_first_win)
    assert [shared.rel(left, root.right, d) for d in depths] == related(root_first_win)


def test_canon_that_moves_a_horizon_cut_raises():
    output = _reduction("1: halt\n")
    collapse = garbage_collapse(output)
    filler = output.system.symbols[0]

    def moving(term):
        # sends a word ending in the filler symbol to one ending in the bottom marker
        term = collapse(term)
        if isinstance(term, StackWord) and term.word[-1] == filler:
            return stack_word(output.system.states, term.state, term.word[:-1] + (BOT,), EMPTY_TUP)
        return term

    root = output.root_pair
    with pytest.raises(SystemError, match="horizon cut"):
        _reduction_checker(output, canon=moving).rel(root.left, root.right, 6)
