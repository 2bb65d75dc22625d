"""System parsing, one-step semantics, derived constants, fragments."""

import pytest

from bbpda.system import (
    EPSILON,
    Exceeded,
    FiniteLts,
    ParseError,
    PdaSystem,
    SystemError,
    TransitionRule,
    format_system,
    parse_system,
    parse_term,
)
from bbpda.terms import (
    EMPTY_TUP,
    NIL,
    Selection,
    Seq,
    Tup,
    format_term,
    stack_word,
    standard_cont,
)

TOY = """
states p q
symbols X Y
actions a b
flavor eps-popping
rule p X a -> p
rule p X eps -> q
rule q X b -> q X
rule p Y a -> p X X
rule q Y b -> q
"""


@pytest.fixture()
def toy() -> PdaSystem:
    return parse_system(TOY)


def test_parse_format_round_trip(toy):
    text = format_system(toy)
    again = parse_system(text)
    assert format_system(again) == text
    assert again.states == toy.states
    assert again.rules == toy.rules


def test_parse_rejects_unknown_names():
    with pytest.raises(ParseError):
        parse_system("states p\nsymbols X\nactions a\nrule p X a ->\n")
    with pytest.raises(SystemError):
        parse_system("states p\nsymbols X\nactions a\nrule p Z a -> p\n")
    with pytest.raises(SystemError):
        parse_system("states p\nsymbols X\nactions eps\n")


def test_step_on_sequential_head(toy):
    t = parse_term("p X (1, 1)", toy)
    succ = dict()
    for label, nxt in toy.step(t):
        succ.setdefault(label, set()).add(nxt)
    assert succ["a"] == {Selection(1)}
    assert succ[EPSILON] == {Selection(1)}  # selects entry 2 == 1


def test_step_pushes(toy):
    t = parse_term("p Y (1, 2)", toy)
    (label, nxt), = [e for e in toy.step(t) if e[0] == "a"]
    assert nxt == parse_term("p X X (1, 2)", toy)


def test_nil_and_selection_have_no_steps(toy):
    assert toy.step(NIL) == ()
    assert toy.step(Selection(1)) == ()


def test_compact_step_agrees_with_expansion(toy):
    t = stack_word(toy.states, "p", ("Y", "X", "X"), standard_cont(2))
    from bbpda.terms import expand_stack_word

    compact = {(lab, format_term(nxt)) for lab, nxt in toy.step(t)}
    explicit = {
        (lab, format_term(nxt)) for lab, nxt in toy.step(expand_stack_word(t))
    }
    # expansion commutes with stepping up to the compact normal form
    assert {lab for lab, _ in compact} == {lab for lab, _ in explicit}


def test_pop_distances_on_chain():
    system = parse_system(
        """
states p
symbols X
actions a
rule p X a -> p
"""
    )
    dist = system.pop_distances()
    assert dist[("p", "X", "p")] == 1
    assert system.m_bound == 1


def test_pop_distances_unreachable_head_is_absent():
    system = parse_system(
        """
states p
symbols X
actions a
rule p X a -> p X
"""
    )
    assert system.pop_distances() == {}
    assert system.m_bound == float("inf")


def test_flavor_recompute_and_violations(toy):
    assert toy.flavor_violations() == []
    pushing = parse_system(
        """
states p
symbols X
actions a
flavor eps-popping
rule p X eps -> p X X
"""
    )
    assert pushing.flavor_violations() == ["eps_popping"]


def test_silent_head_cycles_detected():
    cyclic = parse_system(
        """
states p
symbols X
actions a
rule p X eps -> p X
"""
    )
    assert cyclic.has_silent_head_cycles
    acyclic = parse_system(TOY)
    assert not acyclic.has_silent_head_cycles


def test_reachable_lts_closes(toy):
    t = parse_term("q X (1, 1)", toy)
    lts = toy.reachable_lts(t)
    assert isinstance(lts, FiniteLts)
    assert t in lts
    # q X loops under b, so the fragment is tiny
    assert ("b", t) in lts.successors(t)


def test_reachable_lts_budget_exceeded():
    growing = parse_system(
        """
states p
symbols X
actions a
rule p X a -> p X X
"""
    )
    t = parse_term("p X (1)", growing)
    result = growing.reachable_lts(t, budget=10)
    assert isinstance(result, Exceeded)
    assert result.explored == 10


def test_parse_term_round_trip(toy):
    for text in ("p X (1, 1)", "p Y (0, q X (1, 2))", "1", "0", "p X X (1, 2)"):
        term = parse_term(text, toy)
        assert parse_term(format_term(term), toy) == term


def test_parse_term_rejects_garbage(toy):
    for text in ("p", "p Z (1, 1)", "r X (1, 1)", "p X (1", ""):
        with pytest.raises((ParseError, SystemError)):
            parse_term(text, toy)


def test_rec_def_parsing():
    system = parse_system(
        """
states p
symbols X
actions a
rule p X a -> p
rec V[2] = (p X (1, 2), 2) V
"""
    )
    assert "V" in system.rec_defs
    assert system.rec_defs["V"].arity == 2
    term = parse_term("V(1)", system)
    text = format_system(system)
    assert parse_system(text).rec_defs["V"].body == system.rec_defs["V"].body
    assert term is not None


def test_step_determinism(toy):
    t = parse_term("p Y (1, 2)", toy)
    assert toy.step(t) == toy.step(t)
    assert list(toy.silent_steps(parse_term("p X (1, 1)", toy))) == list(
        toy.silent_steps(parse_term("p X (1, 1)", toy))
    )
