"""Properties of the text formats: every system, term, counter machine and
game script prints to text that parses back to it, and malformed text
raises only the parsers' own errors."""

import pytest
from hypothesis import example, given, settings, strategies as st

from bbpda.game import format_script, parse_script
from bbpda.ncm import (
    Branch,
    CounterMachine,
    DecOrZero,
    Halt,
    Inc,
    MachineError,
    Star,
    format_machine,
    parse_machine,
)
from bbpda.system import (
    DELIMITERS,
    EPSILON,
    ParseError,
    PdaSystem,
    SystemError,
    TransitionRule,
    format_system,
    parse_system,
    parse_term,
)
from bbpda.terms import NIL, RecConst, RecConstDef, Selection, Seq, Tup, format_term, select
from bbpda.terms import stack_word

# no example database, so nothing is written into the tree
PROPERTY = settings(database=None, deadline=None, max_examples=200)

# any printable name the formats can carry as one token
names = st.text(
    st.characters(exclude_categories=("Z", "C"), exclude_characters=DELIMITERS),
    min_size=1,
    max_size=3,
).filter(lambda name: name != "->")


@st.composite
def systems(draw):
    states = draw(st.lists(names.filter(lambda s: not s.isdigit()), min_size=1, max_size=3,
                           unique=True))
    symbols = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    actions = draw(st.lists(names.filter(lambda a: a != EPSILON), max_size=3, unique=True))
    labels = st.sampled_from(actions + [EPSILON])
    rules = draw(st.lists(st.builds(
        TransitionRule,
        st.sampled_from(states),
        st.sampled_from(symbols),
        labels,
        st.sampled_from(states),
        st.lists(st.sampled_from(symbols), max_size=2).map(tuple),
    ), max_size=6))
    flavor = draw(st.sets(st.sampled_from(("eps_popping", "eps_pushing", "normed_claimed"))))
    taken = set(states) | set(symbols)
    rec_names = draw(st.lists(
        names.filter(lambda n: not n.isdigit() and n not in taken), max_size=2, unique=True
    ))
    defs = []
    for name in rec_names:
        arity = draw(st.integers(1, 3))
        selections = st.integers(1, arity).map(Selection)
        entry = st.one_of(
            st.just(NIL),
            st.builds(Seq, st.sampled_from(states), st.sampled_from(symbols),
                      st.lists(selections | st.just(NIL), max_size=3).map(tuple).map(Tup)),
        )
        body = [draw(st.just(Selection(i)) | entry) for i in range(1, arity + 1)]
        defs.append(RecConstDef(name, tuple(body)))
    return PdaSystem(states, symbols, actions, rules, rec_defs=defs, flavor=flavor)


def _fields(system):
    recs = [(d.name, d.body) for d in system.rec_defs.values()]
    return (system.states, system.symbols, system.actions, system.rules, system.flavor, recs)


def terms(system):
    """Processes over ``system`` in the normal form the constructors give."""
    recs = [RecConst(d) for d in system.rec_defs.values()]
    leaves = st.just(NIL) | st.integers(1, 4).map(Selection)
    for rec in recs:
        leaves |= st.integers(1, rec.arity + 1).map(lambda i, rec=rec: select(i, rec))

    def head(state, word, cont):
        if len(word) == 1:
            return Seq(state, word[0], cont)
        return stack_word(system.states, state, tuple(word), cont)

    def extend(inner):
        conts = st.lists(inner, max_size=3).map(tuple).map(Tup)
        if recs:
            conts |= st.sampled_from(recs)
        return st.builds(
            head,
            st.sampled_from(system.states),
            st.lists(st.sampled_from(system.symbols), min_size=1, max_size=3),
            conts,
        )

    return st.recursive(leaves, extend, max_leaves=6)


@PROPERTY
@given(systems())
def test_system_round_trip(system):
    assert _fields(parse_system(format_system(system))) == _fields(system)


@PROPERTY
@given(st.data())
def test_term_round_trip(data):
    system = data.draw(systems())
    term = data.draw(terms(system))
    assert parse_term(format_term(term), system) == term


@st.composite
def machines(draw):
    counters = draw(st.sampled_from((2, 3)))
    size = draw(st.integers(1, 6))
    target = st.integers(1, size)
    counter = st.integers(1, counters)
    kinds = [
        st.builds(Inc, counter, target),
        st.builds(DecOrZero, counter, target, target),
        st.builds(Branch, target, target),
    ]
    if counters == 3:
        kinds.append(st.builds(Star, counter, target))
    body = draw(st.lists(st.one_of(kinds), min_size=size - 1, max_size=size - 1))
    return CounterMachine(tuple(body) + (Halt(),), counters=counters)


@PROPERTY
@given(machines())
def test_machine_round_trip(machine):
    assert parse_machine(format_machine(machine), counters=machine.counters) == machine


@PROPERTY
@given(st.data())
def test_script_round_trip(data):
    system = data.draw(systems())
    term = terms(system)
    label = st.sampled_from(system.actions + (EPSILON,))
    move = st.one_of(
        st.tuples(st.just("A"), st.just("attack"), st.sampled_from(("left", "right")), label,
                  term),
        st.tuples(st.just("A"), st.just("pick"), st.integers(1, 20)),
        st.just(("D", "nothing")),
        st.tuples(st.just("D"), st.just("respond"), label, term),
    )
    moves = data.draw(st.lists(move, max_size=5))
    assert parse_script(format_script(moves), system) == moves


@PROPERTY
@given(
    st.text(min_size=1, max_size=3).filter(
        lambda name: name == "->" or any(c.isspace() or c in DELIMITERS for c in name)
    ),
    st.sampled_from(("state", "symbol", "action")),
)
def test_names_the_formats_cannot_carry_are_rejected(name, kind):
    names = {"state": ["p"], "symbol": ["X"], "action": []}
    names[kind] = [name]
    with pytest.raises(SystemError):
        PdaSystem(names["state"], names["symbol"], names["action"], ())


def test_names_that_read_as_something_else_are_rejected():
    with pytest.raises(SystemError):
        PdaSystem(["1"], ["X"], [], ())  # a selection index
    body = (Selection(1),)
    for name in ("p", "X", "2"):  # a state, a symbol, a selection index
        with pytest.raises(SystemError):
            PdaSystem(["p"], ["X"], [], (), rec_defs=[RecConstDef(name, body)])
    with pytest.raises(SystemError):
        PdaSystem(["p"], ["X"], [], (), flavor={"eps_slipping"})


# -- malformed text -------------------------------------------------------

SYSTEM = parse_system(
    "states p q\nsymbols X Y\nactions a b\nrule p X a -> q Y X\nrec V[2] = (p X (1, 2), 2) V\n"
)

# tokens of every format, so that generated text gets past the first check
TOKENS = (
    "states", "symbols", "actions", "flavor", "eps-popping", "rule", "rec", "->", "eps",
    "p", "q", "X", "Y", "a", "b", "V", "V[2]", "V(1)", "V(0)", "(", ")", ",", "[", "]", "=",
    "0", "1", "2", "00", "²", "#", "\n",
    "A", "D", "left", "right", "pick", "nothing", "eps*", "stuck",
    "1:", "2:", ":", "halt", "inc", "star", "ifz", "else", "dec", "goto", "or", "c1", "c3",
    "c0", "c²", "-1",
)
texts = st.text() | st.lists(st.sampled_from(TOKENS), max_size=24).map(" ".join)
# a model error (SystemError) is a well-formed text describing an ill-formed system
SYSTEM_ERRORS = (ParseError, SystemError)


def _raises_only(errors, parse, text):
    try:
        parse(text)
    except errors:
        pass


@PROPERTY
@given(texts)
@example("states p\nsymbols X\nactions a\nrec V[²] = (1) V\n")
def test_malformed_system_text(text):
    _raises_only(SYSTEM_ERRORS, parse_system, text)


@PROPERTY
@given(texts)
@example("²")
@example("00")
def test_malformed_term_text(text):
    _raises_only(SYSTEM_ERRORS, lambda t: parse_term(t, SYSTEM), text)


@PROPERTY
@given(texts)
def test_malformed_script_text(text):
    _raises_only(SYSTEM_ERRORS, lambda t: parse_script(t, SYSTEM), text)


@PROPERTY
@given(texts, st.sampled_from((2, 3)))
@example("1: inc c² goto 2\n2: halt\n", 2)
def test_malformed_machine_text(text, counters):
    _raises_only(MachineError, lambda t: parse_machine(t, counters=counters), text)
