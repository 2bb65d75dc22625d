"""Tableau construction, rule side conditions, search and verification."""

from pathlib import Path

import pytest

from corpus import random_popping_system, random_pushing_system, sample_pairs
from bbpda.equivalence import ExactOracle, check_finite_exact
from bbpda.system import parse_system, parse_term
from bbpda import tableau
from bbpda.tableau import (
    Goal,
    _unfold_recs,
    decompose_right,
    format_tableau,
    is_normal,
    match_is_valid,
    compute_match,
    normal_unfolding,
    refine_fixpoints,
    search_tableau,
    strip_suffix,
    tableau_dot,
    verify_tableau,
)
from bbpda.terms import (
    EMPTY_TUP,
    RecConst,
    format_term,
    select,
    Selection,
    Seq,
    Tup,
    compose,
    standard_cont,
)

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


@pytest.fixture()
def pop():
    return parse_system(POP)


def test_strip_suffix_inverts_compose(pop):
    const = Tup((Selection(1), Seq("p", "X", EMPTY_TUP)))
    t = Seq("p", "Y", Tup((Selection(2), Selection(1))))
    composed = compose(t, const)
    stripped = strip_suffix(composed, const)
    assert stripped is not None
    assert compose(stripped, const) == composed


def test_strip_suffix_refuses_bare_constant_occurrence(pop):
    # a continuation that is literally the suffix constant has no tuple prefix
    const = Tup((Selection(1), Seq("p", "X", EMPTY_TUP)))
    t = Seq("p", "Y", standard_cont(2))
    assert strip_suffix(compose(t, const), const) is None


def test_compute_match_on_equivalent_pair(pop):
    oracle = ExactOracle(pop)
    goal = Goal(parse_term("p X (1, 1)", pop), parse_term("q X (1, 1)", pop))
    pairs = compute_match(goal, pop, oracle)
    assert pairs is not None
    assert match_is_valid(goal, pairs, pop)


def test_match_invalid_on_inequivalent_pair(pop):
    goal = Goal(parse_term("p X (1, 2)", pop), parse_term("q X (2, 1)", pop))
    # a bogus empty match set cannot justify a goal with transitions
    assert not match_is_valid(goal, frozenset(), pop)


def test_match_keeps_selection_clause():
    # 2 and s1 X0 (1, 2) differ on the selection clause, so no match set
    # answers the goal, not even the one whose child is 2 = 2
    system = random_popping_system(177)
    two = parse_term("2", system)
    goal = Goal(two, parse_term("s1 X0 (1, 2)", system))
    assert not match_is_valid(goal, [Goal(two, two)], system)
    assert compute_match(goal, system, ExactOracle(system)) is None


def test_is_normal_flags_redundant_entries(pop):
    oracle = ExactOracle(pop)
    # the standard continuation is normal under itself
    t = parse_term("p X (1, 2)", pop)
    ok, _evidence = is_normal(t, standard_cont(2), pop, oracle)
    assert ok in (True, False)


def test_search_small_goal_yields_verified_tableau(pop):
    oracle = ExactOracle(pop)
    goal = Goal(parse_term("p Y (1, 1)", pop), parse_term("q Y (1, 1)", pop))
    root, stats = search_tableau(goal, "eps-popping", pop, oracle)
    assert root is not None
    ok, report = verify_tableau(root, pop, oracle)
    assert ok, report


def test_search_returns_none_on_inequivalent_goal(pop):
    oracle = ExactOracle(pop)
    goal = Goal(parse_term("p X (1, 2)", pop), parse_term("q X (1, 2)", pop))
    root, _stats = search_tableau(goal, "eps-popping", pop, oracle)
    assert root is None


def test_search_success_rate_on_corpus():
    found = 0
    total = 0
    for seed in range(12):
        system = random_popping_system(seed)
        oracle = ExactOracle(system)
        for left, right in sample_pairs(seed, system, 5):
            if check_finite_exact(left, right, system).kind != "equivalent":
                continue
            total += 1
            root, _stats = search_tableau(
                Goal(left, right), "eps-popping", system, oracle
            )
            if root is not None:
                ok, report = verify_tableau(root, system, oracle)
                assert ok, report
                found += 1
    assert total > 0
    assert found / total >= 0.9, (found, total)


def test_verify_rejects_corrupted_tableau(pop):
    oracle = ExactOracle(pop)
    goal = Goal(parse_term("p Y (1, 1)", pop), parse_term("q Y (1, 1)", pop))
    root, _stats = search_tableau(goal, "eps-popping", pop, oracle)
    assert root is not None
    # corrupt: claim success on an inequivalent goal with no evidence
    bad_goal = Goal(parse_term("p X (1, 2)", pop), parse_term("q X (2, 1)", pop))
    leaves = [n for n in root.walk() if n.is_leaf()]
    leaves[0].goal = bad_goal
    ok, _report = verify_tableau(root, pop, oracle)
    assert not ok


def test_tableau_serializations(pop):
    oracle = ExactOracle(pop)
    goal = Goal(parse_term("p Y (1, 1)", pop), parse_term("q Y (1, 1)", pop))
    root, _stats = search_tableau(goal, "eps-popping", pop, oracle)
    text = format_tableau(root)
    assert goal.format() in text
    dot = tableau_dot(root)
    assert dot.startswith("digraph")


def test_decompose_right_produces_bounded_prefix(pop):
    oracle = ExactOracle(pop)
    tall = parse_term(
        "p Y (p Y (p Y (p Y (1, 1), 1), 1), 1)", pop
    )
    goal = Goal(tall, tall)
    dec = decompose_right(goal, pop, oracle)
    if dec is not None:
        assert compose(select(1, dec.prefix), dec.residual) is not None
        for sub in dec.aux:
            assert sub.left is not None


def test_refine_fixpoints_identity_candidate(pop):
    oracle = ExactOracle(pop)
    P = parse_term("p X (1, 2)", pop)
    candidates, complete = refine_fixpoints(P, P, 2, oracle)
    assert complete
    # the trivial goal accepts at least one constant, and each candidate
    # satisfies the defining fixpoint equation
    assert candidates
    from bbpda.terms import RecConst

    for cand in candidates:
        V = RecConst(cand.defn)
        lhs = compose(P, V)
        rhs = compose(P, V)
        assert oracle.judge(lhs, rhs) is True


def test_refine_fixpoints_step_bound(pop):
    oracle = ExactOracle(pop)
    P = parse_term("p X (1, 2)", pop)
    Q = parse_term("q X (1, 2)", pop)
    candidates, _complete = refine_fixpoints(P, Q, 2, oracle)
    for cand in candidates:
        # history holds the refinement steps; n(n-1)/2 = 1 for n = 2
        assert len(cand.history) - 1 <= 1


def test_pushing_search_smoke():
    system = random_pushing_system(3)
    oracle = ExactOracle(system)
    for left, right in sample_pairs(3, system, 6):
        if check_finite_exact(left, right, system).kind != "equivalent":
            continue
        root, _stats = search_tableau(
            Goal(left, right), "eps-pushing", system, oracle, node_cap=800
        )
        if root is not None:
            ok, report = verify_tableau(root, system, oracle)
            assert ok, report


PINNED = Path(__file__).parent / "pinned"


@pytest.mark.parametrize(
    "seed, left, right",
    [
        (38, "s0 X0 X0 X0", "s1 X0 X0 X0 X0"),
        (
            7,
            "s0 X0 X0 X0 X0 X0 (s1 X0 (1, 0), 0)",
            "s1 X0 X0 X0 X0 X0 (s1 X0 (1, 0), 0)",
        ),
    ],
)
def test_popping_subtableau_pinned(seed, left, right):
    # tall goals go through the popping subtableau: Rdcp, Ldcp and Cancel,
    # with Match closing the pending leaves
    system = random_popping_system(seed)
    oracle = ExactOracle(system)
    goal = Goal(parse_term(left, system), parse_term(right, system))
    root, stats = search_tableau(goal, "eps-popping", system, oracle)
    assert root is not None
    assert stats.subtableaux == 1
    assert {"Rdcp", "Ldcp", "Cancel", "Match"} <= {n.rule for n in root.walk()}
    ok, report = verify_tableau(root, system, oracle)
    assert ok, report
    assert format_tableau(root) + "\n" == (PINNED / f"pop{seed}.txt").read_text()


# entry 2 of V behaves as nil; entry 1 recurses through p's a-pop
POP_REC = POP + "rec V[2] = (p X (1, 2), 2) V\n"


def test_normal_unfolding_of_recursive_constant():
    system = parse_system(POP_REC)
    unfolding = normal_unfolding(system.rec_defs["V"], system, ExactOracle(system))
    assert format_term(unfolding) == "(p X (1, 0), 2)"


def test_unfold_recs_replaces_recursive_tails():
    system = parse_system(POP_REC)
    oracle = ExactOracle(system)
    V = RecConst(system.rec_defs["V"])
    assert format_term(_unfold_recs(V, system, oracle)) == "(p X (V(1), 0), 0)"
    const = Tup((parse_term("q Y V", system), select(1, V), Selection(3)))
    assert format_term(_unfold_recs(const, system, oracle)) == (
        "(q Y (p X (V(1), 0), 0), p X (V(1), 0), 3)"
    )


def test_decompose_right_unfolds_recursive_continuation(monkeypatch):
    system = parse_system(POP_REC)
    unfoldings = []

    def counted(*args, **kwargs):
        unfoldings.append(normal_unfolding(*args, **kwargs))
        return unfoldings[-1]

    monkeypatch.setattr(tableau, "normal_unfolding", counted)
    goal = Goal(parse_term("q Y V", system), parse_term("p Y V", system))
    # V(1) unfolds to p X (V(1), 0) again and again, until the depth budget
    # of 6 leaves the entry undetermined
    assert decompose_right(goal, system, ExactOracle(system)) is None
    assert len(unfoldings) == 7
    assert {format_term(u) for u in unfoldings} == {"(p X (1, 0), 2)"}
