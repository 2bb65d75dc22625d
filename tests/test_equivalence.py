"""Equivalence checking: partition refinement, stratification, bounded play."""

import random

import pytest

from corpus import (
    random_popping_system,
    random_pushing_system,
    random_twin_popping_system,
    sample_pairs,
    silent_chains,
)
from bbpda.equivalence import (
    BoundedChecker,
    ExactOracle,
    FragmentStratification,
    Verdict,
    branching_partition,
    check_bounded,
    check_finite_exact,
    classify_silent,
    exact_equivalent,
    joint_fragment,
    least_failing,
    norm,
)
from bbpda.system import parse_system, parse_term
from bbpda.terms import NIL, Selection, compose

AB = """
states p q
symbols X
actions a b
flavor eps-popping
rule p X a -> p
rule q X a -> q
rule q X b -> q
"""


@pytest.fixture()
def ab():
    return parse_system(AB)


def test_identical_terms_equivalent(ab):
    t = parse_term("p X (1, 1)", ab)
    verdict = check_finite_exact(t, t, ab)
    assert verdict.kind == "equivalent"
    assert verdict.related(t, t) is True


def test_extra_action_distinguishes(ab):
    left = parse_term("p X (1, 1)", ab)
    right = parse_term("q X (1, 1)", ab)
    verdict = check_finite_exact(left, right, ab)
    assert verdict.kind == "inequivalent"
    assert verdict.depth == 1
    assert verdict.script  # the attacker script names the b-move
    assert any(" b " in move for move in verdict.script)


def test_states_equivalent_under_shared_continuation(ab):
    left = parse_term("p X (1, 1)", ab)
    # same pop target, same action set after renaming? p only plays a; a
    # second p-configuration with an identical future is equivalent
    verdict = check_finite_exact(left, parse_term("p X (1, 1)", ab), ab)
    assert verdict.kind == "equivalent"


def test_silent_step_to_accepting_is_not_ignored():
    system = parse_system(
        """
states p q
symbols X
actions a
flavor eps-popping
rule p X eps -> p
rule q X a -> q
"""
    )
    left = parse_term("p X (1, 1)", system)
    right = parse_term("q X (1, 1)", system)
    assert check_finite_exact(left, right, system).kind == "inequivalent"


def test_unknown_on_growing_fragment():
    growing = parse_system(
        """
states p
symbols X
actions a
rule p X a -> p X X
"""
    )
    left = parse_term("p X (1)", growing)
    right = parse_term("p X X (1)", growing)
    assert check_finite_exact(left, right, growing, budget=10).kind == "unknown"


def test_stratification_monotone(ab):
    left = parse_term("p X (1, 1)", ab)
    right = parse_term("q X (1, 1)", ab)
    lts = joint_fragment(ab, left, right, 100)
    strat = FragmentStratification(lts)
    assert strat.rel(left, right, 0)
    failing = least_failing(strat.rel, left, right, range(len(strat.levels)))
    for k in range(failing):
        assert strat.rel(left, right, k)
    assert not strat.rel(left, right, failing)


def test_bounded_checker_agrees_with_stratification():
    # check's failing depth comes from the capped checker, asked at rising
    # depths; a second checker asked at falling depths fills its memo in
    # the other order
    compared = 0
    for make in (random_popping_system, random_pushing_system, random_twin_popping_system):
        for seed in range(20):
            system = make(seed)
            for left, right in sample_pairs(seed, system, 5):
                lts = joint_fragment(system, left, right, 400)
                if lts is None:
                    continue
                strat = FragmentStratification(lts)
                depths = range(strat.stable_depth + 2)
                failing = least_failing(strat.rel, left, right, depths)
                for cap in (None, len(lts)):
                    case = (make.__name__, seed, cap)
                    checker = BoundedChecker(system, silent_cap=cap)
                    assert least_failing(checker.rel, left, right, depths) == failing, case
                    checker = BoundedChecker(system, silent_cap=cap)
                    for depth in reversed(depths):
                        assert checker.rel(left, right, depth) == strat.rel(
                            left, right, depth
                        ), (case, depth)
                compared += 1
    assert compared > 100


def test_exact_oracle_caches_and_judges(ab):
    oracle = ExactOracle(ab)
    left = parse_term("p X (1, 1)", ab)
    right = parse_term("q X (1, 1)", ab)
    assert oracle.judge(left, left) is True
    assert oracle.judge(left, right) is False
    assert oracle.judge(left, right) is False  # cached path


def test_attacker_script_is_winning(ab):
    # the script's first attack must name a label the defender cannot match
    left = parse_term("p X (1, 1)", ab)
    right = parse_term("q X (1, 1)", ab)
    verdict = check_finite_exact(left, right, ab)
    assert verdict.script[0].startswith(("A left", "A right"))


def test_computation_lemma_on_corpus():
    # silent chains with exact-equivalent endpoints: all intermediates
    # are pairwise equivalent; the twin corpus guarantees such chains exist
    from corpus import chain_roots

    violations = 0
    checked = 0
    for seed in range(10):
        system = random_twin_popping_system(seed)
        for root in chain_roots(system):
            for chain in silent_chains(system, root, max_len=4, cap=40):
                if len(chain) < 3:
                    continue
                ends = check_finite_exact(chain[0], chain[-1], system)
                if ends.kind != "equivalent":
                    continue
                checked += 1
                for i in range(len(chain)):
                    for j in range(i + 1, len(chain)):
                        v = check_finite_exact(chain[i], chain[j], system)
                        if v.kind == "inequivalent":
                            violations += 1
    assert checked > 0
    assert violations == 0


def test_composition_closure_on_corpus():
    from corpus import random_constant

    rng = random.Random("closure")
    violations = 0
    for seed in range(10):
        system = random_popping_system(seed)
        for left, right in sample_pairs(seed, system, 5):
            base = check_finite_exact(left, right, system)
            if base.kind != "equivalent":
                continue
            for _ in range(3):
                const = random_constant(rng, system)
                v = check_finite_exact(
                    compose(left, const), compose(right, const), system
                )
                if v.kind == "inequivalent":
                    violations += 1
    assert violations == 0


def test_classify_silent(ab):
    system = parse_system(
        """
states p q
symbols X
actions a
flavor eps-popping
rule p X eps -> p
rule p X a -> p
"""
    )
    parent = parse_term("p X (p X (1, 1), 0)", system)
    (lab, child), = system.silent_steps(parent)
    cls = classify_silent(parent, child, ExactOracle(system))
    assert cls.preserving in (True, False)
    with pytest.raises(ValueError):
        classify_silent(parent, parent, ExactOracle(system))


def test_norm_on_popping_chain():
    system = parse_system(
        """
states p
symbols X
actions a
flavor eps-popping
rule p X a -> p
"""
    )
    t = parse_term("p X X (1)", system)
    result = norm(t, system, ExactOracle(system))
    assert result.complete
    assert result.values  # index 1 is reachable by norm-relevant steps


def test_exact_judgement_agrees_with_verdict_kind():
    expected = {"equivalent": True, "inequivalent": False, "unknown": None}
    for seed in range(20):
        for make in (random_popping_system, random_pushing_system):
            system = make(seed)
            for left, right in sample_pairs(seed, system, 5):
                kind = check_finite_exact(left, right, system).kind
                assert exact_equivalent(left, right, system) is expected[kind]
