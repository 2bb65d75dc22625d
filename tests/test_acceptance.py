"""Acceptance gate: one pass/fail line per criterion, printed in the summary.

Each test exercises one desk-scale property of the whole stack; a criterion
line is recorded whether the check passes or fails, and the test then
asserts the verdict so the suite stays honest.
"""

import itertools
import random
import time

from corpus import (
    chain_roots,
    random_constant,
    random_popping_system,
    random_pushing_system,
    random_twin_popping_system,
    sample_pairs,
    silent_chains,
)
from bbpda.equivalence import (
    BoundedChecker,
    ExactOracle,
    check_bounded,
    check_chain_bound,
    check_finite_exact,
    joint_fragment,
)
from bbpda.game import GameConfig, solve_bounded
from bbpda.ncm import (
    bounded_reduction_check,
    compile_reduction,
    lemma13_scenarios,
    lift_machine,
    parse_machine,
    prop2_suite,
)
from bbpda.system import parse_system, parse_term
from bbpda.tableau import Goal, refine_fixpoints, search_tableau, verify_tableau
from bbpda.terms import (
    NIL,
    RecConst,
    Selection,
    Seq,
    Tup,
    compose,
    cut_process,
    standard_cont,
    term_height,
)

RESULTS = []


def _record(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    RESULTS.append(line)
    assert ok, line


def test_criterion_01_oracle_agreement():
    disagreements = 0
    systems_used = 0
    pairs_checked = 0
    for seed in range(200):
        system = random_popping_system(seed)
        used = False
        for left, right in sample_pairs(seed, system, 10):
            lts = joint_fragment(system, left, right, 500)
            if lts is None:
                continue
            used = True
            pairs_checked += 1
            depth = len(lts)  # >= fragment diameter
            exact = check_finite_exact(left, right, system).kind == "equivalent"
            bounded = check_bounded(left, right, system, depth)
            game = (
                solve_bounded(GameConfig(left, right), BoundedChecker(system), depth).winner
                == "defender"
            )
            if not (exact == bounded == game):
                disagreements += 1
        systems_used += used
    ok = disagreements == 0 and systems_used >= 200
    _record(
        1,
        "exact, bounded and game verdicts agree on the random corpus",
        ok,
        f"{systems_used} systems, {pairs_checked} pairs, {disagreements} disagreements",
    )


def test_criterion_02_computation_lemma():
    violations = 0
    chains_checked = 0
    for seed in range(25):
        for system in (
            random_popping_system(seed),
            random_twin_popping_system(seed),
        ):
            roots = [left for left, _right in sample_pairs(seed, system, 3)]
            roots += chain_roots(system)
            for root in roots:
                for chain in silent_chains(system, root, max_len=4, cap=40):
                    if len(chain) < 3:
                        continue
                    ends = check_finite_exact(chain[0], chain[-1], system)
                    if ends.kind != "equivalent":
                        continue
                    chains_checked += 1
                    for i in range(len(chain)):
                        for j in range(i + 1, len(chain)):
                            v = check_finite_exact(chain[i], chain[j], system)
                            if v.kind == "inequivalent":
                                violations += 1
    _record(
        2,
        "silent chains with equivalent endpoints have pairwise-equivalent interiors",
        violations == 0 and chains_checked > 0,
        f"{chains_checked} chains, {violations} violations",
    )


def test_criterion_03_composition_closure():
    rng = random.Random("acceptance:closure")
    violations = 0
    composed_checked = 0
    for seed in range(20):
        system = random_popping_system(seed)
        for left, right in sample_pairs(seed, system, 5):
            base = check_finite_exact(left, right, system)
            if base.kind != "equivalent":
                continue
            for _ in range(5):
                const = random_constant(rng, system)
                v = check_finite_exact(
                    compose(left, const), compose(right, const), system
                )
                if v.kind == "unknown":
                    continue  # fragment did not close
                composed_checked += 1
                if v.kind == "inequivalent":
                    violations += 1
    _record(
        3,
        "equivalence survives composition with sampled constants",
        violations == 0 and composed_checked > 0,
        f"{composed_checked} composed pairs, {violations} violations",
    )


def _random_simple(rng, depth=3):
    if depth == 0 or rng.random() < 0.25:
        return Selection(rng.randint(1, 3)) if rng.random() < 0.7 else NIL
    return Seq(
        rng.choice(("p", "q")),
        rng.choice(("X", "Y")),
        Tup(tuple(_random_simple(rng, depth - 1) for _ in range(rng.randint(1, 3)))),
    )


def test_criterion_04_term_algebra_laws():
    rng = random.Random("acceptance:laws")
    violations = 0
    total = 10_000
    for _ in range(total):
        t = _random_simple(rng)
        c = Tup(tuple(_random_simple(rng, 2) for _ in range(3)))
        d = Tup(tuple(_random_simple(rng, 2) for _ in range(3)))
        # composition associativity (indices stay within the arity-3 tuples)
        if compose(compose(t, c), d) != compose(t, compose(c, d)):
            violations += 1
        # normalization idempotence: re-normalizing a composed term is a no-op
        u = compose(t, c)
        if compose(u, standard_cont(5)) != compose(
            compose(u, standard_cont(5)), standard_cont(5)
        ):
            violations += 1
        # cut round-trip at every admissible depth
        for depth in range(1, term_height(t) + 1):
            prefix, residual = cut_process(t, depth)
            if compose(prefix, residual) != t:
                violations += 1
    _record(
        4,
        "normalization idempotence, associativity and cut round-trip",
        violations == 0,
        f"{total} terms, {violations} violations",
    )


def test_criterion_05_counter_test_laws():
    machine = parse_machine("1: inc c1 goto 2\n2: halt\n")
    output = compile_reduction(lift_machine(machine))
    start = time.monotonic()
    report = prop2_suite(output, max_counter=3, bounded_depth=6)
    elapsed = time.monotonic() - start
    _record(
        5,
        "all seven counter-test laws hold for counter vectors <= 3",
        report.ok and elapsed < 60.0,
        f"{sum(c for c, _ in report.statements.values())} instances, "
        f"{len(report.violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_06_scripted_update_plays():
    machine = parse_machine("1: inc c1 goto 2\n2: halt\n")
    output = compile_reduction(lift_machine(machine))
    runs = 0
    failures = 0
    for alpha in itertools.product(range(3), repeat=3):
        for e in (1, 2):
            results = [lemma13_scenarios(output, scenario=1, e=e, j=2, alpha=alpha)]
            if alpha[e - 1] >= 1:
                results.append(
                    lemma13_scenarios(output, scenario=2, e=e, j=2, alpha=alpha)
                )
            for r in results:
                runs += 1
                failures += not (r.ok and r.exact_match)
        for star_value in range(3):
            r = lemma13_scenarios(
                output, scenario=3, e=3, j=2, alpha=alpha, star_value=star_value
            )
            runs += 1
            failures += not (r.ok and r.exact_match)
    _record(
        6,
        "scripted counter-update plays reach exactly their target configurations",
        failures == 0,
        f"{runs} plays, {failures} failures",
    )


def test_criterion_07_reduction_direction():
    start = time.monotonic()
    halting = bounded_reduction_check(
        parse_machine("1: ifz c1 goto 2 else dec goto 2\n2: halt\n")
    )
    looping = bounded_reduction_check(parse_machine("1: goto 1 or goto 1\n2: halt\n"))
    elapsed = time.monotonic() - start
    halting_ok = (
        halting.attacker_win_depth is not None and halting.attacker_win_depth <= 32
    )
    looping_ok = looping.attacker_win_depth is None and any(
        depth == 32 and verdict.startswith("defender")
        for depth, verdict in looping.entries
    )
    _record(
        7,
        "halting machine refuted by depth 32, looping machine survives depth 32",
        halting_ok and looping_ok,
        f"attacker win at {halting.attacker_win_depth}, {elapsed:.0f}s total",
    )


def test_criterion_08_tableau_soundness_and_coverage():
    found = 0
    total = 0
    unsound = 0
    for seed in range(20):
        system = random_popping_system(seed)
        oracle = ExactOracle(system)
        for left, right in sample_pairs(seed, system, 5):
            if check_finite_exact(left, right, system).kind != "equivalent":
                continue
            total += 1
            root, _stats = search_tableau(
                Goal(left, right), "eps-popping", system, oracle
            )
            if root is None:
                continue
            found += 1
            ok, _report = verify_tableau(root, system, oracle)
            if not ok:
                unsound += 1
    rate = found / total if total else 0.0
    _record(
        8,
        "every found tableau verifies backward-sound; >=90% coverage on toy pairs",
        unsound == 0 and total > 0 and rate >= 0.9,
        f"{found}/{total} found ({rate:.0%}), {unsound} failed verification",
    )


TWIN_CHAIN = """
states p0 p1 p2
symbols X Y
actions a
flavor eps-pushing
rule p0 X eps -> p1 X
rule p1 X eps -> p2 X
rule p0 X a -> p0
rule p1 X a -> p1
rule p2 X a -> p2
rule p0 Y a -> p0 X
rule p1 Y a -> p1 X
rule p2 Y a -> p2 X
"""


def test_criterion_09_silent_chain_length_bound():
    violations = 0
    max_seen = 0
    audited = 0
    # handcrafted twin-state system whose silent steps are all preserving,
    # so the audit actually observes nonempty preserving chains
    twin = parse_system(TWIN_CHAIN)
    roots = [parse_term("p0 Y Y (1, 1, 1)", twin), parse_term("p0 X (1, 1, 1)", twin)]
    report = check_chain_bound(twin, roots, ExactOracle(twin), node_budget=3000)
    violations += len(report.violations)
    max_seen = max(max_seen, report.max_observed)
    audited += 1
    for seed in range(12):
        system = random_pushing_system(seed)
        consts = system.constants()
        if consts.q_count > 3 or consts.n_count > 3 or consts.r_max > 3:
            continue
        roots = [left for left, _right in sample_pairs(seed, system, 4)]
        report = check_chain_bound(
            system, roots, ExactOracle(system), node_budget=3000
        )
        violations += len(report.violations)
        max_seen = max(max_seen, report.max_observed)
        audited += 1
    _record(
        9,
        "no preserving silent chain reaches the q*n*r*(m+1)^q length bound",
        violations == 0 and audited > 0 and max_seen > 0,
        f"{audited} systems, longest observed chain {max_seen}, {violations} violations",
    )


def test_criterion_10_fixpoint_refinement():
    system = random_popping_system(0)
    oracle = ExactOracle(system)
    instances = 0
    bad_steps = 0
    bad_fixpoints = 0
    for n in (2, 3):
        for left, right in sample_pairs(1, system, 6):
            if not (max(_indices(left), default=0) <= n >= max(_indices(right), default=0)):
                continue
            candidates, _complete = refine_fixpoints(left, right, n, oracle)
            for cand in candidates:
                instances += 1
                if len(cand.history) - 1 > n * (n - 1) // 2:
                    bad_steps += 1
                V = RecConst(cand.defn)
                if oracle.judge(compose(left, V), compose(right, V)) is not True:
                    bad_fixpoints += 1
    _record(
        10,
        "refinement stays within n(n-1)/2 steps and candidates satisfy the fixpoint equation",
        instances > 0 and bad_steps == 0 and bad_fixpoints == 0,
        f"{instances} candidates, {bad_steps} step overruns, {bad_fixpoints} bad fixpoints",
    )


def _indices(term):
    from bbpda.terms import ln

    return ln(term)
