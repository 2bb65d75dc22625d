"""Nondeterministic counter machines and their compilation to game systems.

A two-counter machine is lifted to a three-counter machine whose third
counter meters how long the run may continue before revisiting the first
instruction.  The lifted machine compiles to a silent-pushing pushdown
system in which two root processes are branching bisimilar exactly when
the machine has an infinite computation.  Counter values live on the
stack above a bottom symbol that is never popped, counter tests are
visible-action protocols, and counter updates are Defender's-Forcing
gadgets whose silent pump rules let Defender conjure any counter vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .equivalence import BoundedChecker, check_bounded, exact_equivalent, least_failing
from .game import GameConfig, PlayOutcome, ScriptedStrategy, run_play, solve_bounded, survives_round
from .system import EPSILON, PdaSystem, TransitionRule
from .terms import EMPTY_TUP, Seq, StackWord, format_term, stack_word

BOT = "bot"
COUNTER_SYMBOLS = ("C1", "C2", "C3")
OPS = ("+", "-", "*")


# ---------------------------------------------------------------------------
# counter machines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inc:
    counter: int
    goto: int

    def format(self) -> str:
        return f"inc c{self.counter} goto {self.goto}"


@dataclass(frozen=True)
class DecOrZero:
    counter: int
    zero_goto: int
    dec_goto: int

    def format(self) -> str:
        return f"ifz c{self.counter} goto {self.zero_goto} else dec goto {self.dec_goto}"


@dataclass(frozen=True)
class Branch:
    goto_a: int
    goto_b: int

    def format(self) -> str:
        return f"goto {self.goto_a} or goto {self.goto_b}"


@dataclass(frozen=True)
class Star:
    counter: int
    goto: int

    def format(self) -> str:
        return f"star c{self.counter} goto {self.goto}"


@dataclass(frozen=True)
class Halt:
    def format(self) -> str:
        return "halt"


Instruction = Inc | DecOrZero | Branch | Star | Halt


class MachineError(ValueError):
    """A malformed counter machine."""


@dataclass(frozen=True)
class CounterMachine:
    """A program ``1: I1; ...; n: halt`` over two or three counters."""

    instructions: tuple
    counters: int = 2

    def __post_init__(self):
        n = len(self.instructions)
        if n == 0:
            raise MachineError("a machine needs at least a halt instruction")
        if not isinstance(self.instructions[-1], Halt):
            raise MachineError("the final instruction must be halt")
        for i, ins in enumerate(self.instructions[:-1], start=1):
            if isinstance(ins, Halt):
                raise MachineError(f"halt before the final instruction (at {i})")
            if isinstance(ins, Star) and self.counters != 3:
                raise MachineError("star is only permitted in lifted machines")
            for tgt in _targets(ins):
                if not 1 <= tgt <= n:
                    raise MachineError(f"goto target {tgt} out of range at {i}")
            c = getattr(ins, "counter", None)
            if c is not None and not 1 <= c <= self.counters:
                raise MachineError(f"counter c{c} out of range at {i}")

    @property
    def size(self) -> int:
        return len(self.instructions)

    def format(self) -> str:
        return "\n".join(
            f"{i}: {ins.format()}" for i, ins in enumerate(self.instructions, start=1)
        ) + "\n"


def _targets(ins: Instruction):
    if isinstance(ins, (Inc, Star)):
        return (ins.goto,)
    if isinstance(ins, DecOrZero):
        return (ins.zero_goto, ins.dec_goto)
    if isinstance(ins, Branch):
        return (ins.goto_a, ins.goto_b)
    return ()


def parse_machine(text: str, counters: int = 2) -> CounterMachine:
    """Parse the one-instruction-per-line machine format."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        label_text, _, body = line.partition(":")
        if not _:
            raise MachineError(f"line {lineno}: missing ':' after the label")
        try:
            label = int(label_text)
        except ValueError:
            raise MachineError(f"line {lineno}: bad label {label_text!r}") from None
        if label in entries:
            raise MachineError(f"line {lineno}: duplicate label {label}")
        entries[label] = _parse_instruction(body.split(), lineno)
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        raise MachineError("labels must be exactly 1..n")
    return CounterMachine(tuple(entries[i] for i in range(1, n + 1)), counters=counters)


def _parse_instruction(parts, lineno):
    def counter(tok):
        if len(tok) == 2 and tok[0] == "c" and tok[1] in "0123456789":
            return int(tok[1])
        raise MachineError(f"line {lineno}: bad counter {tok!r}")

    def number(tok):
        try:
            return int(tok)
        except ValueError:
            raise MachineError(f"line {lineno}: bad target {tok!r}") from None

    try:
        if parts == ["halt"]:
            return Halt()
        if parts[0] == "inc" and parts[2] == "goto":
            return Inc(counter(parts[1]), number(parts[3]))
        if parts[0] == "star" and parts[2] == "goto":
            return Star(counter(parts[1]), number(parts[3]))
        if parts[0] == "ifz" and parts[2] == "goto" and parts[4:7] == ["else", "dec", "goto"]:
            return DecOrZero(counter(parts[1]), number(parts[3]), number(parts[7]))
        if parts[0] == "goto" and parts[2] == "or" and parts[3] == "goto":
            return Branch(number(parts[1]), number(parts[4]))
    except IndexError:
        pass
    raise MachineError(f"line {lineno}: unrecognized instruction {' '.join(parts)!r}")


def format_machine(machine: CounterMachine) -> str:
    return machine.format()


def lift_machine(machine: CounterMachine) -> CounterMachine:
    """The three-counter lift gating every revisit of instruction 1.

    Instruction 1 becomes a nondeterministic assignment to the new third
    counter; every other instruction is guarded by a third-counter
    decrement that jumps to halt on zero, so only runs executing the
    first instruction infinitely often survive the lift.
    """
    if machine.counters != 2:
        raise MachineError("only two-counter machines can be lifted")
    n = machine.size
    out = []
    for i, ins in enumerate(machine.instructions, start=1):
        rewritten = _rewrite_targets(ins)
        if i == 1:
            out.append(Star(3, 2))
            out.append(rewritten)
        else:
            out.append(DecOrZero(3, 2 * n, 2 * i))
            out.append(rewritten)
    return CounterMachine(tuple(out), counters=3)


def _rewrite_targets(ins: Instruction) -> Instruction:
    if isinstance(ins, Inc):
        return Inc(ins.counter, 2 * ins.goto - 1)
    if isinstance(ins, DecOrZero):
        return DecOrZero(ins.counter, 2 * ins.zero_goto - 1, 2 * ins.dec_goto - 1)
    if isinstance(ins, Branch):
        return Branch(2 * ins.goto_a - 1, 2 * ins.goto_b - 1)
    if isinstance(ins, Star):
        return Star(ins.counter, 2 * ins.goto - 1)
    return ins


# ---------------------------------------------------------------------------
# state naming
# ---------------------------------------------------------------------------


def test_state(e: int, o: str, primed: bool = False) -> str:
    return f"t'{e}{o}" if primed else f"t{e}{o}"


def gadget_state(base: str, e: int, o: str, j: int) -> str:
    return f"{base}_{e}{o}_{j}"


def claim_state(side: str, i: int, e: int, bit: int, target: int) -> str:
    return f"{side}{i}.{e}{bit}.{target}"


def v_state(k: int, e: int, bit: int, target: int) -> str:
    return f"v{k}_{e}{bit}_{target}"


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


@dataclass
class ReductionOutput:
    system: PdaSystem
    machine: CounterMachine
    root_pair: GameConfig
    state_inventory: dict
    symbol_inventory: tuple
    action_inventory: tuple

    def process(self, state: str, word) -> "StackWord":
        """A closed process ``state word`` with an inert empty continuation."""
        return stack_word(self.system.states, state, tuple(word), EMPTY_TUP)


def compile_reduction(machine: CounterMachine) -> ReductionOutput:
    """Compile a lifted machine into the silent-pushing game system."""
    if machine.counters != 3:
        raise MachineError("compile a lifted (three-counter) machine")
    n2 = machine.size  # the lifted machine has 2n instructions
    states: list = []
    inventory: dict = {}
    rules: list = []
    seen_states = set()

    def add_state(key: str, name: str) -> str:
        if name not in seen_states:
            seen_states.add(name)
            states.append(name)
            inventory[key] = name
        return name

    def rule(p, x, label, q, word=()):
        rules.append(TransitionRule(p, x, label, q, tuple(word)))

    # -- test states ------------------------------------------------------
    t = add_state("t", "t")
    tp = add_state("t'", "t'")
    for o in ("+", "-", "*", "0", "1"):
        for e in (1, 2, 3):
            add_state(f"t({e},{o})", test_state(e, o))
            add_state(f"t'({e},{o})", test_state(e, o, primed=True))

    for j, C in enumerate(COUNTER_SYMBOLS, start=1):
        rule(t, C, f"c{j}", t)
    rule(tp, "C1", "c1", tp)
    rule(tp, "C2", "c2", tp)
    rule(tp, "C3", "b", t, (BOT,))

    for e in (1, 2, 3):
        plus, plusp = test_state(e, "+"), test_state(e, "+", True)
        for j, C in enumerate(COUNTER_SYMBOLS, start=1):
            if j < e:
                rule(plus, C, f"c{j}", plus)
            else:
                rule(plus, C, f"c{e}", t, (C,))
            rule(plusp, C, f"c{j}", t)
        rule(plus, BOT, f"c{e}", t, (BOT,))

        star, starp = test_state(e, "*"), test_state(e, "*", True)
        for s in (star, starp):
            rule(s, "C1", "c1", star)
            rule(s, "C2", "c2", star)
            rule(s, "C3", "b", t, (BOT,))

        minus, minusp = test_state(e, "-"), test_state(e, "-", True)
        for j, C in enumerate(COUNTER_SYMBOLS, start=1):
            rule(minus, C, f"c{j}", t)
            if j < e:
                rule(minusp, C, f"c{j}", minusp)
            else:
                rule(minusp, C, f"c{e}", t, (C,))
        rule(minusp, BOT, f"c{e}", t, (BOT,))

        zero, zerop = test_state(e, "0"), test_state(e, "0", True)
        one, onep = test_state(e, "1"), test_state(e, "1", True)
        for j, C in enumerate(COUNTER_SYMBOLS, start=1):
            if j != e:
                rule(zero, C, f"c{j}", zero)
                rule(zerop, C, f"c{j}", zerop)
            else:
                rule(zero, C, "f", zero)
                rule(zerop, C, "f'", zero)
            if j < e:
                rule(one, C, f"c{j}", one)
                rule(onep, C, f"c{j}", onep)
            elif j == e:
                rule(one, C, f"c{e}", t)
                rule(onep, C, f"c{e}", t)
            else:
                rule(one, C, "f", t)
                rule(onep, C, "f'", t)
        rule(one, BOT, "f", t, (BOT,))
        rule(onep, BOT, "f'", t, (BOT,))

    # bottom reset: exactly the test states whose protocols stay correct
    # with an extra b-escape at the bottom (the counting sides of the
    # successor and predecessor tests must not acquire one).
    reset_family = [t, tp]
    for e in (1, 2, 3):
        reset_family += [
            test_state(e, "*"),
            test_state(e, "*", True),
            test_state(e, "+", True),
            test_state(e, "-"),
            test_state(e, "0"),
            test_state(e, "0", True),
            test_state(e, "1"),
            test_state(e, "1", True),
        ]
    for s in reset_family:
        rule(s, BOT, "b", t, (BOT,))

    # -- instruction states -------------------------------------------------
    for i in range(1, n2 + 1):
        add_state(f"p{i}", f"p{i}")
        add_state(f"q{i}", f"q{i}")

    # -- operation gadgets for every (e, o, j) ------------------------------
    bases = ("u", "u'", "u1", "u1'", "u2", "u2'", "u3", "u3'", "r", "r'", "g", "g'")
    for e, o, j in itertools.product((1, 2, 3), OPS, range(1, n2 + 1)):
        s = {b: add_state(f"{b}({e},{o},{j})", gadget_state(b, e, o, j)) for b in bases}
        to, top = test_state(e, o), test_state(e, o, primed=True)
        rule(s["u"], "X", "a", s["u1"], ("X",))
        rule(s["u"], "X", EPSILON, s["r'"], ("X",))
        rule(s["u'"], "X", EPSILON, s["r'"], ("X",))
        for gs, re_entry, exit_state in ((s["g'"], s["r'"], s["u1'"]), (s["g"], s["r"], s["u3"])):
            rule(re_entry, "X", EPSILON, gs, ("X", BOT))
            rule(gs, "X", EPSILON, gs, ("X3",))
            rule(gs, "X3", EPSILON, gs, ("X3", "C3"))
            rule(gs, "X3", EPSILON, gs, ("X2",))
            rule(gs, "X2", EPSILON, gs, ("X2", "C2"))
            rule(gs, "X2", EPSILON, gs, ("X1",))
            rule(gs, "X1", EPSILON, gs, ("X1", "C1"))
            rule(gs, "X1", EPSILON, re_entry, ("X",))
            rule(gs, "X1", "a", exit_state, ("X",))
        rule(s["u1"], "X", "a", s["u2"], ("X",))
        rule(s["u1"], "X", "c", to)
        rule(s["u1'"], "X", "a", s["u2'"], ("X",))
        rule(s["u1'"], "X", "c", top)
        rule(s["u2"], "X", EPSILON, s["r"], ("X",))
        rule(s["u2'"], "X", EPSILON, s["r"], ("X",))
        rule(s["u2'"], "X", "a", s["u3'"], ("X",))
        rule(s["u3"], "X", "a", f"p{j}", ("X",))
        rule(s["u3"], "X", "c", t)
        rule(s["u3'"], "X", "a", f"q{j}", ("X",))
        rule(s["u3'"], "X", "c", t)

    # -- control flow --------------------------------------------------------
    v_done = set()

    def claim_gadget(i, e, bit, target):
        """Attacker stakes a zero/nonzero claim; Defender audits it."""
        pc = add_state(f"p{i}({e},{bit},{target})", claim_state("p", i, e, bit, target))
        qc = add_state(f"q{i}({e},{bit},{target})", claim_state("q", i, e, bit, target))
        vs = [add_state(f"v{k}({e},{bit},{target})", v_state(k, e, bit, target)) for k in (1, 2, 3)]
        label = "a" if bit == 0 else EPSILON
        rule(f"p{i}", "X", label, pc, ("X",))
        rule(f"q{i}", "X", label, qc, ("X",))
        for k in (1, 2, 3):
            rule(pc, "X", "a", vs[k - 1], ("X",))
        for k in (2, 3):
            rule(qc, "X", "a", vs[k - 1], ("X",))
        if (e, bit, target) in v_done:
            return
        v_done.add((e, bit, target))
        if bit == 0:
            audits = (test_state(e, "1"), test_state(e, "1", True), test_state(e, "1"))
            escapes = (f"p{target}", f"p{target}", f"q{target}")
        else:
            audits = (test_state(e, "0"), test_state(e, "0", True), test_state(e, "0"))
            escapes = (
                gadget_state("u", e, "-", target),
                gadget_state("u", e, "-", target),
                gadget_state("u'", e, "-", target),
            )
        for k in (1, 2, 3):
            rule(vs[k - 1], "X", "a", audits[k - 1])
            rule(vs[k - 1], "X", "a", escapes[k - 1], ("X",))

    for i, ins in enumerate(machine.instructions, start=1):
        if isinstance(ins, Inc):
            rule(f"p{i}", "X", "a", gadget_state("u", ins.counter, "+", ins.goto), ("X",))
            rule(f"q{i}", "X", "a", gadget_state("u'", ins.counter, "+", ins.goto), ("X",))
        elif isinstance(ins, Star):
            rule(f"p{i}", "X", "a", gadget_state("u", ins.counter, "*", ins.goto), ("X",))
            rule(f"q{i}", "X", "a", gadget_state("u'", ins.counter, "*", ins.goto), ("X",))
        elif isinstance(ins, Branch):
            p1 = add_state(f"p{i}^1", f"p{i}.1")
            q1 = add_state(f"q{i}^1", f"q{i}.1")
            q2 = add_state(f"q{i}^2", f"q{i}.2")
            for target in (p1, q1, q2):
                rule(f"p{i}", "X", "a", target, ("X",))
            for target in (q1, q2):
                rule(f"q{i}", "X", "a", target, ("X",))
            rule(p1, "X", "a", f"p{ins.goto_a}", ("X",))
            rule(p1, "X", "a", f"p{ins.goto_b}", ("X",))
            rule(q1, "X", "a", f"q{ins.goto_a}", ("X",))
            rule(q1, "X", "a", f"p{ins.goto_b}", ("X",))
            rule(q2, "X", "a", f"p{ins.goto_a}", ("X",))
            rule(q2, "X", "a", f"q{ins.goto_b}", ("X",))
        elif isinstance(ins, DecOrZero):
            claim_gadget(i, ins.counter, 0, ins.zero_goto)
            claim_gadget(i, ins.counter, 1, ins.dec_goto)
        elif isinstance(ins, Halt):
            rule(f"p{i}", "X", "f", f"p{i}", (BOT,))
            rule(f"q{i}", "X", "f'", f"q{i}", (BOT,))

    symbols = ("X", "X1", "X2", "X3", "C1", "C2", "C3", BOT)
    actions = ("a", "b", "c", "c1", "c2", "c3", "f", "f'")
    system = PdaSystem(states, symbols, actions, rules, flavor={"eps_pushing"})
    root = GameConfig(
        stack_word(system.states, "p1", ("X", BOT), EMPTY_TUP),
        stack_word(system.states, "q1", ("X", BOT), EMPTY_TUP),
    )
    return ReductionOutput(system, machine, root, inventory, symbols, actions)


# ---------------------------------------------------------------------------
# configuration encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterConfig:
    label: int
    counters: tuple  # (n1, n2, n3)

    def __post_init__(self):
        if len(self.counters) != 3 or any(v < 0 for v in self.counters):
            raise MachineError("counters must be three nonnegative values")


def counter_word(counters) -> tuple:
    n1, n2, n3 = counters
    return ("C1",) * n1 + ("C2",) * n2 + ("C3",) * n3


def encode_config(output: ReductionOutput, config: CounterConfig) -> GameConfig:
    if not 1 <= config.label <= output.machine.size:
        raise MachineError(f"label {config.label} out of range")
    word = ("X",) + counter_word(config.counters) + (BOT,)
    return GameConfig(
        output.process(f"p{config.label}", word),
        output.process(f"q{config.label}", word),
    )


def decode_config(output: ReductionOutput, config: GameConfig) -> CounterConfig:
    left, right = config.left, config.right
    if not isinstance(left, StackWord) or not isinstance(right, StackWord):
        raise MachineError("not an instruction configuration")
    if left.word != right.word:
        raise MachineError("sides carry different stacks")
    if not (left.state.startswith("p") and left.state[1:].isdigit()):
        raise MachineError(f"left state {left.state} is not an instruction state")
    if right.state != "q" + left.state[1:]:
        raise MachineError("sides do not agree on the instruction label")
    label = int(left.state[1:])
    word = left.word
    if word[0] != "X" or BOT not in word:
        raise MachineError("stack is not in configuration form")
    body = word[1 : word.index(BOT)]
    counts = [0, 0, 0]
    for sym in body:
        if sym not in COUNTER_SYMBOLS:
            raise MachineError(f"unexpected stack symbol {sym}")
        counts[COUNTER_SYMBOLS.index(sym)] += 1
    if tuple(sorted(body, key=COUNTER_SYMBOLS.index)) != body:
        raise MachineError("counter symbols out of canonical order")
    return CounterConfig(label, tuple(counts))


# ---------------------------------------------------------------------------
# counter-test verification
# ---------------------------------------------------------------------------


@dataclass
class Prop2Report:
    statements: dict = field(default_factory=dict)  # number -> (checked, violations)
    violations: list = field(default_factory=list)
    unknown: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unknown

    def format(self) -> str:
        lines = []
        for num in sorted(self.statements):
            checked, bad = self.statements[num]
            status = "ok" if bad == 0 else f"{bad} violations"
            lines.append(f"statement {num}: {checked} instances, {status}")
        for v in self.violations:
            lines.append(f"violation {v}")
        for u in self.unknown:
            lines.append(f"unknown {u}")
        return "\n".join(lines)


def _vectors(bound: int):
    return list(itertools.product(range(bound + 1), repeat=3))


def prop2_suite(
    output: ReductionOutput,
    max_counter: int = 3,
    bounded_depth: int = 6,
    silent_cap: int = 8,
) -> Prop2Report:
    """Check the seven counter-test laws over all vectors up to the bound.

    Laws 1, 5, 6, 7 are decided exactly on their (finite) fragments; laws
    2, 3, 4 exactly where the fragment closes and at bounded depth
    otherwise.
    """
    system = output.system
    report = Prop2Report()
    vecs = _vectors(max_counter)

    def term(state, counters, garbage=()):
        return output.process(state, counter_word(counters) + (BOT,) + tuple(garbage))

    def judge(left, right, allow_bounded):
        got = exact_equivalent(left, right, system, budget=400)
        if got is None and allow_bounded:
            got = check_bounded(left, right, system, bounded_depth, silent_cap=silent_cap)
        return got

    def run(num, instances, allow_bounded=False):
        checked = bad = 0
        for left, right, expected, desc in instances:
            got = judge(left, right, allow_bounded)
            checked += 1
            if got is None:
                report.unknown.append(f"({num}) {desc}")
            elif got != expected:
                bad += 1
                report.violations.append(f"({num}) {desc}: expected {expected}, got {got}")
        report.statements[num] = (checked, bad)

    def pairs():
        return itertools.product(vecs, vecs)

    run(
        1,
        (
            (term("t", a), term("t", b), a == b, f"t {a} vs t {b}")
            for a, b in pairs()
        ),
    )
    run(
        2,
        (
            (
                term(test_state(3, "*"), a),
                term(test_state(3, "*", True), b),
                a[:2] == b[:2],
                f"t3* {a} vs t'3* {b}",
            )
            for a, b in pairs()
        ),
        allow_bounded=True,
    )
    for num, o, predicate in (
        (3, "+", lambda a, b, e: b[e - 1] == a[e - 1] + 1),
        (4, "-", lambda a, b, e: a[e - 1] == b[e - 1] + 1),
        (5, "0", lambda a, b, e: a == b and a[e - 1] == 0),
        (6, "1", lambda a, b, e: a == b and a[e - 1] > 0),
    ):
        instances = []
        for e in (1, 2, 3):
            for a, b in pairs():
                same_rest = all(a[k] == b[k] for k in range(3) if k != e - 1)
                if num in (3, 4):
                    expected = same_rest and predicate(a, b, e)
                else:
                    expected = predicate(a, b, e)
                instances.append(
                    (
                        term(test_state(e, o), a),
                        term(test_state(e, o, True), b),
                        expected,
                        f"t{e}{o} {a} vs t'{e}{o} {b}",
                    )
                )
        run(num, instances, allow_bounded=num in (3, 4))

    # law 7: the stack below the first bottom symbol is invisible.  The
    # bottom is never popped, so two configurations agreeing above their
    # first bottom are equivalent whatever lies beneath.
    sample = ["t", "t'"] + [
        test_state(e, o, primed)
        for e, o, primed in (
            (1, "+", False),
            (2, "-", True),
            (3, "*", False),
            (1, "0", True),
            (2, "1", False),
        )
    ]
    instances = []
    for state in sample:
        for prefix in ((0, 0, 0), (1, 1, 0)):
            for a, b in pairs():
                instances.append(
                    (
                        term(state, prefix, garbage=counter_word(a) + (BOT,)),
                        term(state, prefix, garbage=counter_word(b) + (BOT,)),
                        True,
                        f"{state} {prefix}|{a} vs {prefix}|{b}",
                    )
                )
    run(7, instances)
    return report


# ---------------------------------------------------------------------------
# scripted operation plays
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    outcome: PlayOutcome
    reached: GameConfig
    target: GameConfig
    exact_match: bool
    equivalence_checked: bool
    script: tuple

    @property
    def ok(self) -> bool:
        return (
            self.outcome.winner == "undetermined"
            and self.exact_match
            and self.equivalence_checked
        )

    def format(self) -> str:
        lines = [
            f"play winner: {self.outcome.winner}",
            f"reached:  {self.reached.format()}",
            f"target:   {self.target.format()}",
            f"exact configuration match: {self.exact_match}",
            f"bounded equivalence to clean encoding: {self.equivalence_checked}",
        ]
        return "\n".join(lines)


def _unit(e: int) -> tuple:
    return tuple(1 if k == e - 1 else 0 for k in range(3))


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def lemma13_scenarios(
    output: ReductionOutput,
    scenario: int,
    e: int,
    j: int,
    alpha: tuple,
    star_value: int | None = None,
    check_depth: int = 3,
    silent_cap: int | None = None,
) -> ScenarioResult:
    """Replay the optimal four-round play of one counter operation.

    Scenario 1 increments counter e, scenario 2 decrements it (the counter
    must be positive), scenario 3 sets counter 3 to ``star_value``.  The
    play must end at the instruction configuration for target j with the
    updated counters, carrying the superseded stack as invisible garbage.
    """
    if scenario == 1:
        o, beta = "+", _vec_add(alpha, _unit(e))
    elif scenario == 2:
        if alpha[e - 1] == 0:
            raise MachineError("decrement scenario needs a positive counter")
        o, beta = "-", tuple(v - u for v, u in zip(alpha, _unit(e)))
    elif scenario == 3:
        if e != 3 or star_value is None:
            raise MachineError("assignment scenario is for counter 3 with a value")
        o, beta = "*", (alpha[0], alpha[1], star_value)
    else:
        raise MachineError(f"unknown scenario {scenario}")

    system = output.system
    alpha_word = counter_word(alpha) + (BOT,)
    beta_word = counter_word(beta) + (BOT,)

    def proc(base, word):
        return output.process(gadget_state(base, e, o, j), ("X",) + tuple(word))

    start = GameConfig(proc("u", alpha_word), proc("u'", alpha_word))
    garbage = alpha_word
    moves = [
        ("A", "attack", "left", "a", proc("u1", alpha_word)),
        ("D", "respond", "a", proc("u1'", beta_word + garbage)),
        ("A", "pick", 1),
        ("A", "attack", "left", "a", proc("u2", alpha_word)),
        ("D", "respond", "a", proc("u2'", beta_word + garbage)),
        ("A", "attack", "right", "a", proc("u3'", beta_word + garbage)),
        ("D", "respond", "a", proc("u3", beta_word + garbage)),
        ("A", "pick", 1),
        (
            "A",
            "attack",
            "left",
            "a",
            output.process(f"p{j}", ("X",) + beta_word + garbage),
        ),
        (
            "D",
            "respond",
            "a",
            output.process(f"q{j}", ("X",) + beta_word + garbage),
        ),
    ]
    if silent_cap is None:
        silent_cap = 8 + sum(beta)
    attacker = ScriptedStrategy(moves, system, "A")
    defender = ScriptedStrategy(moves, system, "D")
    outcome = run_play(
        system, start, attacker, defender, max_rounds=4, silent_cap=silent_cap
    )
    target = GameConfig(
        output.process(f"p{j}", ("X",) + beta_word + garbage),
        output.process(f"q{j}", ("X",) + beta_word + garbage),
    )
    exact = outcome.final == target
    clean = encode_config(output, CounterConfig(j, beta))
    checker = BoundedChecker(system, silent_cap=silent_cap)
    equiv = bool(
        checker.rel(outcome.final.left, clean.left, check_depth)
        and checker.rel(outcome.final.right, clean.right, check_depth)
    )
    return ScenarioResult(outcome, outcome.final, target, exact, equiv, tuple(moves))


def lemma12_spotcheck(
    output: ReductionOutput,
    e: int = 1,
    o: str = "+",
    j: int = 1,
    steps: int = 6,
    depth: int = 2,
    silent_cap: int = 6,
) -> list:
    """Every short silent derivative of a reset state stays equivalent to it.

    Returns (term, holds) pairs for silent derivatives of r'(e,o,j)X-bot.
    """
    system = output.system
    root = output.process(gadget_state("r'", e, o, j), ("X", BOT))
    checker = BoundedChecker(system, silent_cap=silent_cap)
    seen = {root}
    frontier = [root]
    results = []
    for _ in range(steps):
        nxt = []
        for u in frontier:
            for lab, v in system.silent_steps(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    for v in sorted(seen, key=format_term):
        results.append((v, bool(checker.rel(root, v, depth))))
    return results


# ---------------------------------------------------------------------------
# whole-reduction bounded evidence
# ---------------------------------------------------------------------------


@dataclass
class ReductionCheckReport:
    machine: CounterMachine
    entries: list = field(default_factory=list)  # (depth, verdict string)
    attacker_win_depth: int | None = None

    def format(self) -> str:
        lines = ["reduction check (bounded evidence only; never a positive proof)"]
        for depth, verdict in self.entries:
            lines.append(f"depth {depth}: {verdict}")
        if self.attacker_win_depth is not None:
            lines.append(
                f"attacker wins at depth {self.attacker_win_depth}: "
                "no qualifying infinite computation within this horizon"
            )
        else:
            lines.append("defender survived every scheduled depth (evidence only)")
        return "\n".join(lines)


def garbage_collapse(output: ReductionOutput):
    """Quotient map dropping stack content below the first bottom marker.

    No rule of a compiled system ever removes the bottom marker, so the
    content beneath the first occurrence can never be exposed; truncating
    it identifies only strongly bisimilar configurations.  The invariant
    is re-checked here rather than assumed.
    """
    system = output.system
    for r in system.rules:
        if r.head_symbol == BOT and (not r.target_word or r.target_word[-1] != BOT):
            raise MachineError("bottom marker is removable; collapse is unsound")
    states = system.states
    cache: dict = {}

    def canon(term):
        c = cache.get(term)
        if c is None:
            if isinstance(term, StackWord) and BOT in term.word:
                i = term.word.index(BOT)
                c = stack_word(states, term.state, term.word[: i + 1], EMPTY_TUP)
            elif isinstance(term, Seq) and term.symbol == BOT:
                c = stack_word(states, term.state, (BOT,), EMPTY_TUP)
            else:
                c = term
            cache[term] = c
        return c

    return canon


def bounded_reduction_check(
    machine: CounterMachine,
    schedule=(4, 8, 16, 32),
    silent_cap: int = 8,
) -> ReductionCheckReport:
    """Play the compiled game at increasing depths from the root pair."""
    lifted = lift_machine(machine) if machine.counters == 2 else machine
    output = compile_reduction(lifted)
    report = ReductionCheckReport(machine)
    root = output.root_pair
    checker = BoundedChecker(
        output.system, silent_cap=silent_cap, canon=garbage_collapse(output), horizon=True
    )
    failing = least_failing(checker.rel, root.left, root.right, schedule)
    for depth in schedule:
        attacked = depth == failing
        # independent of the checker's own answer search: one game round
        # unfolded from the root, and at the attacking depth the replayed play
        agree = survives_round(checker, root, depth) != attacked
        if attacked:
            agree = agree and solve_bounded(root, checker, depth).outcome.winner == "attacker"
        verdict = (
            f"{'attacker (attack found' if attacked else 'defender (survives'}, "
            f"cross-check {'agrees' if agree else 'DISAGREES'})"
        )
        report.entries.append((depth, verdict))
        if attacked:
            report.attacker_win_depth = depth
            break
    return report
