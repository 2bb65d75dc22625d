"""The attacker/defender branching-bisimulation game.

A play alternates: attacker fires a transition on one side; defender
answers with do-nothing (silent attacks only) or a silent chain ending in
the attacked label; attacker then picks the next configuration among the
final pair and the chain's intermediate pairs.  Attacker wins when defender
is stuck or the configuration violates selection identity; defender wins
by surviving.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equivalence import (
    CLOSURE_BUDGET,
    BoundedChecker,
    ClosureBudgetExhausted,
    _selection_compatible,
    least_failing,
)
from .system import EPSILON, PdaSystem, SystemError
from .terms import Process, format_term, term_key


@dataclass(frozen=True)
class GameConfig:
    left: Process
    right: Process

    def format(self) -> str:
        return f"{format_term(self.left)} | {format_term(self.right)}"


@dataclass(frozen=True)
class Attack:
    side: str  # "left" | "right"
    label: str
    target: Process

    def format(self) -> str:
        return f"A {self.side} {self.label} -> {format_term(self.target)}"


@dataclass(frozen=True)
class Response:
    kind: str  # "nothing" | "chain"
    intermediates: tuple = ()
    final: Process | None = None

    def format(self, label: str) -> str:
        if self.kind == "nothing":
            return "D nothing"
        return f"D eps* {label} -> {format_term(self.final)}"


class ScriptError(ValueError):
    """A scripted move was illegal or malformed; distinct from a loss."""


@dataclass
class PlayOutcome:
    winner: str  # "attacker" | "defender" | "undetermined" | "script-error"
    rounds: int
    trace: tuple
    final: GameConfig

    def format(self) -> str:
        lines = [f"winner {self.winner}", f"rounds {self.rounds}"]
        lines.extend(self.trace)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# legal moves
# ---------------------------------------------------------------------------


def legal_attacks(system: PdaSystem, config: GameConfig):
    out = [Attack("left", lab, t) for lab, t in system.step(config.left)]
    out += [Attack("right", lab, t) for lab, t in system.step(config.right)]
    out.sort(key=lambda a: (a.side, a.label, term_key(a.target)))
    return tuple(out)


def legal_defender_responses(
    system: PdaSystem, config: GameConfig, attack: Attack, silent_cap=None
):
    """Materialized defender responses to an attack.

    Chains are represented by their shortest silent prefix to each closure
    node (one canonical chain per (node, final) pair).  ``silent_cap`` N
    bounds a chain to at most N steps counting the answering step, as in
    ``BoundedChecker``; it is required on silent-head-cyclic systems.
    Raises ``ClosureBudgetExhausted`` rather than drop a closure node.
    """
    if silent_cap is None and system.has_silent_head_cycles:
        raise SystemError("response enumeration needs a silent cap on this system")
    other = config.right if attack.side == "left" else config.left
    responses = []
    if attack.label == EPSILON:
        responses.append(Response("nothing"))
    paths = {other: ()}
    queue = [other]
    while queue:
        u = queue.pop(0)
        path = paths[u]
        for lab, v in system.step(u):
            if lab == attack.label:
                responses.append(Response("chain", path, v))
            if (
                lab == EPSILON
                and v not in paths
                and (silent_cap is None or len(path) + 1 < silent_cap)
            ):
                if len(paths) >= CLOSURE_BUDGET:
                    raise ClosureBudgetExhausted
                paths[v] = path + (v,)
                queue.append(v)
    responses.sort(
        key=lambda r: (
            r.kind != "nothing",
            len(r.intermediates),
            term_key(r.final) if r.final is not None else "",
            tuple(term_key(t) for t in r.intermediates),
        )
    )
    return tuple(responses)


def response_choices(config: GameConfig, attack: Attack, response: Response):
    """Attacker's follow-up configurations: final pair first, then one pair
    per chain intermediate in chain order."""
    stay = config.left if attack.side == "left" else config.right
    if response.kind == "nothing":
        if attack.side == "left":
            return (GameConfig(attack.target, config.right),)
        return (GameConfig(config.left, attack.target),)
    if attack.side == "left":
        out = [GameConfig(attack.target, response.final)]
        out += [GameConfig(stay, w) for w in response.intermediates]
    else:
        out = [GameConfig(response.final, attack.target)]
        out += [GameConfig(w, stay) for w in response.intermediates]
    return tuple(out)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


class Strategy:
    def attack(self, config: GameConfig):
        raise NotImplementedError

    def respond(self, config: GameConfig, attack: Attack, legal):
        raise NotImplementedError

    def pick(self, config: GameConfig, attack: Attack, response: Response, choices):
        raise NotImplementedError


class ScriptedStrategy(Strategy):
    """Replays script lines for one role; illegal moves raise ScriptError.

    A defender with no legal response is stuck, whatever its script says.
    """

    def __init__(self, moves, system: PdaSystem, role: str):
        self.system = system
        self.role = role  # "A" | "D"
        self.moves = [m for m in moves if m[0] == self.role]
        self.pos = 0

    def _next(self, kinds):
        if self.pos >= len(self.moves):
            raise ScriptError(f"script for {self.role} exhausted")
        move = self.moves[self.pos]
        if move[1] not in kinds:
            raise ScriptError(f"expected {kinds}, script has {move[1]}")
        self.pos += 1
        return move

    def attack(self, config: GameConfig):
        _, _, side, label, target = self._next(("attack",))
        att = Attack(side, label, target)
        if att not in legal_attacks(self.system, config):
            raise ScriptError(f"illegal attack {att.format()}")
        return att

    def respond(self, config, attack, legal):
        if not legal:
            return None
        move = self._next(("respond", "nothing"))
        if move[1] == "nothing":
            for r in legal:
                if r.kind == "nothing":
                    return r
            raise ScriptError("do-nothing response not available")
        _, _, label, final = move
        if label != attack.label:
            raise ScriptError(f"response label {label} does not match attack {attack.label}")
        for r in legal:
            if r.kind == "chain" and r.final == final:
                return r
        raise ScriptError(f"no legal chain ends at {format_term(final)}")

    def pick(self, config, attack, response, choices):
        _, _, index = self._next(("pick",))
        if not 1 <= index <= len(choices):
            raise ScriptError(f"pick {index} out of range 1..{len(choices)}")
        return index - 1


class SolverStrategy(Strategy):
    """Plays by a ``BoundedChecker``'s game value at a fixed depth; the
    checker's ``system`` and ``silent_cap`` set the legal moves."""

    def __init__(self, checker: BoundedChecker, depth: int):
        self.checker = checker
        self.system = checker.system
        self.depth = depth

    def value(self, config: GameConfig) -> int:
        """Least depth at which the pair is apart; depth + 1 if none is."""
        k = least_failing(self.checker.rel, config.left, config.right, range(self.depth + 1))
        return self.depth + 1 if k is None else k

    def attack(self, config: GameConfig):
        """The first legal attack no response survives one depth lower."""
        k = self.value(config)
        atts = legal_attacks(self.system, config)
        if 0 < k <= self.depth:
            for att in atts:
                if not _answerable(self.checker, config, att, k):
                    return att
        return atts[0] if atts else None

    def respond(self, config, attack, legal):
        if not legal:
            return None
        best, best_val = None, -1
        for r in legal:
            worst = min(self.value(c) for c in response_choices(config, attack, r))
            if worst > best_val:
                best, best_val = r, worst
        return best

    def pick(self, config, attack, response, choices):
        return min(range(len(choices)), key=lambda i: (self.value(choices[i]), i))


class CopycatStrategy(Strategy):
    """Defender mirror play; never loses from a diagonal configuration."""

    def __init__(self, system: PdaSystem):
        self.system = system

    def respond(self, config, attack, legal):
        for r in legal:
            if r.kind == "chain" and not r.intermediates and r.final == attack.target:
                return r
        for r in legal:
            if r.kind == "nothing":
                return r
        return legal[0] if legal else None


# ---------------------------------------------------------------------------
# play execution
# ---------------------------------------------------------------------------


def run_play(
    system: PdaSystem,
    start: GameConfig,
    attacker: Strategy,
    defender: Strategy,
    max_rounds: int = 64,
    silent_cap=None,
) -> PlayOutcome:
    """Execute the alternating game for up to max_rounds rounds."""
    config = start
    trace = [f"config {config.format()}"]
    played = 0  # rounds in which an attack was made
    try:
        for _ in range(max_rounds):
            if not _selection_compatible(config.left, config.right):
                trace.append("A stuck selection-mismatch")
                return PlayOutcome("attacker", played, tuple(trace), config)
            attacks = legal_attacks(system, config)
            if not attacks:
                trace.append("A no-move")
                return PlayOutcome("defender", played, tuple(trace), config)
            attack = attacker.attack(config)
            if attack is None:
                trace.append("A concede")
                return PlayOutcome("defender", played, tuple(trace), config)
            if attack not in attacks:
                raise ScriptError(f"illegal attack {attack.format()}")
            trace.append(attack.format())
            played += 1
            legal = legal_defender_responses(system, config, attack, silent_cap=silent_cap)
            response = defender.respond(config, attack, legal)
            if response is None:
                trace.append("D stuck")
                return PlayOutcome("attacker", played, tuple(trace), config)
            if response not in legal:
                raise ScriptError("illegal defender response")
            trace.append(response.format(attack.label))
            choices = response_choices(config, attack, response)
            if len(choices) == 1:
                config = choices[0]
            else:
                i = attacker.pick(config, attack, response, choices)
                trace.append(f"A pick {i + 1}")
                config = choices[i]
            trace.append(f"config {config.format()}")
        return PlayOutcome("undetermined", max_rounds, tuple(trace), config)
    except ScriptError as exc:
        trace.append(f"script-error {exc}")
        return PlayOutcome("script-error", played, tuple(trace), config)


# ---------------------------------------------------------------------------
# bounded solving
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    winner: str  # "attacker" | "defender"
    depth: int
    spent: int
    outcome: PlayOutcome | None = None  # the solver's play, on attacker wins

    @property
    def variation(self) -> tuple:
        """Principal-variation script lines (empty on defender survival)."""
        return self.outcome.trace if self.outcome is not None else ()

    def format(self) -> str:
        qualifier = "wins" if self.winner == "attacker" else "survives"
        lines = [f"{self.winner} {qualifier} at depth {self.depth}"]
        lines.extend(self.variation)
        return "\n".join(lines)


def solve_bounded(start: GameConfig, checker: BoundedChecker, depth: int) -> SolveResult:
    """Game value at bounded depth, by the given checker.

    Attacker wins are genuine distinguishing strategies; defender survival
    is evidence only (the game characterizes a greatest fixpoint).  The
    checker decides the value and plays both roles; its memo carries over
    to later calls at other depths.
    """
    if checker.rel(start.left, start.right, depth):
        return SolveResult("defender", depth, len(checker._memo))
    return SolveResult("attacker", depth, len(checker._memo), solver_play(checker, start, depth))


def solver_play(checker: BoundedChecker, start: GameConfig, depth: int) -> PlayOutcome:
    """The play with ``SolverStrategy(checker, depth)`` in both roles; the
    one place a solver plays."""
    solver = SolverStrategy(checker, depth)
    return run_play(
        checker.system, start, solver, solver, max_rounds=depth + 1, silent_cap=checker.silent_cap
    )


def _answerable(checker: BoundedChecker, config: GameConfig, attack: Attack, depth: int) -> bool:
    """Whether some legal response keeps every follow-up related at depth - 1."""
    return any(
        all(checker.rel(c.left, c.right, depth - 1) for c in response_choices(config, attack, r))
        for r in legal_defender_responses(checker.system, config, attack, checker.silent_cap)
    )


def survives_round(checker: BoundedChecker, start: GameConfig, depth: int) -> bool:
    """The depth-``depth`` verdict at ``start``, unfolded one round.

    Every legal attack needs a legal response whose follow-ups the checker
    relates at depth - 1.  The moves come from this module's enumeration,
    not the checker's, so this cross-checks ``checker.rel`` at the root.
    """
    compatible = _selection_compatible(start.left, start.right)
    if depth <= 0 or not compatible:
        return compatible
    return all(_answerable(checker, start, a, depth) for a in legal_attacks(checker.system, start))


# ---------------------------------------------------------------------------
# scripts and DOT
# ---------------------------------------------------------------------------


def parse_script(text: str, system: PdaSystem):
    """Parse game-script lines into role-tagged move tuples."""
    from .system import ParseError, parse_term

    moves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 3) + ["", "", ""]
        if line == "D stuck" or parts[:2] == ["A", "stuck"]:
            continue  # an outcome line of a printed play; the game decides outcomes itself
        if parts[0] == "A" and parts[1] in ("left", "right"):
            label = parts[2]
            term_text = parts[3]
            if not term_text.startswith("->"):
                raise ParseError("attack line needs '->'", lineno)
            moves.append(("A", "attack", parts[1], label, parse_term(term_text[2:], system)))
        elif parts[0] == "A" and parts[1] == "pick" and parts[2].isdigit():
            moves.append(("A", "pick", int(parts[2])))
        elif parts[0] == "D" and parts[1] == "nothing":
            moves.append(("D", "nothing"))
        elif parts[0] == "D" and parts[1] == "eps*":
            label = parts[2]
            term_text = parts[3]
            if not term_text.startswith("->"):
                raise ParseError("response line needs '->'", lineno)
            moves.append(("D", "respond", label, parse_term(term_text[2:], system)))
        else:
            raise ParseError(f"unrecognized script line {line!r}", lineno)
    return moves


def format_script(moves) -> str:
    lines = []
    for m in moves:
        if m[1] == "attack":
            lines.append(f"A {m[2]} {m[3]} -> {format_term(m[4])}")
        elif m[1] == "pick":
            lines.append(f"A pick {m[2]}")
        elif m[1] == "nothing":
            lines.append("D nothing")
        else:
            lines.append(f"D eps* {m[2]} -> {format_term(m[3])}")
    return "\n".join(lines) + "\n"


def play_dot(outcome: PlayOutcome) -> str:
    """DOT rendering of a play trace as a move path."""
    lines = ["digraph play {", "  rankdir=TB;"]
    node = 0
    prev = None
    for entry in outcome.trace:
        label = entry.replace('"', "'")
        shape = "box" if entry.startswith("config") else "ellipse"
        lines.append(f'  n{node} [label="{label}", shape={shape}];')
        if prev is not None:
            lines.append(f"  n{prev} -> n{node};")
        prev = node
        node += 1
    lines.append(f'  outcome [label="winner: {outcome.winner}", shape=diamond];')
    if prev is not None:
        lines.append(f"  n{prev} -> outcome;")
    lines.append("}")
    return "\n".join(lines)
