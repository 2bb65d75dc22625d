"""PDA systems and their labelled transition semantics.

A system owns the state/symbol/action registries, the transition rules and
the recursive-constant definition table.  Systems are sealed at construction
and immutable afterwards; all derived quantities (flavor flags, pop
distances, silent-head-cycle report) are computed once and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .terms import (
    NIL,
    Constant,
    Nil,
    Process,
    RecConst,
    RecConstDef,
    RecSel,
    Selection,
    Seq,
    StackWord,
    Tup,
    compose,
    format_term,
    select,
    standard_cont,
    stack_word,
    validate_rec_const,
)

EPSILON = "eps"
FLAVORS = ("eps_popping", "eps_pushing", "normed_claimed")
DELIMITERS = "#(),[]="  # with whitespace, these end a token in the text formats

INF = math.inf


@dataclass(frozen=True)
class TransitionRule:
    """A rule ``pX -l-> q alpha``; ``label == EPSILON`` marks silent rules."""

    head_state: str
    head_symbol: str
    label: str
    target_state: str
    target_word: tuple

    def format(self) -> str:
        rhs = f"{self.target_state} {' '.join(self.target_word)}".rstrip()
        return f"rule {self.head_state} {self.head_symbol} {self.label} -> {rhs}"


class SystemError(ValueError):
    """Raised for ill-formed systems or unregistered identifiers."""


@dataclass(frozen=True)
class SystemConstants:
    """Derived size constants of a sealed system."""

    q_count: int
    n_count: int
    r_max: int
    m_bound: float  # math.inf when no head is normed


class PdaSystem:
    """A sealed pushdown system.

    ``flavor`` flags are those declared by the caller; the recomputed flags
    are available via :meth:`recompute_flavor` and checked in
    :meth:`flavor_violations`.
    """

    def __init__(
        self,
        states,
        symbols,
        actions,
        rules,
        rec_defs=(),
        flavor=frozenset(),
    ):
        self.states = tuple(states)
        self.symbols = tuple(symbols)
        self.actions = tuple(actions)
        self.rules = tuple(rules)
        self.rec_defs = {}
        for d in rec_defs:
            if d.name in self.rec_defs:
                raise SystemError(f"duplicate recursive constant {d.name}")
            bad = validate_rec_const(d)
            if bad:
                raise SystemError(f"invalid recursive constant {d.name}: {bad}")
            self.rec_defs[d.name] = d
        self.flavor = frozenset(flavor)
        self._validate()
        self._state_index = {s: i + 1 for i, s in enumerate(self.states)}
        self._rules_by_head = {}
        for r in self.rules:
            self._rules_by_head.setdefault((r.head_state, r.head_symbol), []).append(r)
        for rs in self._rules_by_head.values():
            rs.sort(key=lambda r: (r.label != EPSILON, r.label, r.target_state, r.target_word))
        self._pop_distances = None
        self._silent_cycles = None

    # -- construction & validation -------------------------------------

    def _validate(self) -> None:
        states, symbols = set(self.states), set(self.symbols)
        if len(states) != len(self.states):
            raise SystemError("duplicate state names")
        if len(symbols) != len(self.symbols):
            raise SystemError("duplicate symbol names")
        actions = set(self.actions)
        if EPSILON in actions:
            raise SystemError("'eps' is reserved for silent transitions")
        # every name must print as one token that reads back as what it names
        for kind, names in (
            ("state", self.states),
            ("symbol", self.symbols),
            ("action", self.actions),
            ("recursive constant", self.rec_defs),
        ):
            for name in names:
                if not name or name == "->" or any(c.isspace() or c in DELIMITERS for c in name):
                    raise SystemError(f"{kind} name {name!r} is not a token of the text format")
                if kind in ("state", "recursive constant") and name.isdigit():
                    raise SystemError(f"{kind} name {name!r} reads as a selection index")
        for name in self.rec_defs:
            if name in states or name in symbols:
                raise SystemError(f"recursive constant {name} is also a state or symbol name")
        unknown = sorted(self.flavor - set(FLAVORS))
        if unknown:
            raise SystemError(f"unknown flavor {unknown[0]}")
        for r in self.rules:
            if r.head_state not in states or r.target_state not in states:
                raise SystemError(f"unknown state in {r.format()}")
            if r.head_symbol not in symbols or any(s not in symbols for s in r.target_word):
                raise SystemError(f"unknown symbol in {r.format()}")
            if r.label != EPSILON and r.label not in actions:
                raise SystemError(f"unknown action in {r.format()}")

    # -- basic accessors -------------------------------------------------

    @property
    def q_count(self) -> int:
        return len(self.states)

    @property
    def n_count(self) -> int:
        return len(self.symbols)

    @property
    def nq(self) -> int:
        return self.n_count * self.q_count

    def state_index(self, state: str) -> int:
        try:
            return self._state_index[state]
        except KeyError:
            raise SystemError(f"unknown state {state}") from None

    def rules_for(self, state: str, symbol: str):
        return self._rules_by_head.get((state, symbol), ())

    @property
    def r_max(self) -> int:
        return max((len(r.target_word) for r in self.rules), default=0)

    def recompute_flavor(self) -> frozenset:
        flags = set()
        silent = [r for r in self.rules if r.label == EPSILON]
        if all(len(r.target_word) <= 1 for r in silent):
            flags.add("eps_popping")
        if all(len(r.target_word) >= 1 for r in silent):
            flags.add("eps_pushing")
        return frozenset(flags)

    def flavor_violations(self) -> list:
        """Declared flavor flags not supported by the actual rules."""
        actual = self.recompute_flavor()
        return sorted(f for f in self.flavor & {"eps_popping", "eps_pushing"} if f not in actual)

    # -- standard embedding ----------------------------------------------

    def standard(self, state: str, word) -> Process:
        """The standard process ``p alpha`` as a (compact) term."""
        word = tuple(word)
        if state not in self._state_index:
            raise SystemError(f"unknown state {state}")
        for s in word:
            if s not in self.symbols:
                raise SystemError(f"unknown symbol {s}")
        return stack_word(self.states, state, word, standard_cont(self.q_count))

    # -- one-step semantics ----------------------------------------------

    def step(self, term: Process):
        """The exact set of one-step derivatives ``(label, term')``.

        Nil and selections have no derivatives; recursive-constant
        selections unfold one body level on demand.  The result is ordered
        canonically (silent rules first, then by label and target).
        """
        if isinstance(term, (Nil, Selection)):
            return ()
        if isinstance(term, RecSel):
            body = term.defn.body[term.index - 1]
            return self.step(compose(body, RecConst(term.defn)))
        if isinstance(term, Seq):
            out = []
            for r in self.rules_for(term.state, term.symbol):
                out.append((r.label, stack_word(self.states, r.target_state, r.target_word, term.cont)))
            return tuple(out)
        if isinstance(term, StackWord):
            out = []
            head, rest = term.word[0], term.word[1:]
            for r in self.rules_for(term.state, head):
                out.append(
                    (r.label, stack_word(self.states, r.target_state, r.target_word + rest, term.cont))
                )
            return tuple(out)
        raise SystemError(f"not a process: {term!r}")

    def silent_steps(self, term: Process):
        return tuple((l, t) for l, t in self.step(term) if l == EPSILON)

    # -- pop distances and the m bound -------------------------------------

    def pop_distances(self):
        """Least transition counts ``dist[(p, X, t)]`` to pop one symbol.

        A least fixpoint over rule right-hand words; missing keys mean the
        pop is impossible.
        """
        if self._pop_distances is not None:
            return self._pop_distances
        dist = {}
        changed = True
        while changed:
            changed = False
            for r in self.rules:
                # cost of consuming the pushed word, threading the end state
                ends = {r.target_state: 0}
                for sym in r.target_word:
                    nxt = {}
                    for st, c in ends.items():
                        for t in self.states:
                            d = dist.get((st, sym, t))
                            if d is None:
                                continue
                            cand = c + d
                            if cand < nxt.get(t, INF):
                                nxt[t] = cand
                    ends = nxt
                    if not ends:
                        break
                for t, c in ends.items():
                    key = (r.head_state, r.head_symbol, t)
                    cand = 1 + c
                    if cand < dist.get(key, INF):
                        dist[key] = cand
                        changed = True
        self._pop_distances = dist
        return dist

    def constants(self) -> SystemConstants:
        dist = self.pop_distances()
        best = {}
        for (p, x, _t), d in dist.items():
            key = (p, x)
            if d < best.get(key, INF):
                best[key] = d
        m = max(best.values(), default=INF) if best else INF
        return SystemConstants(self.q_count, self.n_count, self.r_max, m)

    @property
    def m_bound(self):
        return self.constants().m_bound

    # -- silent head cycles -------------------------------------------------

    def detect_silent_head_cycles(self):
        """Cycles among head pairs connected by non-popping silent rules.

        Edges follow silent rules with nonempty right word: the new head is
        the target state with the first pushed symbol.  Returns the list of
        cycles (each a list of head pairs); empty certifies the no-circular-
        silent convention.
        """
        if self._silent_cycles is not None:
            return self._silent_cycles
        edges = {}
        for r in self.rules:
            if r.label == EPSILON and r.target_word:
                edges.setdefault((r.head_state, r.head_symbol), set()).add(
                    (r.target_state, r.target_word[0])
                )
        cycles = []
        color = {}  # 0 in progress, 1 done
        stack_path = []

        def dfs(node):
            color[node] = 0
            stack_path.append(node)
            for nxt in sorted(edges.get(node, ())):
                if nxt not in color:
                    dfs(nxt)
                elif color[nxt] == 0:
                    i = stack_path.index(nxt)
                    cycles.append(list(stack_path[i:]))
            stack_path.pop()
            color[node] = 1

        for node in sorted(edges):
            if node not in color:
                dfs(node)
        self._silent_cycles = cycles
        return cycles

    @property
    def has_silent_head_cycles(self) -> bool:
        return bool(self.detect_silent_head_cycles())

    def max_silent_head_chain(self) -> int:
        """Longest chain in the silent head graph (only valid when acyclic)."""
        if self.has_silent_head_cycles:
            raise SystemError("silent head graph is cyclic")
        edges = {}
        for r in self.rules:
            if r.label == EPSILON and r.target_word:
                edges.setdefault((r.head_state, r.head_symbol), set()).add(
                    (r.target_state, r.target_word[0])
                )
        memo = {}

        def depth(node):
            if node in memo:
                return memo[node]
            memo[node] = max((1 + depth(n) for n in edges.get(node, ())), default=0)
            return memo[node]

        return max((depth(n) for n in edges), default=0)

    # -- reachable fragments ---------------------------------------------

    def reachable_lts(self, roots, budget: int = 500):
        """The reachable fragment as an explicit finite graph.

        Returns a :class:`FiniteLts` when exploration closes within
        ``budget`` nodes, else an :class:`Exceeded` report.
        """
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if isinstance(roots, (Nil, Selection, Seq, RecSel, StackWord)):
            roots = (roots,)
        nodes = {}
        order = []
        frontier = list(roots)
        while frontier:
            t = frontier.pop(0)
            if t in nodes:
                continue
            if len(nodes) >= budget:
                return Exceeded(len(nodes), len(frontier) + 1)
            succ = self.step(t)
            nodes[t] = succ
            order.append(t)
            for _l, nxt in succ:
                if nxt not in nodes:
                    frontier.append(nxt)
        return FiniteLts(tuple(roots), nodes, tuple(order))


@dataclass(frozen=True)
class Exceeded:
    """Budget exhaustion report from :meth:`PdaSystem.reachable_lts`."""

    explored: int
    frontier: int


class FiniteLts:
    """An explicit finite labelled graph over normalized terms."""

    def __init__(self, roots, edges, order):
        self.roots = roots
        self.edges = edges  # term -> tuple of (label, term)
        self.order = order  # insertion order, deterministic

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, term) -> bool:
        return term in self.edges

    def successors(self, term):
        return self.edges[term]

    def format(self) -> str:
        lines = [f"nodes {len(self.edges)}"]
        for t in self.order:
            for label, nxt in self.edges[t]:
                lines.append(f"{format_term(t)} --{label}--> {format_term(nxt)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# silent closures
# ---------------------------------------------------------------------------


def silent_closure(system: PdaSystem, term: Process, budget: int = 2000):
    """Terms reachable by silent steps, with shortest-path parents.

    Returns ``(reached, parents, complete)``; ``parents[t]`` is ``None`` for
    the root and ``(prev, t)`` otherwise.  ``complete`` is False when the
    node budget was exhausted (possible only for silent-divergent systems).
    """
    reached = [term]
    parents = {term: None}
    i = 0
    complete = True
    while i < len(reached):
        t = reached[i]
        i += 1
        for _l, nxt in system.silent_steps(t):
            if nxt not in parents:
                if len(parents) >= budget:
                    complete = False
                    continue
                parents[nxt] = (t, nxt)
                reached.append(nxt)
    return reached, parents, complete


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def parse_system(text: str) -> PdaSystem:
    """Parse the one-declaration-per-line system format."""
    states: list = []
    symbols: list = []
    actions: list = []
    flavor = set()
    rules = []
    rec_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "states":
            states.extend(parts[1:])
        elif kind == "symbols":
            symbols.extend(parts[1:])
        elif kind == "actions":
            actions.extend(parts[1:])
        elif kind == "flavor":
            for f in parts[1:]:
                key = f.replace("-", "_")
                if key not in FLAVORS:
                    raise ParseError(f"unknown flavor {f}", lineno)
                flavor.add(key)
        elif kind == "rule":
            if "->" not in parts:
                raise ParseError("rule needs '->'", lineno)
            arrow = parts.index("->")
            lhs, rhs = parts[1:arrow], parts[arrow + 1 :]
            if len(lhs) != 3:
                raise ParseError("rule head needs 'state symbol label'", lineno)
            if not rhs:
                raise ParseError("rule needs a target state", lineno)
            rules.append(TransitionRule(lhs[0], lhs[1], lhs[2], rhs[0], tuple(rhs[1:])))
        elif kind == "rec":
            rec_lines.append((lineno, line))
        else:
            raise ParseError(f"unknown declaration {kind}", lineno)
    system = PdaSystem(states, symbols, actions, rules, flavor=flavor)
    if rec_lines:
        defs = []
        for lineno, line in rec_lines:
            defs.append(_parse_rec_def(line, lineno, system))
        system = PdaSystem(states, symbols, actions, rules, rec_defs=defs, flavor=flavor)
    return system


def format_system(system: PdaSystem) -> str:
    lines = [
        "states " + " ".join(system.states),
        "symbols " + " ".join(system.symbols),
        "actions " + " ".join(system.actions),
    ]
    if system.flavor:
        lines.append("flavor " + " ".join(sorted(f.replace("_", "-") for f in system.flavor)))
    for r in system.rules:
        lines.append(r.format())
    for d in system.rec_defs.values():
        body = ", ".join(format_term(b) for b in d.body)
        lines.append(f"rec {d.name}[{d.arity}] = ({body}) {d.name}")
    return "\n".join(lines) + "\n"


# -- term parsing ------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str, line: int = 0):
        self.toks = []
        self.line = line
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif c in "(),[]=":
                self.toks.append(c)
                i += 1
            else:
                j = i
                while j < len(text) and not text[j].isspace() and text[j] not in "(),[]=":
                    j += 1
                self.toks.append(text[i:j])
                i = j
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of term", self.line)
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.line)


def parse_term(text: str, system: PdaSystem) -> Process:
    """Parse a process over the system's registries; normalizes eagerly."""
    toks = _Tokens(text)
    term = _parse_process(toks, system)
    if toks.peek() is not None:
        raise ParseError(f"trailing input {toks.peek()!r}")
    return term


def _parse_process(toks: _Tokens, system: PdaSystem) -> Process:
    tok = toks.next()
    if tok == "0":
        return NIL
    if tok.isdigit():
        return Selection(_positive(tok, "index", toks.line))
    if tok in system.rec_defs:
        if toks.peek() == "(":
            toks.next()
            idx = _positive(toks.next(), "index", toks.line)
            toks.expect(")")
            return select(idx, RecConst(system.rec_defs[tok]))
        raise ParseError(f"recursive constant {tok} used as a process", toks.line)
    if tok not in system.states:
        raise ParseError(f"unknown state {tok!r}", toks.line)
    state = tok
    word = []
    while toks.peek() is not None and toks.peek() in system.symbols:
        word.append(toks.next())
    if not word:
        raise ParseError(f"state {state} needs at least one stack symbol", toks.line)
    if toks.peek() is not None and (toks.peek() == "(" or toks.peek() in system.rec_defs):
        cont = _parse_constant(toks, system)
    else:
        cont = standard_cont(system.q_count)
    if len(word) == 1:
        return Seq(state, word[0], cont)
    return stack_word(system.states, state, tuple(word), cont)


def _positive(tok: str, what: str, line: int) -> int:
    """A positive decimal numeral in ASCII digits."""
    if not (tok.isascii() and tok.isdigit()) or int(tok) < 1:
        raise ParseError(f"expected a positive {what}, got {tok!r}", line)
    return int(tok)


def _parse_constant(toks: _Tokens, system: PdaSystem) -> Constant:
    tok = toks.peek()
    if tok == "(":
        toks.next()
        entries = []
        if toks.peek() == ")":
            toks.next()
            return Tup(())
        entries.append(_parse_process(toks, system))
        while toks.peek() == ",":
            toks.next()
            entries.append(_parse_process(toks, system))
        toks.expect(")")
        return Tup(tuple(entries))
    name = toks.next()
    if name in system.rec_defs:
        return RecConst(system.rec_defs[name])
    raise ParseError(f"unknown constant {name!r}", toks.line)


def _parse_rec_def(line: str, lineno: int, system: PdaSystem) -> RecConstDef:
    # rec V[3] = (T1, T2, T3) V
    toks = _Tokens(line, lineno)
    toks.expect("rec")
    name = toks.next()
    toks.expect("[")
    arity = _positive(toks.next(), "arity", lineno)
    toks.expect("]")
    toks.expect("=")
    toks.expect("(")
    entries = [_parse_process(toks, system)]
    while toks.peek() == ",":
        toks.next()
        entries.append(_parse_process(toks, system))
    toks.expect(")")
    tail = toks.next()
    if tail != name:
        raise ParseError(f"definition of {name} must end with {name}", lineno)
    if len(entries) != arity:
        raise ParseError(f"{name} declares arity {arity} but has {len(entries)} entries", lineno)
    defn = RecConstDef(name, tuple(entries))
    bad = validate_rec_const(defn)
    if bad:
        raise ParseError(f"invalid recursive constant {name}: {'; '.join(bad)}", lineno)
    return defn
