"""Branching bisimilarity checkers.

Two independent decision paths are provided on purpose: an exact
signature-refinement partition on closed finite fragments, and the
stratified bounded relation (depth-indexed), computed by one memoized
recursive checker with optional silent caps.  Agreement between the paths
is part of the test surface.  A pair-refinement stratification of a closed
fragment is kept as the tests' reference for the checker.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass

from .system import EPSILON, Exceeded, FiniteLts, PdaSystem, SystemError
from .terms import (
    EMPTY_TUP,
    Process,
    Selection,
    StackWord,
    format_term,
    stack_word,
)

INF = math.inf
CLOSURE_BUDGET = 4096  # silent-closure nodes per answer search, checker and game alike


class ClosureBudgetExhausted(Exception):
    """An answer search hit ``CLOSURE_BUDGET`` with closure nodes left
    unexplored, so a missing answer would rest on the cut, not the system."""

    def __init__(self):
        super().__init__(f"closure budget {CLOSURE_BUDGET} exhausted")


def cut_reason(exc: ClosureBudgetExhausted | RecursionError) -> str:
    """Why a budgeted search stopped, as an ``unknown (...)`` line names it."""
    if isinstance(exc, RecursionError):
        return f"search exceeded the Python recursion limit {sys.getrecursionlimit()}"
    return str(exc)


def _selection_compatible(left: Process, right: Process) -> bool:
    """Clause: left is the selection j exactly when right is."""
    if isinstance(left, Selection) or isinstance(right, Selection):
        return left == right
    return True


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of an equivalence check.

    kind is "equivalent", "inequivalent" or "unknown".  Equivalent verdicts
    carry the block partition of the explored fragment as the witness;
    inequivalent verdicts carry the least failing depth and an attacker
    script (the game solver's play on a ``BoundedChecker``).  When the
    closure budget or the recursion limit cuts the depth search, one
    ``unknown (...)`` line stands in for both; when it cuts only the play,
    for the script.
    """

    kind: str
    partition: dict | None = None
    depth: int | None = None
    script: tuple = ()
    spent: int = 0

    def related(self, left: Process, right: Process):
        if self.partition is None:
            return None
        if left not in self.partition or right not in self.partition:
            return None
        return self.partition[left] == self.partition[right]

    def format(self) -> str:
        lines = [f"verdict {self.kind}"]
        if self.kind == "inequivalent" and self.depth is not None:
            lines.append(f"failing-depth {self.depth}")
        if self.kind == "equivalent" and self.partition is not None:
            lines.append(f"witness-nodes {len(self.partition)}")
        for move in self.script:
            lines.append(move)
        lines.append(f"explored {self.spent}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# exact checking on finite fragments (signature refinement)
# ---------------------------------------------------------------------------


def branching_partition(lts: FiniteLts) -> dict:
    """Largest branching bisimulation on a finite graph, as a block map.

    Signature refinement: blocks start from selection status and split by
    the set of observable (label, target-block) moves reachable through
    inert silent steps inside the current block.
    """
    block = {}
    for t in lts.order:
        block[t] = ("sel", t.index) if isinstance(t, Selection) else 0

    def signature(t):
        sig = set()
        seen = {t}
        stack = [t]
        while stack:
            u = stack.pop()
            for label, v in lts.successors(u):
                if label == EPSILON and block[v] == block[t]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
                else:
                    sig.add((label, block[v]))
        return frozenset(sig)

    n_blocks = len(set(block.values()))
    while True:
        fresh = {}
        ids = {}
        for t in lts.order:
            key = (block[t], signature(t))
            if key not in ids:
                ids[key] = len(ids)
            fresh[t] = ids[key]
        if len(ids) == n_blocks:
            return block
        block = fresh
        n_blocks = len(ids)


# ---------------------------------------------------------------------------
# stratified bounded relation on a closed fragment
# ---------------------------------------------------------------------------


class FragmentStratification:
    """The decreasing sequence of depth-indexed relations on a finite graph.

    Level 0 is selection compatibility; level k+1 keeps a pair when every
    move of either side is answered through a silent chain whose
    intermediate nodes relate to the stationary side and whose endpoint
    move lands in a related pair, all at level k.  The sequence stabilizes
    at the largest branching bisimulation.

    No command builds it, since it refines every pair of the fragment at
    every level: it is the reference the agreement tests compare
    ``BoundedChecker`` against.  It stays in this module because the
    benchmark tracer hooks its constructor.
    """

    def __init__(self, lts: FiniteLts):
        self.lts = lts
        nodes = lts.order
        level = {
            (p, q) for p in nodes for q in nodes if _selection_compatible(p, q)
        }
        self.levels = [frozenset(level)]
        while True:
            nxt = self._refine(self.levels[-1])
            if nxt == self.levels[-1]:
                break
            self.levels.append(nxt)

    @property
    def stable_depth(self) -> int:
        return len(self.levels) - 1

    def rel(self, left, right, depth: int) -> bool:
        k = min(depth, self.stable_depth)
        return (left, right) in self.levels[k]

    def _answers(self, rel, stay, label, moved, other) -> bool:
        if label == EPSILON and (moved, other) in rel:
            return True
        seen = {other}
        stack = [other]
        while stack:
            u = stack.pop()
            for lab, v in self.lts.successors(u):
                if lab == label and (moved, v) in rel:
                    return True
                if lab == EPSILON and v not in seen and (stay, v) in rel:
                    seen.add(v)
                    stack.append(v)
        return False

    def _refine(self, rel):
        out = set()
        for p, q in rel:
            if all(
                self._answers(rel, p, lab, pp, q) for lab, pp in self.lts.successors(p)
            ) and all(
                self._answers(rel, q, lab, qq, p) for lab, qq in self.lts.successors(q)
            ):
                out.add((p, q))
        return frozenset(out)


# ---------------------------------------------------------------------------
# recursive bounded checker (works without a closed fragment)
# ---------------------------------------------------------------------------


class BoundedChecker:
    """Memoized depth-k checker over the raw transition semantics.

    ``silent_cap`` N bounds an answer chain to at most N steps, counting the
    answering step (so at most N - 1 silent steps before it), exactly as
    ``game.legal_defender_responses`` does.  It is required on systems with
    silent head cycles (where silent closures may be infinite) and the
    verdict is then relative to the cap.  The memo holds, per pair, the
    deepest depth proven and the shallowest refuted, so one checker serves
    a whole depth schedule.

    ``canon``, when given, is an idempotent quotient map that identifies
    only strongly bisimilar terms (e.g. dropping stack content below a
    symbol no rule ever removes).  :meth:`rel` applies it once to its
    arguments and :meth:`_step` to every successor, so the search itself
    sees only canonical terms.  With ``horizon`` this needs ``canon`` to
    fix every horizon cut of a canonical term; the first use of each cut
    checks that and raises :class:`SystemError` if it fails.
    """

    def __init__(self, system: PdaSystem, silent_cap=None, canon=None, horizon: bool = False):
        if system.has_silent_head_cycles and silent_cap is None:
            raise SystemError(
                "system has silent head cycles; bounded checking needs an explicit silent cap"
            )
        self.system = system
        self.silent_cap = silent_cap
        self.canon = canon
        # depth-horizon truncation is sound only when silent rules never
        # shorten the stack: then a round exposes at most one deeper symbol
        self.horizon = horizon
        if horizon and "eps_pushing" not in system.recompute_flavor():
            raise SystemError("horizon truncation needs non-popping silent rules")
        self._filler = system.symbols[0] if system.symbols else None
        # pair -> [deepest depth proven related, shallowest depth refuted];
        # the depth-k relations are nested, so one interval per pair suffices
        self._memo = {}
        self._steps = {}
        self._cuts = {}  # (term, depth) -> its horizon cut, for terms the cut shortens

    def _trunc(self, term, depth: int):
        if not (isinstance(term, StackWord) and len(term.word) > depth + 2):
            return term
        key = (term, depth)
        cut = self._cuts.get(key)
        if cut is None:
            word = term.word[: depth + 1] + (self._filler,)
            cut = stack_word(self.system.states, term.state, word, EMPTY_TUP)
            # the search skips canon on cuts, which is sound only if canon fixes them
            if self.canon is not None and self.canon(cut) != cut:
                raise SystemError("canon map moves a horizon cut; truncation is unsound")
            self._cuts[key] = cut
        return cut

    def _step(self, term):
        succ = self._steps.get(term)
        if succ is None:
            succ = self.system.step(term)
            if self.canon is not None:
                succ = tuple((lab, self.canon(t)) for lab, t in succ)
            self._steps[term] = succ
        return succ

    def rel(self, left: Process, right: Process, depth: int) -> bool:
        if self.canon is not None:
            left = self.canon(left)
            right = self.canon(right)
        return self._rel(left, right, depth)

    def _rel(self, left: Process, right: Process, depth: int) -> bool:
        if self.horizon:
            left = self._trunc(left, depth)
            right = self._trunc(right, depth)
        if not _selection_compatible(left, right):
            return False
        if depth <= 0 or left == right:
            return True
        entry = self._memo.get((left, right))
        if entry is not None:
            if depth <= entry[0]:
                return True
            if depth >= entry[1]:
                return False
        ok = all(
            self._answers(left, lab, moved, right, depth)
            for lab, moved in self._step(left)
        ) and all(
            self._answers(right, lab, moved, left, depth)
            for lab, moved in self._step(right)
        )
        if entry is None:
            entry = [0, INF]
            self._memo[(left, right)] = entry
            self._memo[(right, left)] = entry
        if ok:
            entry[0] = max(entry[0], depth)
        else:
            entry[1] = min(entry[1], depth)
        return ok

    def _answers(self, stay, label, moved, other, depth) -> bool:
        if label == EPSILON and self._rel(moved, other, depth - 1):
            return True
        seen = {other}
        frontier = [(other, 0)]
        cut = False
        while frontier:
            u, d = frontier.pop()
            for lab, v in self._step(u):
                if lab == label and self._rel(moved, v, depth - 1):
                    return True
                if (
                    lab == EPSILON
                    and v not in seen
                    and (self.silent_cap is None or d + 1 < self.silent_cap)
                ):
                    if len(seen) >= CLOSURE_BUDGET:
                        cut = True
                    elif self._rel(stay, v, depth - 1):
                        seen.add(v)
                        frontier.append((v, d + 1))
        if cut:
            raise ClosureBudgetExhausted
        return False


# ---------------------------------------------------------------------------
# public checkers
# ---------------------------------------------------------------------------


def joint_fragment(system: PdaSystem, left: Process, right: Process, budget: int = 500):
    out = system.reachable_lts((left, right), budget=budget)
    if isinstance(out, Exceeded):
        return None
    return out


def exact_equivalent(left: Process, right: Process, system: PdaSystem, budget: int = 500):
    """The exact judgement alone: True, False, or None when the joint
    fragment does not close within budget.  Builds only the partition."""
    lts = joint_fragment(system, left, right, budget)
    if lts is None:
        return None
    partition = branching_partition(lts)
    return partition[left] == partition[right]


def check_finite_exact(
    left: Process, right: Process, system: PdaSystem, budget: int = 500
) -> Verdict:
    """Exact verdict when both reachable fragments close within budget."""
    lts = joint_fragment(system, left, right, budget)
    if lts is None:
        return Verdict("unknown", spent=budget)
    partition = branching_partition(lts)
    if partition[left] == partition[right]:
        return Verdict("equivalent", partition=partition, spent=len(lts))
    # a silent path inside a closed fragment of n nodes has at most n - 1
    # steps, so this cap never binds; it admits silent head cycles
    checker = BoundedChecker(system, silent_cap=len(lts))
    depth = None
    try:
        depth = least_failing(checker.rel, left, right, itertools.count())
        script = extract_attacker_script(checker, left, right, depth)
    except (ClosureBudgetExhausted, RecursionError) as exc:
        script = (f"unknown ({cut_reason(exc)})",)  # the verdict stands; its evidence is cut
    return Verdict("inequivalent", depth=depth, script=script, spent=len(lts))


def least_failing(related, left: Process, right: Process, depths):
    """First of the increasing ``depths`` at which ``related(left, right,
    depth)`` fails, or None; the one iterative-deepening loop."""
    for depth in depths:
        if not related(left, right, depth):
            return depth
    return None


def check_bounded(
    left: Process, right: Process, system: PdaSystem, depth: int, silent_cap=None
) -> bool:
    """Whether the pair is related at the given stratification depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return BoundedChecker(system, silent_cap=silent_cap).rel(left, right, depth)


# ---------------------------------------------------------------------------
# attacker scripts (the solver's play)
# ---------------------------------------------------------------------------


def extract_attacker_script(
    checker: BoundedChecker, left: Process, right: Process, depth: int
) -> tuple:
    """The solver's play from the pair at its least failing depth, as the
    move and outcome lines of a ``game --script`` file."""
    from .game import GameConfig, solver_play

    trace = solver_play(checker, GameConfig(left, right), depth).trace
    return tuple(line for line in trace if not line.startswith("config "))


# ---------------------------------------------------------------------------
# oracles and silent-step classification
# ---------------------------------------------------------------------------


class ExactOracle:
    """Judge handle backed by exact_equivalent; caches per pair."""

    def __init__(self, system: PdaSystem, budget: int = 500):
        self.system = system
        self.budget = budget
        self.name = f"exact(budget={budget})"
        self._cache = {}

    def judge(self, left: Process, right: Process):
        key = (left, right)
        if key not in self._cache:
            self._cache[key] = exact_equivalent(left, right, self.system, self.budget)
        return self._cache[key]


@dataclass(frozen=True)
class StepClass:
    """Classification of one silent step, tagged with the oracle used."""

    preserving: bool | None  # None means unclassified
    oracle_name: str


def classify_silent(parent: Process, child: Process, oracle) -> StepClass:
    """Preserving iff the oracle judges the endpoints equivalent."""
    steps = {t for lab, t in oracle.system.step(parent) if lab == EPSILON}
    if child not in steps:
        raise ValueError("(parent, child) is not a one-step silent transition")
    return StepClass(oracle.judge(parent, child), oracle.name)


# ---------------------------------------------------------------------------
# the norm
# ---------------------------------------------------------------------------


@dataclass
class Norm:
    """Table from selection index to least count of norm-relevant steps."""

    values: dict
    complete: bool


def norm(term: Process, system: PdaSystem, oracle, budget: int = 2000) -> Norm:
    """Least costs to each reachable selection index.

    Preserving silent steps cost 0, every other step costs 1 (weighted
    search).  Unclassifiable silent steps are skipped and the table is
    flagged incomplete.
    """
    complete = True
    dist = {term: 0}
    counter = itertools.count()
    heap = [(0, next(counter), term)]
    values = {}
    popped = 0
    while heap:
        d, _, t = heapq.heappop(heap)
        if d > dist.get(t, INF):
            continue
        popped += 1
        if popped > budget:
            complete = False
            break
        if isinstance(t, Selection):
            values.setdefault(t.index, d)
            continue
        for lab, u in system.step(t):
            if lab == EPSILON:
                verdict = oracle.judge(t, u)
                if verdict is None:
                    complete = False
                    continue
                w = 0 if verdict else 1
            else:
                w = 1
            if d + w < dist.get(u, INF):
                dist[u] = d + w
                heapq.heappush(heap, (d + w, next(counter), u))
    return Norm(values, complete)


# ---------------------------------------------------------------------------
# preserving-chain length audit
# ---------------------------------------------------------------------------


@dataclass
class ChainBoundReport:
    bound: int
    max_observed: int
    violations: list
    advisory: bool  # True when some steps were unclassifiable

    @property
    def ok(self):
        return not self.violations


def check_chain_bound(system: PdaSystem, roots, oracle, node_budget: int = 5000) -> ChainBoundReport:
    """Audit preserving silent chains against the q*n*r*(m+1)^q length bound."""
    flags = system.recompute_flavor()
    if "eps_pushing" not in flags:
        raise SystemError("chain-bound audit applies to silent-pushing systems")
    consts = system.constants()
    if consts.m_bound is INF:
        raise SystemError("chain-bound audit needs a normed system (finite m)")
    bound = (
        consts.q_count
        * consts.n_count
        * consts.r_max
        * (int(consts.m_bound) + 1) ** consts.q_count
    )
    max_observed = 0
    violations = []
    advisory = False
    spent = 0

    def extend(t, length, path):
        nonlocal max_observed, advisory, spent
        max_observed = max(max_observed, length)
        if length >= bound:
            violations.append([format_term(x) for x in path])
            return
        spent += 1
        if spent > node_budget:
            advisory = True
            return
        for lab, u in system.silent_steps(t):
            verdict = oracle.judge(t, u)
            if verdict is None:
                advisory = True
                continue
            if verdict:
                extend(u, length + 1, path + [u])

    for root in roots:
        extend(root, 0, [root])
    return ChainBoundReport(bound, max_observed, violations, advisory)
