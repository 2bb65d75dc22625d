"""Tableau proof system for branching bisimilarity of pushdown terms.

Goals of bounded height close by Match, whose children are the equalities
answering every transition of either side.  Taller goals of the
silent-popping flavor first go through a subtableau of Rdcp/Ldcp/Cancel
applications; its pending leaves are closed by Match in turn.  No other
flavor has a subtableau construction: a silent-pushing search closes by
Match alone and stops with UnsupportedFlavor when a goal is too tall.
Repetitions close through potentially-successful back edges.  Side
conditions that depend on the undecidable equivalence are discharged by an
oracle and recorded as evidence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .equivalence import _selection_compatible
from .system import EPSILON, PdaSystem
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
    cut_constant,
    expand_stack_word,
    format_term,
    is_simple,
    ln,
    select,
    subterms,
    term_height,
    term_key,
    term_size,
    validate_rec_const,
)

INF = float("inf")


@dataclass(frozen=True)
class Goal:
    left: Process
    right: Process

    def format(self) -> str:
        return f"{format_term(self.left)} = {format_term(self.right)}"

    @property
    def trivial(self) -> bool:
        return self.left == self.right


@dataclass
class TableauNode:
    goal: Goal
    rule: str | None = None  # Rdcp, Ldcp, Cancel, Match or Brute; None on a leaf
    children: list = field(default_factory=list)
    leaf_status: str | None = None  # successful | potential (back edge) | pending
    evidence: tuple = ()
    back_edge: Goal | None = None

    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


class SideConditionError(ValueError):
    """A tableau rule's side condition failed; carries the condition name."""


# ---------------------------------------------------------------------------
# suffix stripping (syntactic inverse of composition)
# ---------------------------------------------------------------------------


def strip_suffix(term, const: Constant):
    """A simple term S with compose(S, const) == term, or None.

    Selection bases are preferred over structural descent (smallest index
    first) to make the result deterministic.
    """
    if isinstance(term, Nil):
        return NIL
    arity = const.arity
    # selection base cases
    for k in range(1, arity + 1):
        if select(k, const) == term:
            return Selection(k)
    if isinstance(term, Selection) and term.index > arity:
        return term
    if isinstance(term, StackWord):
        term = expand_stack_word(term)
    if isinstance(term, Seq):
        inner = _strip_const(term.cont, const)
        if inner is None:
            return None
        return Seq(term.state, term.symbol, inner)
    return None


def _strip_const(c, const):
    if c == const:
        return None  # a bare occurrence cannot be expressed by a tuple prefix
    if not isinstance(c, Tup):
        return None
    out = []
    for e in c.entries:
        s = strip_suffix(e, const)
        if s is None:
            return None
        out.append(s)
    return Tup(tuple(out))


# ---------------------------------------------------------------------------
# preserving-silent closures
# ---------------------------------------------------------------------------


def preserving_closure(system: PdaSystem, term: Process, oracle, budget: int = 512):
    """Terms reachable by oracle-certified preserving silent steps.

    Returns (closure list in BFS order, complete flag, certificates), where
    certificates are the (source, target) silent steps used.
    """
    seen = {term}
    order = [term]
    certs = []
    complete = True
    i = 0
    while i < len(order):
        t = order[i]
        i += 1
        for lab, u in system.silent_steps(t):
            verdict = oracle.judge(t, u)
            if verdict is None:
                complete = False
                continue
            if verdict and u not in seen:
                if len(seen) >= budget:
                    complete = False
                    continue
                seen.add(u)
                order.append(u)
                certs.append((t, u))
    return order, complete, certs


# ---------------------------------------------------------------------------
# match computation
# ---------------------------------------------------------------------------


def compute_match(
    goal: Goal,
    system: PdaSystem,
    oracle=None,
    silent_cap=None,
    closure_budget: int = 1024,
):
    """The match set for a goal, or None ("no match").

    Every transition of either side is paired with one chosen response; an
    oracle, when supplied, prefers responses whose generated equalities it
    certifies.  A goal whose sides break the selection clause (one side is
    a selection and the other is not the same one) has no match.  Raises
    SideConditionError("no match within cap") when the chain budget runs out
    before any response is found.
    """
    if not _selection_compatible(goal.left, goal.right):
        return None
    if silent_cap is None and system.has_silent_head_cycles:
        silent_cap = system.nq
    pairs = set()
    for stay, other, flip in ((goal.left, goal.right, False), (goal.right, goal.left, True)):
        for label, moved in system.step(stay):
            response = _choose_response(
                system, stay, label, moved, other, oracle, silent_cap, closure_budget
            )
            if response is None:
                return None
            for a, b in response:
                pairs.add(Goal(b, a) if flip else Goal(a, b))
    return pairs


def _choose_response(system, stay, label, moved, other, oracle, silent_cap, closure_budget):
    """The equalities contributed by one answered transition, or None."""
    candidates = []
    if label == EPSILON:
        candidates.append((((moved, other),), 0))
    paths = {other: ()}
    queue = [other]
    truncated = False
    while queue:
        u = queue.pop(0)
        path = paths[u]
        for lab, v in system.step(u):
            if lab == label:
                pairs = tuple((stay, w) for w in path) + ((moved, v),)
                candidates.append((pairs, len(path) + 1))
            if lab == EPSILON and v not in paths:
                if (silent_cap is not None and len(path) + 1 > silent_cap) or len(
                    paths
                ) >= closure_budget:
                    truncated = True
                    continue
                paths[v] = path + (v,)
                queue.append(v)
    if not candidates:
        if truncated:
            raise SideConditionError("no match within cap")
        return None
    def key(c):
        pairs, rank = c
        return (rank, tuple(term_key(a) + "|" + term_key(b) for a, b in pairs))
    if oracle is not None:
        certified = [
            c for c in candidates if all(oracle.judge(a, b) for a, b in c[0])
        ]
        if certified:
            return min(certified, key=key)[0]
    return min(candidates, key=key)[0]


# ---------------------------------------------------------------------------
# normality
# ---------------------------------------------------------------------------


def is_normal(term: Process, cont: Constant, system: PdaSystem, oracle, budget: int = 512):
    """Whether the simple term is normal relative to the continuation.

    Returns (verdict, evidence) with verdict True, False, or None when some
    silent step could not be classified.
    """
    if not is_simple(term):
        raise ValueError("normality is defined for simple terms")
    if isinstance(term, (Nil, Selection)):
        return True, (f"atomic {format_term(term)}",)
    if isinstance(term, StackWord):
        term = expand_stack_word(term)
    evidence = []
    whole = compose(term, cont)
    closure, complete, _ = preserving_closure(system, whole, oracle, budget)
    entries = term.cont.entries if isinstance(term.cont, Tup) else ()
    undetermined = not complete
    for i, entry in enumerate(entries, start=1):
        target = compose(entry, cont)
        if target in closure and target != whole:
            evidence.append(f"preserving path reaches entry {i}")
            return False, tuple(evidence)
        sub, sub_ev = is_normal(entry, cont, system, oracle, budget)
        if sub is False:
            return False, sub_ev
        if sub is None:
            undetermined = True
    evidence.append(f"oracle {oracle.name}")
    if undetermined:
        return None, tuple(evidence)
    return True, tuple(evidence)


def constant_is_normal(const: Tup, cont: Constant, system, oracle, budget: int = 512):
    verdicts = [is_normal(e, cont, system, oracle, budget) for e in const.entries]
    if any(v[0] is False for v in verdicts):
        return False
    if any(v[0] is None for v in verdicts):
        return None
    return True


# ---------------------------------------------------------------------------
# normal unfolding of recursive constants
# ---------------------------------------------------------------------------


def normal_unfolding(defn: RecConstDef, system: PdaSystem, oracle, budget: int = 512) -> Tup:
    """The simple constant whose composition with the constant unfolds it.

    Entries on circular silent chains become their own index (behaviorally
    nil under the recursive equality); the rest are normalized pops of the
    bodies.
    """
    V = RecConst(defn)
    n = defn.arity
    reach = {}
    nodes = {}
    for j in range(1, n + 1):
        nodes[j] = compose(defn.body[j - 1], V)
    for j in range(1, n + 1):
        closure, _, _ = preserving_closure(system, nodes[j], oracle, budget)
        closure = set(closure)
        reach[j] = {
            k
            for k in range(1, n + 1)
            if k != j and (nodes[k] in closure or RecSel(defn, k) in closure or (defn.body[k-1] == Selection(k) and NIL in closure))
        }
    # strongly circular indices become nil entries
    circular = set()
    for j in range(1, n + 1):
        for k in reach[j]:
            if j in reach[k] or j == k:
                circular.add(j)
                circular.add(k)
    out = []
    for j in range(1, n + 1):
        if j in circular or defn.body[j - 1] == Selection(j):
            out.append(Selection(j))
            continue
        rep = _normal_pop(system, nodes[j], oracle, budget)
        stripped = strip_suffix(rep, V) if rep is not None else None
        if stripped is None or stripped == NIL:
            out.append(Selection(j))
        else:
            out.append(stripped)
    return Tup(tuple(out))


def _normal_pop(system, term, oracle, budget):
    """A preserving-silent-irreducible representative of the term."""
    closure, _, _ = preserving_closure(system, term, oracle, budget)
    for t in closure:  # BFS order: prefer the earliest irreducible
        if not any(oracle.judge(t, u) for lab, u in system.silent_steps(t)):
            return t
    return None


# ---------------------------------------------------------------------------
# right decomposition
# ---------------------------------------------------------------------------


@dataclass
class RightDecomposition:
    prefix: Tup  # the q-ary simple constant kept above the cut
    residual: Constant
    aux: tuple  # silent-step certificate goals
    evidence: tuple


def decompose_right(goal: Goal, system: PdaSystem, oracle, depth_budget: int = 6):
    """Split the right side's continuation into a normal prefix of bounded
    height and a residual suffix, with silent-pop certificates.

    Returns a RightDecomposition, or None when the oracle cannot certify a
    needed classification.
    """
    right = goal.right
    if isinstance(right, StackWord):
        right = expand_stack_word(right)
    if not isinstance(right, Seq):
        raise SideConditionError("right side must be a sequential head")
    m = system.constants().m_bound
    if m is INF:
        raise SideConditionError("decomposition needs a finite pop bound")
    m = int(m)
    certs = []

    def normalize_entry(t, depth):
        if depth > depth_budget:
            return None
        if isinstance(t, (Nil, Selection)):
            return t
        if isinstance(t, RecSel):
            unf = normal_unfolding(t.defn, system, oracle)
            t = compose(select(t.index, unf), RecConst(t.defn))
            if isinstance(t, (Nil, Selection, RecSel)):
                return t if not isinstance(t, RecSel) else None
        closure, complete, cc = preserving_closure(system, t, oracle)
        certs.extend(cc)
        if not complete:
            return None
        if NIL in closure:
            return NIL
        sels = sorted(u.index for u in closure if isinstance(u, Selection))
        if sels:
            return Selection(sels[0])
        rep = _normal_pop(system, t, oracle, 512)
        if rep is None:
            return None
        if isinstance(rep, StackWord):
            rep = expand_stack_word(rep)
        if not isinstance(rep, Seq):
            return rep
        if not isinstance(rep.cont, Tup):
            return None
        inner = []
        for e in rep.cont.entries:
            v = normalize_entry(e, depth + 1)
            if v is None:
                return None
            inner.append(v)
        return Seq(rep.state, rep.symbol, Tup(tuple(inner)))

    cont = right.cont
    if isinstance(cont, RecConst):
        unf = normal_unfolding(cont.defn, system, oracle)
        cont = compose(unf, cont)
    if not isinstance(cont, Tup):
        raise SideConditionError("continuation did not reduce to a tuple")
    q = system.q_count
    width = max(q, cont.arity)
    entries = []
    for i in range(1, width + 1):
        v = normalize_entry(select(i, cont), 0)
        if v is None:
            return None
        entries.append(v)
    full = Tup(tuple(entries))
    prefix, residual = cut_constant(full, m)
    aux = tuple(
        Goal(src, dst) for src, dst in dict.fromkeys(certs)
    )
    normal = constant_is_normal(prefix, residual, system, oracle)
    if normal is False:
        raise SideConditionError("cut prefix is not normal in the residual")
    evidence = (
        f"oracle {oracle.name}",
        f"cut depth {m}",
        f"prefix normal: {normal}",
    )
    return RightDecomposition(prefix, residual, aux, evidence)


# ---------------------------------------------------------------------------
# left decomposition
# ---------------------------------------------------------------------------


@dataclass
class LeftDecomposition:
    prefix: Tup  # q-ary constant of mirror continuations
    subgoals: tuple  # per-index goals A(i) = G_i D
    evidence: tuple


def _min_jstep_path(system, start, targets, oracle, budget: int = 2000):
    """Least-j-step path (preserving silents free) from start to any target.

    Returns the edge list [(term, label, term'), ...] or None.
    """
    import heapq

    counter = itertools.count()
    dist = {start: 0}
    parent = {start: None}
    heap = [(0, next(counter), start)]
    popped = 0
    best = None
    while heap:
        d, _, t = heapq.heappop(heap)
        if d > dist.get(t, INF):
            continue
        popped += 1
        if popped > budget:
            break
        if t in targets:
            best = t
            break
        for lab, u in system.step(t):
            if lab == EPSILON:
                verdict = oracle.judge(t, u)
                if verdict is None:
                    continue
                w = 0 if verdict else 1
            else:
                w = 1
            if d + w < dist.get(u, INF):
                dist[u] = d + w
                parent[u] = (t, lab)
                heapq.heappush(heap, (d + w, next(counter), u))
    if best is None:
        return None
    edges = []
    cur = best
    while parent[cur] is not None:
        prev, lab = parent[cur]
        edges.append((prev, lab, cur))
        cur = prev
    edges.reverse()
    return edges


def decompose_left(goal: Goal, system: PdaSystem, residual: Constant, oracle):
    """Mirror the left head's emptying sequences on the right side.

    The goal's right side must be in decomposed form with the given
    residual as syntactic suffix.  Produces the per-index continuations and
    the corresponding subgoals.
    """
    left = goal.left
    if isinstance(left, StackWord):
        left = expand_stack_word(left)
    if not isinstance(left, Seq):
        raise SideConditionError("left side must be a sequential head")
    A = left.cont
    dist = system.pop_distances()
    m = system.constants().m_bound
    defs = sorted(
        system.state_index(t)
        for (p, x, t) in dist
        if p == left.state and x == left.symbol
    )
    entries = {}
    subgoals = []
    evidence = [f"oracle {oracle.name}"]
    for h in set(defs):
        target = select(h, A)
        path = _min_jstep_path(system, left, {target}, oracle)
        if path is None:
            raise SideConditionError(f"no emptying path to index {h}")
        # mirror the path on the right side
        R = goal.right
        ok = True
        for src, lab, dst in path:
            if lab == EPSILON and oracle.judge(src, dst):
                continue  # preserving: right side does nothing
            R2 = _mirror_step(system, R, lab, dst, oracle)
            if R2 is None:
                ok = False
                break
            R = R2
        if not ok:
            raise SideConditionError(f"right side cannot mirror emptying to index {h}")
        G = strip_suffix(R, residual)
        if G is None:
            raise SideConditionError("mirrored term lost the common suffix")
        entries[h] = G
        subgoals.append(Goal(target, compose(G, residual)))
    width = max(system.q_count, max(entries, default=0))
    prefix = Tup(tuple(entries.get(i, NIL) for i in range(1, width + 1)))
    if m is not INF:
        bound = system.r_max * int(m) + 1
        if max((term_size(e) for e in prefix.entries), default=0) > bound:
            evidence.append(f"size bound {bound} exceeded (advisory)")
    return LeftDecomposition(prefix, tuple(subgoals), tuple(evidence))


def _mirror_step(system, R, label, target, oracle):
    """Right side's answer to one j-step from its preserving closure: the
    first oracle-certified one, else the first one, else None."""
    closure, _, _ = preserving_closure(system, R, oracle)
    fallback = None
    for u in closure:
        for lab, v in system.step(u):
            if lab == label:
                if oracle.judge(target, v):
                    return v
                if fallback is None:
                    fallback = v
    return fallback


# ---------------------------------------------------------------------------
# fixpoint refinement
# ---------------------------------------------------------------------------


@dataclass
class FixpointCandidate:
    defn: RecConstDef
    history: tuple  # refinement step descriptions

    @property
    def body(self):
        return self.defn.body


def _make_def(body) -> RecConstDef:
    # Deterministic name from the body text keeps candidates interned.
    sig = ",".join(format_term(b) for b in body)
    return RecConstDef(f"V<{sig}>", tuple(body))


def refine_fixpoints(P: Process, Q: Process, n: int, oracle):
    """Candidate recursive constants making the two sides equivalent.

    Judges the identity constant only. Refining along a mismatch needs a
    term of the joint fragment that selects a captured index of the
    constant, and under the identity body `select` turns every such
    selection into nil, so no refinement step could ever start from it.
    Returns (candidates, complete_flag); the flag is False when the oracle
    leaves the identity candidate undecided.
    """
    if not (ln(P) <= set(range(1, n + 1)) >= ln(Q)):
        raise ValueError("dangling indices must lie within the arity")
    defn = _make_def(tuple(Selection(i) for i in range(1, n + 1)))
    if validate_rec_const(defn):
        return [], True
    V = RecConst(defn)
    verdict = oracle.judge(compose(P, V), compose(Q, V))
    if verdict is True:
        return [FixpointCandidate(defn, ("start identity",))], True
    return [], verdict is not None


# ---------------------------------------------------------------------------
# subtableau construction
# ---------------------------------------------------------------------------


class BudgetExceeded(Exception):
    pass


class UnsupportedFlavor(ValueError):
    """The search reached a subtableau its flavor has no construction for."""


def _as_seq(term):
    if isinstance(term, StackWord):
        return expand_stack_word(term)
    return term


def build_subtableau(goal: Goal, flavor: str, system: PdaSystem, oracle, budget: int = 200):
    """One silent-popping subtableau: Rdcp, then Ldcp, then Cancel.

    Leaves are marked successful or pending (pending leaves are where the
    enclosing tableau applies Match).  Budget exhaustion or a failed side
    condition falls back to a pending leaf, flagged in the node's evidence.
    Any other flavor raises UnsupportedFlavor.
    """
    if flavor != "eps-popping":
        raise UnsupportedFlavor(f"no subtableau construction for flavor {flavor}")
    state = {"nodes": 0}

    def bump():
        state["nodes"] += 1
        if state["nodes"] > budget:
            raise BudgetExceeded

    def provide(left_simple, right_simple, suffix):
        n = max(suffix.arity, max(ln(left_simple) | ln(right_simple) | {0}))
        if n == 0:
            return []
        cands, _ = refine_fixpoints(left_simple, right_simple, n, oracle)
        return [c.defn for c in cands]

    try:
        return _sub_pop(goal, system, oracle, bump, provide)
    except BudgetExceeded:
        return TableauNode(goal, leaf_status="pending", evidence=("budget exhausted",))


def _pending(goal, note):
    return TableauNode(goal, leaf_status="pending", evidence=(note,))


def _small_goal(goal, m):
    limit = (m if m is not INF else 2) + 2
    return term_height(goal.left) <= limit and term_height(goal.right) <= limit


def _cancel(goal, suffix, defn):
    """Cancel's child goals: entry i of the constant against entry i of the
    suffix, then both sides with the suffix replaced by the constant."""
    bad = validate_rec_const(defn)
    if bad:
        raise SideConditionError("; ".join(bad))
    ls = strip_suffix(goal.left, suffix)
    rs = strip_suffix(goal.right, suffix)
    if ls is None or rs is None:
        raise SideConditionError("goal sides do not share the suffix")
    V = RecConst(defn)
    children = [
        Goal(compose(defn.body[i - 1], suffix), select(i, suffix))
        for i in range(1, defn.arity + 1)
    ]
    children.append(Goal(compose(ls, V), compose(rs, V)))
    return children


def _sub_pop(goal, system, oracle, bump, provide):
    bump()
    m = system.constants().m_bound
    if goal.trivial:
        return TableauNode(goal, leaf_status="successful", evidence=("identical sides",))
    if not isinstance(_as_seq(goal.right), Seq) or not isinstance(_as_seq(goal.left), Seq):
        return _pending(goal, "non-sequential side")
    if _small_goal(goal, m):
        return _pending(goal, "small goal")
    try:
        dec = decompose_right(goal, system, oracle)
    except SideConditionError as exc:
        return _pending(goal, f"right decomposition failed: {exc}")
    if dec is None:
        return _pending(goal, "right decomposition undetermined")
    if term_height(dec.prefix) > m:
        return _pending(goal, "Rdcp: prefix exceeds the pop-bound height")
    right = _as_seq(goal.right)
    node = TableauNode(goal, rule="Rdcp", evidence=dec.evidence)
    for aux in dec.aux:
        bump()
        status = "successful" if oracle.judge(aux.left, aux.right) else "pending"
        node.children.append(
            TableauNode(aux, leaf_status=status, evidence=("silent-step certificate",))
        )
    kept = Seq(right.state, right.symbol, compose(dec.prefix, dec.residual))
    node.children.append(
        _sub_pop_step2(Goal(goal.left, kept), dec.residual, system, oracle, bump, provide)
    )
    return node


def _sub_pop_step2(goal, residual, system, oracle, bump, provide):
    bump()
    try:
        dec = decompose_left(goal, system, residual, oracle)
    except SideConditionError as exc:
        return _pending(goal, f"Ldcp: {exc}")
    m = system.constants().m_bound
    if m is not INF and term_size(dec.prefix) > (system.r_max * int(m) + 1) * system.q_count:
        return _pending(goal, "Ldcp: left prefix exceeds the size bound")
    left = _as_seq(goal.left)
    node = TableauNode(goal, rule="Ldcp", evidence=dec.evidence)
    for sub in dec.subgoals:
        if term_size(sub.left) < term_size(goal.left):
            node.children.append(_sub_pop(sub, system, oracle, bump, provide))
        else:
            node.children.append(_pending(sub, "no size decrease"))
    kept = Seq(left.state, left.symbol, compose(dec.prefix, residual))
    node.children.append(
        _sub_pop_step3(Goal(kept, goal.right), residual, system, oracle, bump, provide)
    )
    return node


def _sub_pop_step3(goal, suffix, system, oracle, bump, provide):
    bump()
    ls = strip_suffix(goal.left, suffix)
    rs = strip_suffix(goal.right, suffix)
    if ls is None or rs is None or suffix.arity == 0:
        return _pending(goal, "no common suffix for cancellation")
    defs = provide(ls, rs, suffix)
    if not defs:
        return _pending(goal, "no cancellation candidate")
    defn = defs[0]
    try:
        children = _cancel(goal, suffix, defn)
    except SideConditionError as exc:
        return _pending(goal, f"Cancel: {exc}")
    node = TableauNode(goal, rule="Cancel", evidence=(f"constant {defn.name}",))
    for i, sub in enumerate(children[:-1], start=1):
        node.children.append(
            _sub_pop_step4(sub, defn.body[i - 1], i, suffix, system, oracle, bump, provide, set())
        )
    leaf = children[-1]
    bump()
    node.children.append(_pending(leaf, "cancelled pair"))
    return node


def _sub_pop_step4(goal, L, i, D, system, oracle, bump, provide, seen_rhs):
    bump()
    m = system.constants().m_bound
    m_int = int(m) if m is not INF else 2
    if L == Selection(i) or goal.trivial:
        return TableauNode(goal, leaf_status="successful", evidence=("identity entry",))
    rhs = select(i, D)
    if rhs in seen_rhs:
        return TableauNode(goal, leaf_status="successful", evidence=("repetition",))
    if is_simple(rhs) and term_height(rhs) <= m_int:
        return _pending(goal, "small entry goal")
    if not is_simple(rhs):
        D = _unfold_recs(D, system, oracle)
        rhs = select(i, D)
        if not isinstance(D, Tup):
            return _pending(goal, "recursive suffix resists unfolding")
    if not isinstance(D, Tup):
        return _pending(goal, "suffix is not a tuple")
    top, rest = cut_constant(D, 1)
    d0, d1 = cut_constant(rest, m_int)
    inner = compose(top, d0)
    left_small = compose(L, inner)
    right_small = select(i, inner)
    defs = provide(strip_suffix(compose(L, compose(inner, d1)), d1) or left_small, right_small, d1)
    if not defs or d1.arity == 0:
        return _pending(goal, "no candidate for double-cut cancellation")
    defn = defs[0]
    try:
        children = _cancel(goal, d1, defn)
    except SideConditionError as exc:
        return _pending(goal, f"double-cut Cancel: {exc}")
    node = TableauNode(goal, rule="Cancel", evidence=(f"constant {defn.name}", "double cut"))
    for j, sub in enumerate(children[:-1], start=1):
        node.children.append(
            _sub_pop_step4(
                sub, defn.body[j - 1], j, d1, system, oracle, bump, provide, seen_rhs | {rhs}
            )
        )
    node.children.append(_pending(children[-1], "double-cut leaf"))
    return node


def _unfold_recs(const, system, oracle):
    """Replace each recursive tail in a tuple by one normal unfolding."""
    if isinstance(const, RecConst):
        unf = normal_unfolding(const.defn, system, oracle)
        return compose(unf, const)
    if not isinstance(const, Tup):
        return const
    def unfold_term(t):
        if isinstance(t, RecSel):
            unf = normal_unfolding(t.defn, system, oracle)
            return compose(select(t.index, unf), RecConst(t.defn))
        if isinstance(t, Seq):
            return Seq(t.state, t.symbol, _unfold_recs(t.cont, system, oracle))
        if isinstance(t, StackWord):
            return unfold_term(expand_stack_word(t))
        return t
    return Tup(tuple(unfold_term(e) for e in const.entries))


# ---------------------------------------------------------------------------
# match validity (used by verification)
# ---------------------------------------------------------------------------


def match_is_valid(goal: Goal, pairs, system: PdaSystem, silent_cap=None, closure_budget: int = 1024):
    """Whether a set of goals answers every transition of the goal's sides
    (never for a goal whose sides break the selection clause)."""
    if not _selection_compatible(goal.left, goal.right):
        return False
    if silent_cap is None and system.has_silent_head_cycles:
        silent_cap = system.nq
    have = {(g.left, g.right) for g in pairs}

    def answered(stay, label, moved, other, flip):
        def rel(a, b):
            return ((b, a) if flip else (a, b)) in have

        if label == EPSILON and rel(moved, other):
            return True
        seen = {other}
        queue = [(other, 0)]
        while queue:
            u, d = queue.pop()
            for lab, v in system.step(u):
                if lab == label and rel(moved, v):
                    return True
                if (
                    lab == EPSILON
                    and v not in seen
                    and (silent_cap is None or d + 1 <= silent_cap)
                    and len(seen) < closure_budget
                    and rel(stay, v)
                ):
                    seen.add(v)
                    queue.append((v, d + 1))
        return False

    for stay, other, flip in ((goal.left, goal.right, False), (goal.right, goal.left, True)):
        for label, moved in system.step(stay):
            if not answered(stay, label, moved, other, flip):
                return False
    return True


# ---------------------------------------------------------------------------
# tableau verification
# ---------------------------------------------------------------------------


def verify_tableau(root: TableauNode, system: PdaSystem, oracle):
    """Audit a finished tableau.

    Checks leaf statuses, back-edge well-formedness (identical ancestor
    goal with at least one Match strictly in between), Match-children
    validity, rule evidence presence, and the finite-recursive-constant
    condition.  Returns (successful: bool, report: list of lines).
    """
    report = []
    ok = True
    rec_defs = set()

    def fail(msg):
        nonlocal ok
        ok = False
        report.append(f"FAIL {msg}")

    def visit(node, path):
        for side in (node.goal.left, node.goal.right):
            for t in subterms(side):
                if isinstance(t, (RecSel,)):
                    rec_defs.add(t.defn)
            if isinstance(side, Seq) and isinstance(side.cont, RecConst):
                rec_defs.add(side.cont.defn)
        if node.is_leaf():
            status = node.leaf_status
            if status not in ("successful", "unsuccessful", "potential", "pending"):
                fail(f"leaf without status: {node.goal.format()}")
            elif status == "potential":
                targets = [
                    (i, anc)
                    for i, anc in enumerate(path)
                    if anc.goal == (node.back_edge or node.goal)
                ]
                if not targets:
                    fail(f"dangling back edge at {node.goal.format()}")
                else:
                    i = targets[-1][0]
                    between = path[i:]
                    if not any(n.rule == "Match" for n in between):
                        fail(f"no Match between back edge and target: {node.goal.format()}")
            elif status == "successful":
                g = node.goal
                if not (
                    g.trivial
                    or (not system.step(g.left) and not system.step(g.right) and
                        g.left == g.right or _empty_match_ok(g, system))
                    or oracle.judge(g.left, g.right)
                ):
                    fail(f"successful leaf not certifiable: {g.format()}")
            elif status in ("unsuccessful", "pending"):
                report.append(f"note {status} leaf {node.goal.format()}")
        else:
            if node.rule is None:
                fail(f"inner node without a rule: {node.goal.format()}")
            if not node.evidence:
                fail(f"rule {node.rule} without evidence at {node.goal.format()}")
            if node.rule == "Match":
                if not match_is_valid(node.goal, [c.goal for c in node.children], system):
                    fail(f"recorded match does not answer {node.goal.format()}")
            for c in node.children:
                visit(c, path + [node])

    visit(root, [])
    statuses = [n.leaf_status for n in root.walk() if n.is_leaf()]
    if any(s in ("unsuccessful", "pending") for s in statuses):
        ok = False
        report.append("FAIL tableau has unsuccessful or pending leaves")
    report.append(f"recursive constants introduced: {len(rec_defs)}")
    report.append(f"leaves: {len(statuses)}")
    return ok, report


def _empty_match_ok(goal, system):
    return not system.step(goal.left) and not system.step(goal.right) and (
        not isinstance(goal.left, Selection)
        and not isinstance(goal.right, Selection)
        or goal.left == goal.right
    )


# ---------------------------------------------------------------------------
# tableau search
# ---------------------------------------------------------------------------


@dataclass
class SearchStats:
    nodes: int = 0
    matches: int = 0
    subtableaux: int = 0


def search_tableau(
    goal: Goal,
    flavor: str,
    system: PdaSystem,
    oracle,
    node_cap: int = 4000,
    subtableau_budget: int = 200,
):
    """Search for a successful tableau under the given budgets.

    Returns (root node or None, stats).  A returned tableau always passes
    verification; None means the search was inconclusive (never a proof of
    inequivalence).
    """
    stats = SearchStats()
    # pre-step: atomic equivalence forces the brute-force branch
    atoms = [Selection(h) for h in sorted(ln(goal.left) | ln(goal.right))] + [NIL]
    for side in (goal.left, goal.right):
        for atom in atoms:
            if side != atom and oracle.judge(side, atom):
                if oracle.judge(goal.left, goal.right):
                    return (
                        TableauNode(
                            goal,
                            rule="Brute",
                            leaf_status="successful",
                            evidence=(f"atomic side; oracle {oracle.name}",),
                        ),
                        stats,
                    )
                return None, stats
    m = system.constants().m_bound
    proven = {}

    class Fail(Exception):
        pass

    def expand(g: Goal, path, match_counts):
        stats.nodes += 1
        if stats.nodes > node_cap:
            raise BudgetExceeded
        if g.trivial:
            return TableauNode(g, leaf_status="successful", evidence=("identical sides",))
        for anc_goal, count_at in reversed(path):
            if anc_goal == g and match_counts[-1] > count_at:
                return TableauNode(
                    g, leaf_status="potential", back_edge=anc_goal, evidence=("repetition",)
                )
        if g in proven:
            return proven[g]
        if _small_goal(g, m):
            return expand_match(g, path, match_counts)
        stats.subtableaux += 1
        sub = build_subtableau(g, flavor, system, oracle, budget=subtableau_budget)
        return graft(sub, path, match_counts)

    def graft(node, path, match_counts):
        if node.is_leaf() and node.leaf_status == "pending":
            return expand_match(node.goal, path, match_counts)
        node.children = [
            graft(c, path + [(node.goal, match_counts[-1])], match_counts)
            for c in node.children
        ]
        return node

    def expand_match(g, path, match_counts):
        stats.matches += 1
        try:
            match = compute_match(g, system, oracle)
        except SideConditionError:
            raise Fail
        if match is None:
            raise Fail
        if not match:
            return TableauNode(
                g, rule="Match", leaf_status="successful", evidence=("empty match",)
            )
        node = TableauNode(g, rule="Match", evidence=(f"match size {len(match)}",))
        new_path = path + [(g, match_counts[-1])]
        new_counts = match_counts + [match_counts[-1] + 1]
        for child in sorted(match, key=lambda c: (term_key(c.left), term_key(c.right))):
            node.children.append(expand(child, new_path, new_counts))
        if not _escaping_backedges(node):
            proven[g] = node
        return node

    try:
        root = expand(goal, [], [0])
    except (Fail, BudgetExceeded):
        return None, stats
    ok, _report = verify_tableau(root, system, oracle)
    if not ok:
        return None, stats
    return root, stats


def _escaping_backedges(node):
    """Back-edge targets of the subtree's potential leaves that are not
    among the leaf's ancestors within the subtree."""
    out = set()

    def check(n, anc_goals):
        if n.leaf_status == "potential" and n.back_edge not in anc_goals:
            out.add(n.back_edge)
        for c in n.children:
            check(c, anc_goals | {n.goal})
    check(node, set())
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def format_tableau(root: TableauNode) -> str:
    lines = []

    def visit(node, depth):
        tag = node.rule or "Leaf"
        status = f" [{node.leaf_status}]" if node.leaf_status else ""
        ev = f"  ({'; '.join(node.evidence)})" if node.evidence else ""
        lines.append("  " * depth + f"{tag}: {node.goal.format()}{status}{ev}")
        for c in node.children:
            visit(c, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def tableau_dot(root: TableauNode) -> str:
    lines = ["digraph tableau {", "  node [shape=box];"]
    ids = {}

    def visit(node):
        ids[id(node)] = len(ids)
        label = f"{node.rule or 'Leaf'}\\n{node.goal.format()}"
        if node.leaf_status:
            label += f"\\n[{node.leaf_status}]"
        lines.append(f'  n{ids[id(node)]} [label="{label}"];')
        for c in node.children:
            visit(c)
            lines.append(f"  n{ids[id(node)]} -> n{ids[id(c)]};")

    visit(root)
    lines.append("}")
    return "\n".join(lines)
