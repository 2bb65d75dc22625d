"""Outside-in tracing of the bbpda layers, for the traced benchmark run only.

``Tracer.install`` replaces public functions of the seven layers (``cli``,
``terms``, ``system``, ``equivalence``, ``game``, ``tableau``, ``ncm``) by
wrappers, in every bbpda module that holds a reference to them: several
modules import functions such as ``stack_word`` by name, so patching the
defining module alone would miss their calls.  Nothing in ``src/`` knows
about the tracer, and the untraced run never imports this module.

Three kinds of wrapper:

* span targets (coarse boundaries: one CLI call, one check, one search)
  record a span ``(id, name, start, end, parent id, query id, attrs)`` in
  memory, written out when the run ends;
* hot targets (``stack_word``, ``PdaSystem.step``, the canon map, oracle
  lookups) keep only a call count and accumulated time, since a span per
  call would mean millions of spans;
* recursive targets (``BoundedChecker.rel``, ``compose``) count every call
  but time only the outermost one, so their time is not counted twice.

Every timed frame charges its duration, minus the time of timed frames
nested in it, to its layer's self time.  Host-speed samples taken while a
frame is open (``exclude``) are taken out of that frame's time and of every
enclosing frame's, so no layer carries the reference work.  Work counters (fragment nodes,
partition blocks, stratification levels, memo pairs, SearchStats) are read
from the wrapped functions' results; they depend only on the inputs, so two
traced runs of one commit give identical counts.
"""

from __future__ import annotations

import itertools
import time
import weakref
from collections import defaultdict

LAYERS = ("cli", "terms", "system", "equivalence", "game", "tableau", "ncm")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.work = defaultdict(int)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.depth_s = defaultdict(float)  # game.solve_bounded seconds per depth
        self.spans = []
        self.query = None
        self._stack = []  # open timed frames: [child seconds, enclosing span id]
        self._excluded = [0.0]  # seconds of host-speed samples so far
        self._ids = itertools.count()
        self._oracle_keys = weakref.WeakKeyDictionary()

    def exclude(self, seconds):
        """Leave ``seconds`` of sampling, just taken, out of the open frames."""
        self._excluded[0] += seconds

    # -- wrapper factories ----------------------------------------------

    def timed(self, fn, name, layer, span=False, hook=None, attrs=None, count=True):
        """Wrap ``fn``: count, time, charge self time, optionally record a span."""
        clock = time.perf_counter
        stack, calls, seconds, self_s = self._stack, self.calls, self.seconds, self.self_s
        spans, ids, excluded = self.spans, self._ids, self._excluded

        def wrapper(*args, **kwargs):
            if count:
                calls[name] += 1
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else None
            span_id = next(ids) if span else parent_span
            frame = [0.0, span_id]
            stack.append(frame)
            sampled = excluded[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start - (excluded[0] - sampled)
                seconds[name] += elapsed
                self_s[layer] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if span:
                    extra = attrs(args, kwargs) if attrs is not None else None
                    spans.append((span_id, name, start, end, parent_span, self.query, extra))
            if hook is not None:
                hook(result, args, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def outermost(self, fn, name, layer):
        """Count every call; time only calls not nested in another one."""
        timed = self.timed(fn, name, layer, count=False)
        calls = self.calls
        inside = [False]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if inside[0]:
                return fn(*args, **kwargs)
            inside[0] = True
            try:
                return timed(*args, **kwargs)
            finally:
                inside[0] = False

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        from bbpda import cli, equivalence, game, ncm, system, tableau, terms

        modules = (cli, terms, system, equivalence, game, tableau, ncm)
        work = self.work

        def everywhere(module, attr, wrapper):
            original = getattr(module, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        def function(module, attr, name, layer, **options):
            everywhere(module, attr, self.timed(getattr(module, attr), name, layer, **options))

        def method(cls, attr, name, layer, **options):
            setattr(cls, attr, self.timed(getattr(cls, attr), name, layer, **options))

        def depth_attr(position):
            def attrs(args, kwargs):
                return {"depth": args[position] if len(args) > position else kwargs.get("depth")}

            return attrs

        # cli: one span per CLI call, parser construction and input parsing
        function(cli, "main", "cli.main", "cli", span=True)
        function(cli, "build_parser", "cli.build_parser", "cli", span=True)
        for module, attr in (
            (system, "parse_system"),
            (system, "parse_term"),
            (ncm, "parse_machine"),
        ):
            function(module, attr, "cli.parse", "cli", span=True)

        # terms
        function(terms, "stack_word", "terms.stack_word", "terms")
        everywhere(terms, "compose", self.outermost(terms.compose, "terms.compose", "terms"))

        # system
        method(system.PdaSystem, "step", "system.step", "system")

        def fragment(result, args, elapsed):
            if isinstance(result, system.FiniteLts):
                work["system.reachable_lts.closed"] += 1
                work["system.reachable_lts.nodes"] += len(result)
            else:
                work["system.reachable_lts.nodes"] += result.explored

        method(system.PdaSystem, "reachable_lts", "system.reachable_lts", "system",
               span=True, hook=fragment)

        # equivalence
        function(equivalence, "check_finite_exact", "equivalence.check_finite_exact",
                 "equivalence", span=True)

        def blocks(result, args, elapsed):
            work["equivalence.branching_partition.blocks"] += len(set(result.values()))

        function(equivalence, "branching_partition", "equivalence.branching_partition",
                 "equivalence", span=True, hook=blocks)

        def levels(result, args, elapsed):
            work["equivalence.FragmentStratification.levels"] += len(args[0].levels)

        method(equivalence.FragmentStratification, "__init__",
               "equivalence.FragmentStratification", "equivalence", span=True, hook=levels)
        function(equivalence, "extract_attacker_script", "equivalence.extract_attacker_script",
                 "equivalence", span=True)
        function(equivalence, "check_bounded", "equivalence.check_bounded", "equivalence",
                 span=True, attrs=depth_attr(3))
        rel = equivalence.BoundedChecker.rel
        equivalence.BoundedChecker.rel = self.outermost(
            rel, "equivalence.BoundedChecker.rel", "equivalence"
        )

        judge = self.timed(equivalence.ExactOracle.judge, "equivalence.ExactOracle.judge",
                           "equivalence")
        oracle_keys = self._oracle_keys

        def judge_counting_repeats(oracle, left, right):
            seen = oracle_keys.setdefault(oracle, set())
            if (left, right) in seen:
                work["equivalence.ExactOracle.judge.repeats"] += 1
            else:
                seen.add((left, right))
            return judge(oracle, left, right)

        equivalence.ExactOracle.judge = judge_counting_repeats

        # game
        def solved(result, args, elapsed):
            work["game.solve_bounded.memo_pairs"] += result.spent
            self.depth_s[result.depth] += elapsed

        function(game, "solve_bounded", "game.solve_bounded", "game", span=True,
                 hook=solved, attrs=depth_attr(2))

        def played(result, args, elapsed):
            work["game.run_play.rounds"] += result.rounds

        function(game, "run_play", "game.run_play", "game", span=True, hook=played)

        # tableau
        def searched(result, args, elapsed):
            root, stats = result
            work["tableau.search_tableau.nodes"] += stats.nodes
            work["tableau.search_tableau.matches"] += stats.matches
            work["tableau.search_tableau.subtableaux"] += stats.subtableaux
            work["tableau.search_tableau.found"] += root is not None

        function(tableau, "search_tableau", "tableau.search_tableau", "tableau", span=True,
                 hook=searched)
        function(tableau, "compute_match", "tableau.compute_match", "tableau")
        function(tableau, "verify_tableau", "tableau.verify_tableau", "tableau", span=True)

        # ncm
        def compiled(result, args, elapsed):
            work["ncm.compile_reduction.states"] += len(result.system.states)
            work["ncm.compile_reduction.rules"] += len(result.system.rules)

        function(ncm, "compile_reduction", "ncm.compile_reduction", "ncm", span=True,
                 hook=compiled)
        function(ncm, "prop2_suite", "ncm.prop2_suite", "ncm", span=True)
        function(ncm, "bounded_reduction_check", "ncm.bounded_reduction_check", "ncm",
                 span=True)

        collapse = ncm.garbage_collapse

        def garbage_collapse(output):
            return self.timed(collapse(output), "ncm.canon", "ncm")

        everywhere(ncm, "garbage_collapse", garbage_collapse)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        calls, seconds, work = self.calls, self.seconds, self.work

        def ratio(part, whole):
            return part / whole if whole else 0.0

        out = {}
        for name in (
            "cli.main", "cli.build_parser", "terms.stack_word", "system.step",
            "system.reachable_lts", "equivalence.check_finite_exact",
            "equivalence.branching_partition", "equivalence.FragmentStratification",
            "equivalence.ExactOracle.judge", "equivalence.check_bounded",
            "game.solve_bounded", "game.run_play", "tableau.search_tableau",
            "ncm.compile_reduction",
        ):
            out[f"{name}.calls"] = (calls[name], "count")
        for name in (
            "cli.main", "cli.build_parser", "cli.parse", "terms.stack_word", "system.step",
            "system.reachable_lts", "equivalence.check_finite_exact",
            "equivalence.branching_partition", "equivalence.FragmentStratification",
            "equivalence.extract_attacker_script", "equivalence.check_bounded",
            "game.solve_bounded", "game.run_play", "tableau.search_tableau",
            "tableau.compute_match", "tableau.verify_tableau", "ncm.compile_reduction",
            "ncm.prop2_suite", "ncm.bounded_reduction_check",
        ):
            out[f"{name}.s"] = (seconds[name], "s")
        for name in ("terms.compose", "equivalence.BoundedChecker.rel", "ncm.canon"):
            out[f"{name}.calls"] = (calls[name], "count")
        for name in (
            "system.reachable_lts.nodes", "equivalence.branching_partition.blocks",
            "equivalence.FragmentStratification.levels", "game.solve_bounded.memo_pairs",
            "game.run_play.rounds", "tableau.search_tableau.nodes",
            "tableau.search_tableau.matches", "tableau.search_tableau.subtableaux",
            "ncm.compile_reduction.states", "ncm.compile_reduction.rules",
        ):
            out[name] = (work[name], "count")
        out["system.reachable_lts.closed_ratio"] = (
            ratio(work["system.reachable_lts.closed"], calls["system.reachable_lts"]), "ratio")
        out["equivalence.ExactOracle.judge.hit_ratio"] = (
            ratio(work["equivalence.ExactOracle.judge.repeats"],
                  calls["equivalence.ExactOracle.judge"]), "ratio")
        out["tableau.search_tableau.found_ratio"] = (
            ratio(work["tableau.search_tableau.found"], calls["tableau.search_tableau"]),
            "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out

    def counters(self) -> dict:
        """The work counts alone; identical across traced runs of one commit."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.work)
        return dict(sorted(out.items()))
