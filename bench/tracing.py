"""Per-layer spans around gslogic's module functions, from outside.

``Tracer.install`` replaces the functions the CLI reaches with wrappers
that time each call and count work; ``uninstall`` puts the originals back.
Nothing under ``src/`` is edited. Spans are aggregated as they close (a
greedy query makes tens of thousands of cut-rank calls): per layer the
inclusive seconds, the self seconds (minus the time of spans opened inside
it) and the call count.

Names follow the package's modules. Patched names are the ones the callers
look up at call time: ``gslogic.cli`` imported its helpers by name, so
those are replaced in the ``cli`` namespace; ``rankwidth`` reaches the
search through the ``_kernels`` module and the cut-rank through its own
import of ``cut_rank_masks``; ``simulate_pattern`` looks up
``graph_state_tableau`` in ``stabilizer`` and calls ``measure`` as a method.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = False
        self._child = [0.0]  # child seconds of each open span; [0] is the root
        self._patches: list = []

    # ------------------------------------------------------------- spans

    def span(self, name: str, fn, classify=None):
        """A wrapper of ``fn`` that records a span named ``name`` while
        the tracer is enabled. ``classify(name, result)`` may rename it."""
        child = self._child

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            child.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                inner = child.pop()
                child[-1] += elapsed
            key = name if classify is None else classify(name, result)
            self.inclusive[key] += elapsed
            self.self_time[key] += elapsed - inner
            self.calls[key] += 1
            return result

        return wrapper

    def top_level_seconds(self) -> float:
        """Seconds spent in spans opened outside any other span, since the
        last call; resets the counter."""
        seconds = self._child[0]
        self._child[0] = 0.0
        return seconds

    # ----------------------------------------------------------- patches

    def _patch(self, owner, attr: str, name: str, classify=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, classify))

    def install(self) -> None:
        import gslogic._kernels
        import gslogic.cli
        import gslogic.rankwidth
        import gslogic.stabilizer

        cli = gslogic.cli

        def vertices(name, graph):
            self.counts["graphs.vertices"] += graph.n
            return name

        def outcome(name, result):
            return "stabilizer.measure_deterministic" if result[1] == 1.0 \
                else "stabilizer.measure_random"

        self._patch(cli, "load_graph", "cli.load_graph")
        self._patch(cli, "parse_edge_list", "graphs.parse_edge_list", vertices)
        self._patch(cli, "generate", "graphs.generate", vertices)
        self._patch(cli, "exact_rankwidth", "rankwidth.exact")
        self._patch(cli, "greedy_decomposition", "rankwidth.greedy")
        self._patch(gslogic._kernels, "rankwidth_search", "_kernels.search")
        self._patch(gslogic.rankwidth, "cut_rank_masks", "gf2.cut_rank")
        self._patch(gslogic.stabilizer, "graph_state_tableau", "stabilizer.tableau")
        self._patch(gslogic.stabilizer.StabilizerTableau, "measure", "stabilizer.measure", outcome)
        self._patch(cli, "parse_formula", "logic.parse")
        self._patch(cli, "named_formula", "logic.parse")
        self._patch(cli, "evaluate", "logic.evaluate")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# Per-layer metric names and the spans they read. Times are inclusive
# seconds; the runner adds rankwidth.witness_s (the self time of the exact
# call: all of it but the search) and cli.other_s (query time outside every
# span).
LAYER_TIMES = {
    "cli.load_graph_s": "cli.load_graph",
    "graphs.parse_edge_list_s": "graphs.parse_edge_list",
    "graphs.generate_s": "graphs.generate",
    "_kernels.search_s": "_kernels.search",
    "rankwidth.exact_s": "rankwidth.exact",
    "rankwidth.greedy_s": "rankwidth.greedy",
    "gf2.cut_rank_s": "gf2.cut_rank",
    "stabilizer.tableau_s": "stabilizer.tableau",
    "stabilizer.measure_random_s": "stabilizer.measure_random",
    "stabilizer.measure_deterministic_s": "stabilizer.measure_deterministic",
    "logic.parse_s": "logic.parse",
    "logic.evaluate_s": "logic.evaluate",
}

LAYER_CALLS = {
    "gf2.cut_rank_calls": "gf2.cut_rank",
    "stabilizer.measure_random": "stabilizer.measure_random",
    "stabilizer.measure_deterministic": "stabilizer.measure_deterministic",
    "logic.evaluations": "logic.evaluate",
}
