"""Span recording around the public functions of each echosent layer.

Wrappers are installed from outside the package, on the module attribute
each caller actually resolves at call time (``cli.tokenize`` for ``clean``,
``sentiment.tokenize`` for ``score_post``, ``ccm.run_states`` for the lag
scan and grid search, and so on), and removed again afterwards. A span is
``(round, id, parent, name, start, end)``; spans stay in memory and are
written out when the benchmark ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from echosent import ccm, cli, esn, lexicon, sentiment, series, textpipe

#: (layer, owner of the attribute, attribute name). One entry per place a
#: caller resolves the function; several entries share a span name when they
#: wrap the same function seen from different callers.
TARGETS = (
    ("textpipe", cli, "read_corpus"),
    ("textpipe", cli, "strip_artifacts"),
    ("textpipe", sentiment, "strip_artifacts"),
    ("textpipe", textpipe, "strip_artifacts"),
    ("textpipe", cli, "is_english"),
    ("textpipe", cli, "tokenize"),
    ("textpipe", sentiment, "tokenize"),
    ("textpipe", cli, "remove_stopwords"),
    ("textpipe", sentiment, "remove_stopwords"),
    ("textpipe", cli, "write_corpus"),
    ("lexicon", lexicon.ValenceLexicon, "symbol_tokens"),
    ("sentiment", cli, "score_post"),
    ("sentiment", sentiment, "polarity_proportions"),
    ("sentiment", sentiment, "emotion_profile"),
    ("sentiment", cli, "write_scored_csv"),
    ("sentiment", cli, "read_scored_csv"),
    ("series", series, "aggregate_daily"),
    ("series", series, "keyword_filter"),
    ("series", series, "period_summary"),
    ("series", series, "write_series_csv"),
    ("series", series, "read_series_csv"),
    ("series", series, "heatmap_matrix"),
    ("series", series, "write_heatmap_csv"),
    ("series", series, "write_heatmap_svg"),
    ("cli", cli, "main"),
    ("esn", ccm, "build_reservoir"),
    ("esn", esn, "spectral_radius"),
    ("esn", ccm, "run_states"),
    ("esn", ccm, "nrmse"),
    ("ccm", ccm, "analyze_pair"),
    ("ccm", ccm, "cross_map_curve"),
    ("ccm", ccm, "pearson"),
    ("ccm", ccm, "loo_cv_grid_search"),
)

LAYERS = ("textpipe", "lexicon", "sentiment", "series", "cli", "esn", "ccm")

#: Spans whose self times add up to ``series.heatmap.s``.
HEATMAP_SPANS = ("read_series_csv", "heatmap_matrix", "write_heatmap_csv", "write_heatmap_svg")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


@dataclass(slots=True)
class Span:
    round: int
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.round = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(self.round, len(self.spans), parent, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        """Counters that need a call's arguments or result, not just its span."""
        c = self.counters[self.round]
        if name == "esn.run_states":
            c["esn.run_states.steps"] += len(_arg(args, kwargs, 2, "inputs"))
        elif name == "ccm.cross_map_curve":
            c["ccm.lags_skipped"] += len(result.skipped)
        elif name == "ccm.loo_cv_grid_search":
            configs = _arg(args, kwargs, 1, "configs")
            c["ccm.grid.configs"] += len(configs)
            c["ccm.grid.reservoir_keys"] += len({
                (cfg.size, cfg.spectral_radius, cfg.leak, cfg.input_scale, cfg.sparsity, cfg.seed)
                for cfg in configs
            })
            c["ccm.grid.invalid"] += len(result.invalid)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for layer, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(f"{layer}.{attr}", original)
            setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summaries --------------------------------------------------------

    def self_times(self, round_: int) -> dict[str, float]:
        """Self seconds per span name within one round."""
        spans = [s for s in self.spans if s.round == round_]
        child = defaultdict(float)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s.name] += (s.end - s.start) - child[s.id]
        return out

    def calls(self, round_: int) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s.round == round_:
                out[s.name] += 1
        return out

    def write(self, path: Path, origin: float) -> None:
        """One JSON array per span: [round, id, parent, name, start_s, end_s],
        times in seconds since ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    [s.round, s.id, s.parent, s.name,
                     round(s.start - origin, 7), round(s.end - origin, 7)]
                ) + "\n")


def round_metrics(tracer: Tracer, round_: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, by the names BENCHMARK.json lists."""
    st = tracer.self_times(round_)
    calls = tracer.calls(round_)
    counters = tracer.counters[round_]
    m: dict[str, float] = {}
    for name in (
        "textpipe.read_corpus", "textpipe.strip_artifacts", "textpipe.is_english",
        "textpipe.tokenize", "textpipe.remove_stopwords", "textpipe.write_corpus",
        "lexicon.symbol_tokens", "sentiment.polarity_proportions",
        "sentiment.emotion_profile", "sentiment.write_scored_csv",
        "sentiment.read_scored_csv", "series.aggregate_daily",
        "series.keyword_filter", "series.period_summary", "series.write_series_csv",
        "esn.build_reservoir", "esn.spectral_radius", "esn.run_states",
    ):
        m[f"{name}.s"] = st.get(name, 0.0)
    for name in (
        "textpipe.read_corpus", "textpipe.strip_artifacts", "textpipe.tokenize",
        "lexicon.symbol_tokens", "series.aggregate_daily", "esn.build_reservoir",
        "esn.spectral_radius", "esn.run_states", "esn.nrmse", "ccm.pearson",
    ):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["sentiment.score_post.self_s"] = st.get("sentiment.score_post", 0.0)
    m["series.heatmap.s"] = sum(st.get(f"series.{n}", 0.0) for n in HEATMAP_SPANS)
    m["ccm.cross_map_curve.self_s"] = st.get("ccm.cross_map_curve", 0.0)
    m["ccm.loo_cv_grid_search.self_s"] = st.get("ccm.loo_cv_grid_search", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for k, v in st.items() if k.startswith(layer + ".")), 0.0)
    for key in ("esn.run_states.steps", "ccm.lags_skipped", "ccm.grid.configs",
                "ccm.grid.reservoir_keys", "ccm.grid.invalid"):
        m[key] = counters.get(key, 0)
    m["trace.spans"] = sum(calls.values())
    return m
