"""The benchmark's four workloads.

Each workload prepares its inputs from the seed, then exposes one timed
operation (``op``), an untimed observation of that operation's outputs
(``observe``) and the checks that decide whether an operation failed.
Reasons for each workload are recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import hashlib
import io
import math
from pathlib import Path

import inputs
from echosent import ccm, cli

#: Input sizes. "full" is what the benchmark measures; "tiny" only exists so
#: the smoke test can run every code path in a few seconds. Full-size
#: operations take 0.1-0.9 s, so that a run holds dozens of each kind and
#: its latency percentiles rest on enough samples.
SIZES = {
    "full": {
        "pipeline_corpus": inputs.CorpusSize(posts=1_000, cities=20, days=230),
        "aggregate_corpus": inputs.CorpusSize(posts=1_000, cities=100, days=60),
        "pairs": 160,
        "pair_lengths": (500, 1000),
        "panel": (8, 120),
        "grid_sizes": None,
        "warmup_posts": 200,
    },
    "tiny": {
        "pipeline_corpus": inputs.CorpusSize(posts=200, cities=4, days=20),
        "aggregate_corpus": inputs.CorpusSize(posts=200, cities=10, days=20),
        "pairs": 4,
        "pair_lengths": (120, 150),
        "panel": (3, 90),
        "grid_sizes": (50,),
        "warmup_posts": 20,
    },
}

RHO_TOLERANCE = 1e-9


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(*argv: str) -> None:
    """Run one echosent command in-process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"echosent {argv[0]} exited with {rc}")


class Workload:
    name = ""
    #: What ``items`` counts, for the readable throughput line.
    item_name = "posts"
    #: Operation indexes that make up one round of a traced run.
    round_ops: tuple[int, ...] = (0,)

    def kind(self, i: int) -> str:
        """Operations of one kind do the same amount of work."""
        return self.name

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.size = SIZES[scale]
        #: (operation index, observed output or None if the operation raised)
        self.results: list[tuple[int, object]] = []

    def prepare(self, workdir: Path) -> None:
        raise NotImplementedError

    def op(self, i: int) -> None:
        raise NotImplementedError

    def observe(self, i: int):
        raise NotImplementedError

    def items(self, i: int) -> int:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work after the measured operations (reference runs)."""

    def failures(self, reference) -> dict[int, str]:
        """Failed entries of ``results`` by position, with the reason, checked
        against ``reference`` (the recorded outputs for this seed) when there
        is one."""
        raise NotImplementedError

    def reference(self):
        """JSON-able outputs to record for this seed and size."""
        raise NotImplementedError

    def shapes(self) -> dict:
        raise NotImplementedError

    def report(self, timings: list[tuple[int, float]]) -> list[str]:
        """Lines naming the workload's own figures, from (operation, seconds) pairs."""
        return []


def _differing(results, want, label: str) -> dict[int, str]:
    """Operations whose output digests differ from ``want``."""
    return {
        k: f"{label}: {sorted(name for name in want if got.get(name) != want[name])} differ"
        for k, (_, got) in enumerate(results)
        if got is not None and got != want
    }


class CorpusPipeline(Workload):
    """``echosent pipeline`` on a raw corpus; checked against staged commands."""

    name = "corpus_pipeline"
    OUTPUTS = ("cleaned.jsonl", "scored.csv", "series.csv")

    def prepare(self, workdir: Path) -> None:
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        vocab = inputs.load_vocabulary()
        records = inputs.corpus_records(self.seed, self.size["pipeline_corpus"], vocab)
        self.raw = workdir / "raw.jsonl"
        inputs.write_corpus_file(records, self.raw)
        self.n_posts = len(records)
        warm = workdir / "warmup.jsonl"
        inputs.write_corpus_file(records[: self.size["warmup_posts"]], warm)
        _cli("pipeline", "--in", str(warm), "--out-dir", str(workdir / "warmup"))
        self.staged = None

    def op(self, i: int) -> None:
        _cli("pipeline", "--in", str(self.raw), "--out-dir", str(self.dir / "pipeline"))

    def observe(self, i: int):
        return {name: _sha256(self.dir / "pipeline" / name) for name in self.OUTPUTS}

    def items(self, i: int) -> int:
        return self.n_posts

    def finish(self) -> None:
        """The staged clean -> score -> aggregate run the pipeline must match."""
        d = self.dir / "staged"
        d.mkdir(exist_ok=True)
        _cli("clean", "--in", str(self.raw), "--out", str(d / "cleaned.jsonl"))
        _cli("score", "--in", str(d / "cleaned.jsonl"), "--out", str(d / "scored.csv"))
        _cli("aggregate", "--scored", str(d / "scored.csv"), "--corpus",
             str(d / "cleaned.jsonl"), "--out", str(d / "series.csv"))
        self.staged = {name: _sha256(d / name) for name in self.OUTPUTS}

    def failures(self, reference) -> dict[int, str]:
        if reference is not None and reference != self.staged:
            return {k: "staged outputs differ from the recorded reference"
                    for k in range(len(self.results))}
        return _differing(self.results, self.staged, "pipeline vs staged")

    def reference(self):
        self.finish()
        return self.staged

    def shapes(self) -> dict:
        c = self.size["pipeline_corpus"]
        return {"posts": c.posts, "cities": c.cities, "days": c.days}


class SeriesAggregate(Workload):
    """Staged ``aggregate`` (periods run and keyword run) plus ``heatmap``."""

    name = "series_aggregate"
    OUTPUTS = ("series.csv", "periods.csv", "keyword.csv",
               "heatmap/heatmap_compound_mean.csv", "heatmap/heatmap_compound_mean.svg")

    def prepare(self, workdir: Path) -> None:
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        corpus = self.size["aggregate_corpus"]
        records = inputs.corpus_records(self.seed, corpus, inputs.load_vocabulary())
        inputs.write_corpus_file(records, workdir / "raw.jsonl")
        inputs.write_periods_file(self.seed, corpus, workdir / "periods.ini")
        self.cleaned = workdir / "cleaned.jsonl"
        self.scored = workdir / "scored.csv"
        _cli("clean", "--in", str(workdir / "raw.jsonl"), "--out", str(self.cleaned))
        _cli("score", "--in", str(self.cleaned), "--out", str(self.scored))
        with self.scored.open(encoding="utf-8") as fh:
            self.n_posts = sum(1 for _ in fh) - 1
        self.last_day = inputs.EPOCH + dt.timedelta(days=corpus.days - 1)

    def op(self, i: int) -> None:
        d = self.dir
        _cli("aggregate", "--scored", str(self.scored), "--corpus", str(self.cleaned),
             "--periods", str(d / "periods.ini"), "--from", inputs.EPOCH.isoformat(),
             "--to", self.last_day.isoformat(), "--out", str(d / "series.csv"),
             "--period-out", str(d / "periods.csv"))
        _cli("aggregate", "--scored", str(self.scored), "--corpus", str(self.cleaned),
             "--keyword", inputs.KEYWORD, "--features", "compound_mean,tweet_count",
             "--out", str(d / "keyword.csv"))
        _cli("heatmap", "--series", str(d / "series.csv"), "--out-dir", str(d / "heatmap"))

    def observe(self, i: int):
        return {name: _sha256(self.dir / name) for name in self.OUTPUTS}

    def items(self, i: int) -> int:
        return self.n_posts

    def _invariants(self) -> list[str]:
        """Checks that do not need a recorded reference."""
        counts: dict[str, float] = {}
        with (self.dir / "series.csv").open(encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["feature"] == "tweet_count":
                    counts[row["city"]] = counts.get(row["city"], 0.0) + float(row["value"])
        out = []
        if sum(counts.values()) != self.n_posts:
            out.append(f"tweet_count totals {sum(counts.values())} != {self.n_posts} scored posts")
        with (self.dir / self.OUTPUTS[3]).open(encoding="utf-8") as fh:
            if sum(1 for _ in fh) - 1 != len(counts):
                out.append("heatmap rows differ from the series' cities")
        return out

    def failures(self, reference) -> dict[int, str]:
        first = next((got for _, got in self.results if got is not None), None)
        want = reference if reference is not None else first
        if want is None:
            return {}
        broken = self._invariants()
        if broken:
            return {k: "; ".join(broken) for k in range(len(self.results))}
        return _differing(self.results, want, "series")

    def reference(self):
        self.op(0)
        return self.observe(0)

    def shapes(self) -> dict:
        c = self.size["aggregate_corpus"]
        return {"posts": c.posts, "cities": c.cities, "days": c.days,
                "scored_posts": self.n_posts, "features": 5, "keyword": inputs.KEYWORD}


def _verdict_row(verdict) -> list:
    return [verdict.classification, verdict.peak_lag_xy, verdict.peak_lag_yx,
            verdict.peak_rho_xy, verdict.peak_rho_yx]


def _rows_agree(got, want) -> bool:
    return (got[:3] == want[:3]
            and all(abs(a - b) <= RHO_TOLERANCE for a, b in zip(got[3:], want[3:])))


class CcmPairs(Workload):
    """One ``ccm.analyze_pair`` call per operation over a fixed pool of pairs."""

    name = "ccm_pairs"
    item_name = "pairs"
    round_ops = tuple(range(8))
    GRID = ccm.LagGrid(-30, 30)

    def prepare(self, workdir: Path) -> None:
        self.pool = inputs.pair_pool(self.seed, self.size["pairs"], self.size["pair_lengths"])
        warm = self.pool[0]
        ccm.analyze_pair(warm.x[:100], warm.y[:100], ccm.default_ccm_config(0),
                         grid=ccm.LagGrid(-5, 5))

    def _pair(self, i: int):
        return self.pool[i % len(self.pool)]

    def kind(self, i: int) -> str:
        return f"T={len(self._pair(i).x)}"

    def op(self, i: int) -> None:
        p = self._pair(i)
        self._last = ccm.analyze_pair(p.x, p.y, ccm.default_ccm_config(p.reservoir_seed),
                                      grid=self.GRID)[2]

    def observe(self, i: int):
        return _verdict_row(self._last)

    def items(self, i: int) -> int:
        return 1

    def failures(self, reference) -> dict[int, str]:
        out = {}
        n = len(self.pool)
        first: dict[int, list] = {}
        for k, (i, row) in enumerate(self.results):
            if row is None:
                continue
            if row[0] not in ccm.CLASSIFICATIONS or not all(
                math.isfinite(r) and -1.0 <= r <= 1.0 for r in row[3:]
            ) or not all(self.GRID.lo <= lag <= self.GRID.hi for lag in row[1:3]):
                out[k] = f"malformed verdict {row}"
                continue
            want = reference[i % n] if reference is not None else first.setdefault(i % n, row)
            if not _rows_agree(row, want):
                out[k] = f"pair {i % n}: {row} != reference {want}"
        return out

    def reference(self):
        rows = []
        for i in range(len(self.pool)):
            self.op(i)
            rows.append(self.observe(i))
        return rows

    def shapes(self) -> dict:
        kinds = [p.kind for p in self.pool]
        return {"pairs": len(self.pool), "lengths": list(self.size["pair_lengths"]),
                "x->y": kinds.count("x->y"), "y->x": kinds.count("y->x"),
                "null": kinds.count("null"), "reservoir_size": ccm.DEFAULT_CCM_PARAMS["size"],
                "lags": [self.GRID.lo, self.GRID.hi]}

    def report(self, timings):
        ms = sorted(1000 * t for _, t in timings)
        truth = {"x->y": "X_causes_Y", "y->x": "Y_causes_X"}
        seen = {}
        for i, row in self.results:
            kind = self._pair(i).kind
            if row is not None and kind in truth:
                seen[i % len(self.pool)] = row[0] == truth[kind]
        return [
            f"pair_ms_p50: {percentile(ms, 50):.2f} ms",
            f"pair_ms_p90: {percentile(ms, 90):.2f} ms (n={len(ms)})",
            f"direction_recovery: {sum(seen.values())}/{len(seen)} coupled pairs",
        ]


def _report_row(report) -> dict:
    return {
        "winner_index": report.winner_index,
        "scores": [[i, report.scores[i]] for i in sorted(report.scores)],
        "invalid": sorted(report.invalid),
    }


def _reports_agree(got: dict, want: dict) -> bool:
    return (got["winner_index"] == want["winner_index"]
            and got["invalid"] == want["invalid"]
            and [i for i, _ in got["scores"]] == [i for i, _ in want["scores"]]
            and all(abs(a - b) <= RHO_TOLERANCE
                    for (_, a), (_, b) in zip(got["scores"], want["scores"])))


class GridsearchPanel(Workload):
    """``ccm.loo_cv_grid_search``, alternating the quick grid and a default-grid slice."""

    name = "gridsearch_panel"
    item_name = "configs"
    round_ops = (0, 1)

    def prepare(self, workdir: Path) -> None:
        units, length = self.size["panel"]
        self.panel = inputs.coupled_panel(self.seed, units, length)
        quick, default_slice = inputs.grid_configs(self.seed % 1000, self.size["grid_sizes"])
        self.grids = {"quick": quick, "slice": default_slice}
        two = dict(list(self.panel.items())[:2])
        ccm.loo_cv_grid_search(two, quick[:1])

    def kind(self, i: int) -> str:
        return ("quick", "slice")[i % 2]

    def op(self, i: int) -> None:
        self._last = _report_row(ccm.loo_cv_grid_search(self.panel, self.grids[self.kind(i)]))

    def observe(self, i: int):
        return self._last

    def items(self, i: int) -> int:
        return len(self.grids[self.kind(i)])

    def failures(self, reference) -> dict[int, str]:
        first: dict[str, dict] = {}
        out = {}
        for k, (i, got) in enumerate(self.results):
            if got is None:
                continue
            kind = self.kind(i)
            want = reference[kind] if reference is not None else first.setdefault(kind, got)
            if not _reports_agree(got, want):
                out[k] = f"{kind} grid: winner or scores differ from the reference"
        return out

    def reference(self):
        out = {}
        for i in self.round_ops:
            self.op(i)
            out[self.kind(i)] = self.observe(i)
        return out

    def shapes(self) -> dict:
        units, length = self.size["panel"]
        return {"units": units, "days": length, "quick_configs": len(self.grids["quick"]),
                "slice_configs": len(self.grids["slice"])}

    def report(self, timings):
        walls = sum(percentile(sorted(t for i, t in timings if self.kind(i) == kind), 50)
                    for kind in self.grids)
        return [f"grid_wall_s: {walls:.3f} s (median quick + median slice, n={len(timings)})"]


WORKLOADS = {w.name: w for w in (CorpusPipeline, SeriesAggregate, CcmPairs, GridsearchPanel)}


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)

