"""Command-line surface tying the pipeline together.

Subcommands: clean, score, aggregate, heatmap, ccm, gridsearch, synth, and
pipeline (clean + score + aggregate in one run, byte-identical to the staged
commands). Each setting is declared once, in ``OPTIONS``, with its flag and
its ``[section] key`` in an INI config file (``--config`` or
ECHOSENT_CONFIG); its environment variable is ECHOSENT_<SECTION>_<KEY>.
``_resolve`` applies flag > environment > config file > built-in default to
the settings a command declares in ``COMMANDS`` before it runs and prints
them all; only ccm, gridsearch and synth, which draw random numbers, take
``--seed``. A config key, an empty config section or an ECHOSENT_*
environment variable that no setting declares, ``[DEFAULT]`` included,
exits 2. Output paths are flags only. Identical settings produce
byte-identical CSV/JSON/SVG outputs. Log messages (skipped lags, invalid
grid configs) go to stderr; the global ``--log-level`` flag, given before
the subcommand, sets their threshold and changes no output file.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import functools
import json
import logging
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass, fields
from importlib.resources import files
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import ccm, esn, series, synth
from .lexicon import load_emotion_lexicon, load_valence_lexicon
from .sentiment import (
    SCORED_COLUMNS,
    ScoredPost,
    ScoringTable,
    read_scored_csv,
    score_entries,
    score_post,
    scored_row,
    write_scored_csv,
)
from .textpipe import (
    RawPost,
    corpus_line,
    english_entries,
    load_wordlist,
    parse_day,
    read_corpus,
    strip_artifacts,
    write_corpus,
)
# Re-exported: the benchmark tracer (bench/spans.py) wraps them under these names.
from .textpipe import is_english, remove_stopwords, tokenize  # noqa: F401

_DATA = files("echosent") / "data"
_ENV_PREFIX = "ECHOSENT"
_SYNTH_EPOCH = dt.date(2020, 1, 1)
_SCORED_FEATURES = series.FEATURES[:2]


def _default_path(name: str) -> str:
    return str(_DATA / name)


# ---------------------------------------------------------------------------
# Settings: each declared once, resolved as flag > env > config file > default.

@dataclass(frozen=True)
class Option:
    """One setting: its flag, its config ``[section] key`` (environment
    variable ``ECHOSENT_<SECTION>_<KEY>``), the type that parses its value
    from any source, its default and its allowed values."""

    flag: str
    section: str
    key: str
    help: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] = ()

    @property
    def env(self) -> str:
        return f"{_ENV_PREFIX}_{self.section.upper()}_{self.key.upper()}"


_RES = ccm.DEFAULT_CCM_PARAMS
_MAPS = synth.CoupledMapConfig

#: Every setting, keyed by the ``args`` attribute it resolves into.
OPTIONS = {
    "seed": Option("--seed", "run", "seed", "run seed", int, 0),
    "in_path": Option("--in", "paths", "corpus",
                      "corpus JSONL: raw for clean and pipeline, cleaned for score"),
    "wordlist": Option("--wordlist", "paths", "wordlist", "English reference wordlist",
                       default=_default_path("wordlist_en.txt")),
    "valence_lexicon": Option("--valence-lexicon", "paths", "valence_lexicon", "valence lexicon",
                              default=_default_path("vader_lexicon.txt")),
    "emotion_lexicon": Option("--emotion-lexicon", "paths", "emotion_lexicon", "emotion lexicon",
                              default=_default_path("nrc_emotion_lexicon.txt")),
    "stopwords": Option("--stopwords", "paths", "stopwords", "stopword list",
                        default=_default_path("stopwords_en.txt")),
    "scored": Option("--scored", "paths", "scored", "scored CSV"),
    "corpus": Option("--corpus", "paths", "cleaned",
                     "cleaned corpus JSONL (for engagement counts/keywords)"),
    "features": Option("--features", "run", "features", "comma list of features"),
    "cities": Option("--cities", "run", "cities", "comma list of cities"),
    "keyword": Option("--keyword", "run", "keyword", "keep only posts containing this keyword"),
    "date_from": Option("--from", "run", "date_from", "start day, YYYY-MM-DD", parse_day),
    "date_to": Option("--to", "run", "date_to", "end day, YYYY-MM-DD", parse_day),
    "periods": Option("--periods", "paths", "periods",
                      "period config INI; also writes a period summary"),
    "series": Option("--series", "paths", "series", "series CSV"),
    "feature": Option("--feature", "run", "feature", "feature to draw", default="compound_mean"),
    "city": Option("--city", "run", "city", "city/unit to analyze"),
    "input_feature": Option("--input-feature", "run", "input_feature", "input (cause) feature"),
    "target_feature": Option("--target-feature", "run", "target_feature",
                             "target (effect) feature"),
    "lag_lo": Option("--lag-lo", "lags", "lo", "most negative lag", int, ccm.LagGrid.lo),
    "lag_hi": Option("--lag-hi", "lags", "hi", "most positive lag", int, ccm.LagGrid.hi),
    "size": Option("--size", "reservoir", "size", "reservoir units", int, _RES["size"]),
    "spectral_radius": Option("--spectral-radius", "reservoir", "spectral_radius",
                              "reservoir spectral radius", float, _RES["spectral_radius"]),
    "leak": Option("--leak", "reservoir", "leak", "leak rate", float, _RES["leak"]),
    "input_scale": Option("--input-scale", "reservoir", "input_scale", "input weight scale",
                          float, _RES["input_scale"]),
    "sparsity": Option("--sparsity", "reservoir", "sparsity", "reservoir weight density",
                       float, _RES["sparsity"]),
    "ridge": Option("--ridge", "reservoir", "ridge", "ridge penalty", float, _RES["ridge"]),
    "washout": Option("--washout", "reservoir", "washout", "state rows discarded at the start",
                      int, _RES["washout"]),
    "panel": Option("--panel", "paths", "panel", "series CSV; cities are the CV units"),
    "grid": Option("--grid", "run", "grid", "config grid", default="quick",
                   choices=tuple(ccm.GRIDS)),
    "mode": Option("--mode", "run", "mode", "coupled logistic maps or independent AR(1) pairs",
                   default="coupled", choices=("coupled", "ar1")),
    "length": Option("--length", "run", "length", "days per series", int, 500),
    "units": Option("--units", "run", "units", "units (pairs) to generate", int, 1),
    "growth_x": Option("--growth-x", "run", "growth_x", "growth rate of x", float,
                       _MAPS.growth_x),
    "growth_y": Option("--growth-y", "run", "growth_y", "growth rate of y", float,
                       _MAPS.growth_y),
    "coupling_xy": Option("--coupling-xy", "run", "coupling_xy", "coupling of y into x", float,
                          _MAPS.coupling_xy),
    "coupling_yx": Option("--coupling-yx", "run", "coupling_yx", "coupling of x into y", float,
                          _MAPS.coupling_yx),
    "delay": Option("--delay", "run", "delay", "coupling delay in days", int, _MAPS.delay),
    "noise_sd": Option("--noise-sd", "run", "noise_sd", "observation noise sd", float,
                       _MAPS.noise_sd),
    "phi": Option("--phi", "run", "phi", "AR(1) coefficient", float, 0.5),
}

#: Output destinations: flag only, never echoed. name -> (flag, required, help)
OUTPUTS = {
    "out": ("--out", True, "file to write"),
    "out_dir": ("--out-dir", True, "directory to write into"),
    "report": ("--report", False, "write the removal report as JSON"),
    "period_out": ("--period-out", False, "period summary CSV path"),
}


def _resolve(args: argparse.Namespace) -> None:
    """Set every setting of ``args.command`` on ``args`` and echo them.

    Each value comes from its flag, else its environment variable, else the
    config file (``--config`` or ``ECHOSENT_CONFIG``), else its default, and
    is parsed, checked for presence and checked against its choices the same
    way whichever source gave it. A config key, an empty config section or
    an ``ECHOSENT_*`` environment variable that no setting of any command
    declares raises ``ValueError`` before anything is echoed.
    """
    command = COMMANDS[args.command]
    path = args.config or os.environ.get(f"{_ENV_PREFIX}_CONFIG")
    config = series.read_ini(path) if path else {}
    declared = {(opt.section, opt.key) for opt in OPTIONS.values()}
    sections = {section for section, _ in declared}
    for section, keys in config.items():
        if not keys and section not in sections:
            raise ValueError(f"{path}: [{section}] is no settings section")
        for key in keys:
            if (section, key) not in declared:
                raise ValueError(f"{path}: [{section}] {key} is no setting")
    env_names = {opt.env for opt in OPTIONS.values()} | {f"{_ENV_PREFIX}_CONFIG"}
    for name in sorted(os.environ):
        if name.startswith(f"{_ENV_PREFIX}_") and name not in env_names:
            raise ValueError(f"environment variable {name} is no setting")
    echoed = {}
    for name in command.settings:
        opt = OPTIONS[name]
        raw, source = getattr(args, name, None), opt.flag
        if raw is None and opt.env in os.environ:
            raw, source = os.environ[opt.env], opt.env
        elif raw is None and opt.key in config.get(opt.section, {}):
            raw, source = config[opt.section][opt.key], f"{path}: [{opt.section}] {opt.key}"
        if raw is None:
            value = opt.default
            if value is None and name in command.required:
                raise ValueError(f"{args.command}: {opt.flag} is required")
        else:
            try:
                value = opt.type(raw)
            except ValueError as exc:
                if opt.type is parse_day:  # its message names the one form it reads
                    raise ValueError(f"{source}: {exc}") from None
                raise ValueError(f"{source}: invalid {opt.type.__name__} value {raw!r}") from None
            if opt.choices and value not in opt.choices:
                raise ValueError(f"{source}: {raw!r} is not one of {', '.join(opt.choices)}")
        setattr(args, name, value)
        echoed[f"{opt.section}.{opt.key}"] = value
    print(f"# {args.command} settings: "
          + " ".join(f"{k}={v}" for k, v in sorted(echoed.items())))


# ---------------------------------------------------------------------------
# clean

def _stripped(post: RawPost) -> RawPost:
    """The post with artifact-stripped text; ``post`` itself when nothing was stripped."""
    text = strip_artifacts(post.text)
    if text == post.text:
        return post
    return RawPost(
        post.id, post.date, post.city, text,
        post.like_count, post.reply_count, post.retweet_count, post.lang,
    )


_rule3_kept = attrgetter("kept")


def _kept_posts(posts, chunks, report):
    """Stream ``(post, chunk entries)`` of the posts that pass rules 1-2 and
    the id rule, artifact-stripped.

    Each post is stripped once, and its text split and looked up in
    ``chunks``, the command's chunk table over the wordlist, at most once.
    ``report`` gets every count, rule 3 included: the chunks of each yielded
    post that are not ``kept``. ``malformed_lines`` is set once ``posts`` is
    exhausted.
    """
    seen_ids: set[str] = set()
    for post in posts:
        kept = _stripped(post)
        if kept is not post:
            report["rule1_posts_with_artifacts"] += 1
        entries = english_entries(kept, chunks)
        if entries is None:
            report["rule2_removed_non_english"] += 1
            continue
        # ids must be unique downstream: keep the first English post of each id
        if kept.id in seen_ids:
            report["duplicate_ids_dropped"] += 1
            continue
        seen_ids.add(kept.id)
        report["output_posts"] += 1
        report["rule3_tokens_dropped"] += len(entries) - sum(map(_rule3_kept, entries))
        yield kept, entries
    report["input_posts"] = posts.posts_read
    report["malformed_lines"] = posts.malformed


def _write_json(path, obj) -> None:
    """``obj`` as JSON with sorted keys, indented by 2, and a final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path, header, rows) -> None:
    """A CSV file of ``header`` and then ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _new_report() -> dict:
    return dict.fromkeys((
        "input_posts", "malformed_lines", "rule1_posts_with_artifacts",
        "rule2_removed_non_english", "duplicate_ids_dropped",
        "rule3_tokens_dropped", "output_posts",
    ), 0)


def _finish_report(report: dict, json_path: str | None = None, lines: tuple[str, ...] = ()) -> int:
    """Print the report's counts, then ``lines``, and write the JSON report if asked.

    Returns 1, after an ``error:`` line on stderr, when more than 1% of the
    input lines were malformed, else 0.
    """
    if json_path:
        _write_json(json_path, report)
    for key in sorted(report):
        print(f"{key}: {report[key]}")
    for line in lines:
        print(line)
    total_lines = report["input_posts"] + report["malformed_lines"]
    bad_fraction = report["malformed_lines"] / total_lines if total_lines else 0.0
    if bad_fraction > 0.01:
        print(f"error: {bad_fraction:.1%} malformed lines", file=sys.stderr)
        return 1
    return 0


def cmd_clean(args) -> int:
    wordlist = load_wordlist(args.wordlist)
    # rule 3 is counted on the token stream that score sees
    vlex = load_valence_lexicon(args.valence_lexicon)
    stopwords = load_wordlist(args.stopwords)
    report = _new_report()
    chunks = ScoringTable(vlex, None, stopwords, wordlist)
    kept = _kept_posts(read_corpus(args.in_path, skip_malformed=True), chunks, report)
    write_corpus((post for post, _ in kept), args.out)
    return _finish_report(report, args.report)


# ---------------------------------------------------------------------------
# score

def _load_lexicons(args):
    return (
        load_valence_lexicon(args.valence_lexicon),
        load_emotion_lexicon(args.emotion_lexicon),
        load_wordlist(args.stopwords),
    )


def cmd_score(args) -> int:
    vlex, elex, stopwords = _load_lexicons(args)
    print(f"# valence lexicon sha256 {vlex.checksum}")
    print(f"# emotion lexicon sha256 {elex.checksum}")
    posts = read_corpus(args.in_path)
    chunks = ScoringTable(vlex, elex, stopwords)
    write_scored_csv(
        (score_post(_stripped(p), chunks) for p in posts),
        args.out,
    )
    print(f"scored_posts: {posts.posts_read}")
    return 0


# ---------------------------------------------------------------------------
# aggregate

def _join_corpus(scored, corpus_path, keyword=None):
    """Scored posts with their engagement counts from the corpus, in one read.

    With ``keyword``, only the posts whose corpus text ``series.keyword_filter``
    keeps are kept. Corpus ids must be unique and every scored id must be in
    the corpus.
    """
    by_id = {}
    for p in read_corpus(corpus_path):
        if by_id.setdefault(p.id, p) is not p:
            raise ValueError(f"{corpus_path}: post id {p.id!r} repeats")
    raws = []
    for sp in scored:
        raw = by_id.get(sp.id)
        if raw is None:
            raise ValueError(f"scored post {sp.id!r} is not in {corpus_path}")
        raws.append(raw)
    kept = {p.id for p in series.keyword_filter(raws, keyword)} if keyword else None
    return [
        ScoredPost(sp.id, sp.date, sp.city, sp.sentiment, sp.emotions,
                   raw.like_count, raw.reply_count, raw.retweet_count)
        for sp, raw in zip(scored, raws) if kept is None or sp.id in kept
    ]


def cmd_aggregate(args) -> int:
    if args.keyword and not args.corpus:
        raise ValueError("aggregate: --keyword needs --corpus for the post text")
    feature_list = ([f.strip() for f in args.features.split(",")] if args.features
                    else series.FEATURES if args.corpus else _SCORED_FEATURES)
    totals = [f for f in feature_list if f in series.FEATURES and f not in _SCORED_FEATURES]
    if totals and not args.corpus:
        raise ValueError(f"aggregate: {totals[0]} needs --corpus for the engagement counts")
    periods = series.load_period_config(args.periods) if args.periods else None
    scored = read_scored_csv(args.scored)
    if args.corpus:
        scored = _join_corpus(scored, args.corpus, args.keyword)
    cities = [c.strip() for c in args.cities.split(",")] if args.cities else None
    built = series.aggregate_daily(scored, feature_list, cities, args.date_from, args.date_to)
    series.write_series_csv(built, args.out)
    print(f"series_written: {len(built)}")
    if periods is not None:
        summary = series.period_summary(scored, periods)
        out = args.period_out or str(Path(args.out).with_name("periods.csv"))
        _write_csv(out, [f.name for f in fields(series.PeriodSummary)],
                   ((r.city, r.period, r.n_tweets, r.mean, r.sd) for r in summary))
        print(f"period_summary: {out}")
    return 0


# ---------------------------------------------------------------------------
# heatmap

def cmd_heatmap(args) -> int:
    feature = args.feature
    all_series = series.read_series_csv(args.series, features=[feature])
    if not all_series:
        raise ValueError(f"no {feature!r} series in {args.series}")
    cities, dates, matrix = series.heatmap_matrix(all_series)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"heatmap_{feature}.csv"
    svg_path = out_dir / f"heatmap_{feature}.svg"
    series.write_heatmap_csv(cities, dates, matrix, csv_path)
    series.write_heatmap_svg(cities, dates, matrix, svg_path)
    print(f"heatmap_csv: {csv_path}")
    print(f"heatmap_svg: {svg_path}")
    return 0


# ---------------------------------------------------------------------------
# ccm

def _feature_pairs(path, input_feature, target_feature, cities=None):
    """``{city: (input series, target series)}`` from the series CSV at ``path``.

    Every city with either feature (among ``cities``, if given) must have
    both, over identical dates. Cities come in sorted order.
    """
    by_city: dict[str, dict[str, series.CitySeries]] = {}
    for s in series.read_series_csv(path, [input_feature, target_feature], cities):
        by_city.setdefault(s.city, {})[s.feature] = s
    pairs = {}
    for city, feats in by_city.items():
        try:
            sx, sy = feats[input_feature], feats[target_feature]
        except KeyError as exc:
            raise ValueError(f"{path}: city {city!r} has no {exc.args[0]!r} series") from None
        if (sx.start, len(sx)) != (sy.start, len(sy)):
            raise ValueError(
                f"{path}: city {city!r}: input and target series must cover identical dates"
            )
        pairs[city] = (sx, sy)
    return pairs


def cmd_ccm(args) -> int:
    cfg = esn.ReservoirConfig(**{k: getattr(args, k) for k in _RES}, seed=args.seed)
    grid = ccm.LagGrid(args.lag_lo, args.lag_hi)
    pairs = _feature_pairs(args.series, args.input_feature, args.target_feature,
                           [args.city] if args.city else None)
    if len(pairs) != 1:
        raise ValueError(f"ccm: need exactly one city with both features in {args.series} "
                         f"(city={args.city!r}); found {len(pairs)}")
    [(sx, sy)] = pairs.values()
    x = np.asarray(sx.values)
    y = np.asarray(sy.values)
    curve_xy, curve_yx, verdict = ccm.analyze_pair(x, y, cfg, grid=grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "ccm_curves.csv", ["direction", "tau", "rho"],
               ((c.direction, lag, repr(rho)) for c in (curve_xy, curve_yx)
                for lag, rho in zip(c.lags, c.rhos)))
    _write_json(out_dir / "ccm_verdict.json", {
        **asdict(verdict),
        "input_series": f"{sx.city}/{sx.feature}",
        "target_series": f"{sy.city}/{sy.feature}",
        "tie_break": ccm.TIE_BREAK,
        "seed": args.seed,
    })
    print(f"verdict: {verdict.classification}"
          + (f" ({verdict.note})" if verdict.note else ""))
    print(f"peaks: x->y lag {verdict.peak_lag_xy} rho {verdict.peak_rho_xy:.4f}; "
          f"y->x lag {verdict.peak_lag_yx} rho {verdict.peak_rho_yx:.4f}")
    return 0


# ---------------------------------------------------------------------------
# gridsearch

def cmd_gridsearch(args) -> int:
    configs = ccm.make_grid(args.grid, args.seed, args.washout)
    panel = {
        city: (np.asarray(sx.values), np.asarray(sy.values))
        for city, (sx, sy) in _feature_pairs(
            args.panel, args.input_feature, args.target_feature).items()
    }
    report = ccm.loo_cv_grid_search(panel, configs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_fields = [astuple(c) for c in report.configs]
    _write_csv(out_dir / "gridsearch_cells.csv",
               ["config_index", *(f.name for f in fields(esn.ReservoirConfig)), "fold", "nrmse"],
               ((cell.config_index, *config_fields[cell.config_index], cell.unit, cell.nrmse)
                for cell in report.cells))
    w = report.winner
    _write_json(out_dir / "gridsearch_winner.json", {
        "winner_index": report.winner_index,
        **asdict(w),
        "mean_nrmse": report.scores[report.winner_index],
        "invalid_configs": {str(k): v for k, v in sorted(report.invalid.items())},
    })
    print(
        f"winner: size={w.size} spectral_radius={w.spectral_radius} leak={w.leak} "
        f"sparsity={w.sparsity} ridge={w.ridge} input_scale={w.input_scale} "
        f"mean_nrmse={report.scores[report.winner_index]:.6g}"
    )
    return 0


# ---------------------------------------------------------------------------
# synth

def _unit_seed(base: int, unit: int, stream: int) -> int:
    return (base * 1_000_003 + unit * 2 + stream) % (2**63)


def cmd_synth(args) -> int:
    if args.units < 1:
        raise ValueError(f"synth: --units must be at least 1, got {args.units}")
    built = []
    for u in range(args.units):
        name = f"unit{u:02d}"
        if args.mode == "coupled":
            cfg = synth.CoupledMapConfig(
                length=args.length,
                seed=_unit_seed(args.seed, u, 0),
                growth_x=args.growth_x,
                growth_y=args.growth_y,
                coupling_xy=args.coupling_xy,
                coupling_yx=args.coupling_yx,
                delay=args.delay,
                noise_sd=args.noise_sd,
            )
            x, y = synth.gen_coupled_logistic(cfg)
        else:
            x = synth.gen_ar1(args.phi, args.length, _unit_seed(args.seed, u, 0))
            y = synth.gen_ar1(args.phi, args.length, _unit_seed(args.seed, u, 1))
        built.append(series.CitySeries(name, "x", _SYNTH_EPOCH, tuple(x.tolist())))
        built.append(series.CitySeries(name, "y", _SYNTH_EPOCH, tuple(y.tolist())))
    series.write_series_csv(built, args.out)
    print(f"series_written: {len(built)}")
    return 0


# ---------------------------------------------------------------------------
# pipeline

def cmd_pipeline(args) -> int:
    """clean + score + aggregate as one streaming pass over the corpus.

    Each post is stripped once, and its text split and looked up in one
    chunk table once: those entries serve the language filter, the scoring
    and the rule-3 count. A kept post's cleaned line and scored row are
    written as it passes, and ``aggregate_daily`` keeps per-(city, day) sums
    only.
    """
    wordlist = load_wordlist(args.wordlist)
    vlex, elex, stopwords = _load_lexicons(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = _new_report()
    chunks = ScoringTable(vlex, elex, stopwords, wordlist)
    kept = _kept_posts(read_corpus(args.in_path, skip_malformed=True), chunks, report)
    with (
        (out_dir / "cleaned.jsonl").open("w", encoding="utf-8") as cleaned,
        (out_dir / "scored.csv").open("w", encoding="utf-8", newline="") as scored_fh,
    ):
        scored_csv = csv.writer(scored_fh)
        scored_csv.writerow(SCORED_COLUMNS)

        def scored():
            for post, entries in kept:
                cleaned.write(corpus_line(post))
                # the scored post carries the engagement counts, so no corpus join is needed
                sp = score_entries(post, entries)
                scored_csv.writerow(scored_row(sp))
                yield sp

        built = series.aggregate_daily(scored(), series.FEATURES)
    series.write_series_csv(built, out_dir / "series.csv")
    return _finish_report(report, lines=(
        f"scored_posts: {report['output_posts']}", f"series_written: {len(built)}",
    ))


# ---------------------------------------------------------------------------
# parser

@dataclass(frozen=True)
class Command:
    """One subcommand: the settings it reads, by ``OPTIONS`` name, and its
    output flags, by ``OUTPUTS`` name. Every command also takes ``--config``;
    only those that draw random numbers list ``seed``."""

    run: Callable[[argparse.Namespace], int]
    help: str
    settings: tuple[str, ...]
    outputs: tuple[str, ...]
    required: tuple[str, ...] = ()


_LEXICONS = ("valence_lexicon", "emotion_lexicon", "stopwords")

COMMANDS = {
    "clean": Command(cmd_clean, "strip artifacts, drop non-English posts",
                     ("in_path", "wordlist", "valence_lexicon", "stopwords"), ("out", "report"),
                     required=("in_path",)),
    "score": Command(cmd_score, "sentiment + emotion scores per post",
                     ("in_path", *_LEXICONS), ("out",), required=("in_path",)),
    "aggregate": Command(cmd_aggregate, "daily per-city series from scored posts",
                         ("scored", "corpus", "features", "cities", "keyword", "date_from",
                          "date_to", "periods"), ("out", "period_out"), required=("scored",)),
    "heatmap": Command(cmd_heatmap, "city x date matrix as CSV + SVG",
                       ("series", "feature"), ("out_dir",), required=("series",)),
    "ccm": Command(cmd_ccm, "lag-scanned cross mapping of a series pair",
                   ("seed", "series", "city", "input_feature", "target_feature", "lag_lo",
                    "lag_hi", *_RES), ("out_dir",),
                   required=("series", "input_feature", "target_feature")),
    "gridsearch": Command(cmd_gridsearch, "leave-one-unit-out CV over a config grid",
                          ("seed", "panel", "input_feature", "target_feature", "grid", "washout"),
                          ("out_dir",), required=("panel", "input_feature", "target_feature")),
    "synth": Command(cmd_synth, "synthetic coupled/null series in the series CSV format",
                     ("seed", "mode", "length", "units", "growth_x", "growth_y", "coupling_xy",
                      "coupling_yx", "delay", "noise_sd", "phi"), ("out",)),
    "pipeline": Command(cmd_pipeline, "clean + score + aggregate in one run",
                        ("in_path", "wordlist", *_LEXICONS), ("out_dir",),
                        required=("in_path",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echosent",
        description="Per-city sentiment series and reservoir cross-mapping causal analysis",
    )
    parser.add_argument(
        "--log-level", dest="log_level", type=str.upper, default="WARNING",
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        help="lowest level of log messages printed to stderr (default WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help=f"INI config file (env {_ENV_PREFIX}_CONFIG)")
        for dest in command.settings:
            opt = OPTIONS[dest]
            choices = f" ({', '.join(opt.choices)})" if opt.choices else ""
            default = "" if opt.default is None else f", default {opt.default}"
            p.add_argument(opt.flag, dest=dest, help=f"{opt.help}{choices}; [{opt.section}] "
                           f"{opt.key}, env {opt.env}{default}".replace("%", "%%"))
        for dest in command.outputs:
            flag, required, help_text = OUTPUTS[dest]
            p.add_argument(flag, dest=dest, required=required, help=help_text)
    return parser


# The tree holds no defaults (settings resolve in ``_resolve``) and each parse
# returns a fresh namespace, so one tree serves every call in a process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        _resolve(args)
        return COMMANDS[args.command].run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
