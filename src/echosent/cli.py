"""Command-line surface tying the pipeline together.

Subcommands: clean, score, aggregate, heatmap, ccm, gridsearch, synth, and
pipeline (clean + score + aggregate in one run, byte-identical to the staged
commands). Every option can also come from an INI config file (sections
[paths], [run], [reservoir], [lags]) or from environment variables named
ECHOSENT_<SECTION>_<KEY>; precedence is flag > environment > config file >
built-in default. Each command prints its resolved settings, seed included,
and identical settings produce byte-identical CSV/JSON/SVG outputs. Log
messages (skipped lags, invalid grid configs) go to stderr; the global
``--log-level`` flag, given before the subcommand, sets their threshold and
changes no output file.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime as dt
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np

from . import ccm, esn, series, synth
from .lexicon import load_emotion_lexicon, load_valence_lexicon
from .sentiment import (
    DEFAULT_MODIFIERS,
    SCORED_COLUMNS,
    ScoredPost,
    ScoringTable,
    read_scored_csv,
    score_post,
    scored_row,
    write_scored_csv,
)
from .textpipe import (
    ChunkTable,
    RawPost,
    corpus_line,
    is_english,
    load_wordlist,
    read_corpus,
    strip_artifacts,
    write_corpus,
)
# Re-exported: the benchmark tracer (bench/spans.py) wraps them under these names.
from .textpipe import remove_stopwords, tokenize  # noqa: F401

_DATA = files("echosent") / "data"
_ENV_PREFIX = "ECHOSENT"
_SYNTH_EPOCH = dt.date(2020, 1, 1)


def _default_path(name: str) -> str:
    return str(_DATA / name)


# ---------------------------------------------------------------------------
# Option resolution: flag > env > config file > default.

@dataclass
class Settings:
    args: argparse.Namespace
    config: configparser.ConfigParser
    resolved: dict

    def get(self, attr: str, section: str, key: str, default, cast=str):
        value = getattr(self.args, attr, None)
        if value is None:
            env = os.environ.get(f"{_ENV_PREFIX}_{section.upper()}_{key.upper()}")
            if env is not None:
                value = cast(env)
            elif self.config.has_option(section, key):
                value = cast(self.config.get(section, key))
            else:
                value = default
        self.resolved[f"{section}.{key}"] = value
        return value

    def echo(self, command: str) -> None:
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.resolved.items()))
        print(f"# {command} settings: {parts}")


def _settings(args: argparse.Namespace) -> Settings:
    parser = configparser.ConfigParser()
    path = getattr(args, "config", None) or os.environ.get(f"{_ENV_PREFIX}_CONFIG")
    if path:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    return Settings(args, parser, {})


def _reservoir_config(st: Settings, seed: int) -> esn.ReservoirConfig:
    p = ccm.DEFAULT_CCM_PARAMS
    return esn.ReservoirConfig(
        size=st.get("size", "reservoir", "size", p["size"], int),
        spectral_radius=st.get(
            "spectral_radius", "reservoir", "spectral_radius", p["spectral_radius"], float
        ),
        leak=st.get("leak", "reservoir", "leak", p["leak"], float),
        input_scale=st.get("input_scale", "reservoir", "input_scale", p["input_scale"], float),
        sparsity=st.get("sparsity", "reservoir", "sparsity", p["sparsity"], float),
        ridge=st.get("ridge", "reservoir", "ridge", p["ridge"], float),
        washout=st.get("washout", "reservoir", "washout", p["washout"], int),
        seed=seed,
    )


def _seed(st: Settings) -> int:
    return st.get("seed", "run", "seed", 0, int)


def _date(value: str | None) -> dt.date | None:
    return dt.date.fromisoformat(value) if value else None


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


def _kept_posts(posts, wordlist, chunks, report):
    """Stream the posts that pass rules 1-2 and the id rule, artifact-stripped.

    Each post is stripped once; ``chunks`` is the command's chunk table over
    ``wordlist``. ``report`` gets every count but rule 3, which needs the
    token stream; ``malformed_lines`` is set once ``posts`` is exhausted.
    """
    seen_ids: set[str] = set()
    for post in posts:
        kept = _stripped(post)
        if kept is not post:
            report["rule1_posts_with_artifacts"] += 1
        if not is_english(kept, wordlist, chunks):
            report["rule2_removed_non_english"] += 1
            continue
        # ids must be unique downstream: keep the first English post of each id
        if kept.id in seen_ids:
            report["duplicate_ids_dropped"] += 1
            continue
        seen_ids.add(kept.id)
        report["output_posts"] += 1
        yield kept
    report["input_posts"] = posts.posts_read
    report["malformed_lines"] = posts.malformed


def _new_report() -> dict:
    return dict.fromkeys((
        "input_posts", "malformed_lines", "rule1_posts_with_artifacts",
        "rule2_removed_non_english", "duplicate_ids_dropped",
        "rule3_tokens_dropped", "output_posts",
    ), 0)


def _bad_fraction(report: dict) -> float:
    total_lines = report["input_posts"] + report["malformed_lines"]
    return report["malformed_lines"] / total_lines if total_lines else 0.0


def cmd_clean(args) -> int:
    st = _settings(args)
    in_path = st.get("in_path", "paths", "corpus", None)
    if in_path is None:
        raise ValueError("clean: --in is required")
    wordlist = load_wordlist(
        st.get("wordlist", "paths", "wordlist", _default_path("wordlist_en.txt"))
    )
    # rule 3 is counted on the token stream that score sees
    vlex_path = st.get(
        "valence_lexicon", "paths", "valence_lexicon", _default_path("vader_lexicon.txt")
    )
    stop_path = st.get("stopwords", "paths", "stopwords", _default_path("stopwords_en.txt"))
    emoticons = load_valence_lexicon(vlex_path).symbol_tokens()
    stopwords = load_wordlist(stop_path)
    st.echo("clean")
    report = _new_report()
    chunks = ChunkTable(emoticons, wordlist, stopwords)

    def counted(posts):
        for post in posts:
            kept_tokens = sum(1 for e in chunks.scan(post.text) if not e.stop)
            report["rule3_tokens_dropped"] += len(post.text.split()) - kept_tokens
            yield post

    kept = _kept_posts(read_corpus(in_path, skip_malformed=True), wordlist, chunks, report)
    write_corpus(counted(kept), args.out)
    if args.report:
        Path(args.report).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    for key in sorted(report):
        print(f"{key}: {report[key]}")
    bad_fraction = _bad_fraction(report)
    if bad_fraction > 0.01:
        print(f"error: {bad_fraction:.1%} malformed lines", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# score

def _load_lexicons(st: Settings):
    vpath = st.get("valence_lexicon", "paths", "valence_lexicon", _default_path("vader_lexicon.txt"))
    epath = st.get("emotion_lexicon", "paths", "emotion_lexicon", _default_path("nrc_emotion_lexicon.txt"))
    spath = st.get("stopwords", "paths", "stopwords", _default_path("stopwords_en.txt"))
    return load_valence_lexicon(vpath), load_emotion_lexicon(epath), load_wordlist(spath)


def cmd_score(args) -> int:
    st = _settings(args)
    in_path = st.get("in_path", "paths", "corpus", None)
    if in_path is None:
        raise ValueError("score: --in is required")
    vlex, elex, stopwords = _load_lexicons(st)
    st.echo("score")
    print(f"# valence lexicon sha256 {vlex.checksum}")
    print(f"# emotion lexicon sha256 {elex.checksum}")
    posts = read_corpus(in_path)
    chunks = ScoringTable(vlex, elex, stopwords, DEFAULT_MODIFIERS)
    write_scored_csv(
        (score_post(_stripped(p), vlex, elex, stopwords, DEFAULT_MODIFIERS, chunks) for p in posts),
        args.out,
    )
    print(f"scored_posts: {posts.posts_read}")
    return 0


# ---------------------------------------------------------------------------
# aggregate

_COUNT_FEATURES = ("like_total", "reply_total", "retweet_total")


def _join_corpus(scored, corpus_path, keyword=None):
    """Scored posts with their engagement counts from the corpus, in one read.

    With ``keyword``, only posts whose text contains it are kept. Corpus ids
    must be unique and every scored id must be in the corpus.
    """
    by_id = {}
    for p in read_corpus(corpus_path):
        if by_id.setdefault(p.id, p) is not p:
            raise ValueError(f"{corpus_path}: post id {p.id!r} repeats")
    keep = {p.id for p in series.keyword_filter(list(by_id.values()), keyword)} if keyword else by_id
    joined = []
    for sp in scored:
        raw = by_id.get(sp.id)
        if raw is None:
            raise ValueError(f"scored post {sp.id!r} is not in {corpus_path}")
        if sp.id in keep:
            joined.append(ScoredPost(
                sp.id, sp.date, sp.city, sp.sentiment, sp.emotions,
                raw.like_count, raw.reply_count, raw.retweet_count,
            ))
    return joined


def cmd_aggregate(args) -> int:
    st = _settings(args)
    scored_path = st.get("scored", "paths", "scored", None)
    if scored_path is None:
        raise ValueError("aggregate: --scored is required")
    corpus_path = st.get("corpus", "paths", "cleaned", None)
    keyword = st.get("keyword", "run", "keyword", None)
    features_opt = st.get("features", "run", "features", None)
    cities_opt = st.get("cities", "run", "cities", None)
    start = _date(st.get("date_from", "run", "date_from", None))
    end = _date(st.get("date_to", "run", "date_to", None))
    periods_path = st.get("periods", "paths", "periods", None)
    st.echo("aggregate")

    if keyword and not corpus_path:
        raise ValueError("aggregate: --keyword needs --corpus for the post text")
    scored = read_scored_csv(scored_path)
    if corpus_path:
        scored = _join_corpus(scored, corpus_path, keyword)
    if features_opt:
        feature_list = [f.strip() for f in features_opt.split(",")]
    else:
        feature_list = ["compound_mean", "tweet_count"]
        if corpus_path:
            feature_list += list(_COUNT_FEATURES)
    cities = [c.strip() for c in cities_opt.split(",")] if cities_opt else None
    built = series.aggregate_daily(scored, feature_list, cities, start, end)
    series.write_series_csv(built, args.out)
    print(f"series_written: {len(built)}")
    if periods_path:
        summary = series.period_summary(scored, series.load_period_config(periods_path))
        out = args.period_out or str(Path(args.out).with_name("periods.csv"))
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["city", "period", "n_tweets", "mean", "sd"])
            for row in summary:
                writer.writerow([
                    row.city, row.period, row.n_tweets,
                    "" if row.mean is None else repr(row.mean),
                    "" if row.sd is None else repr(row.sd),
                ])
        print(f"period_summary: {out}")
    return 0


# ---------------------------------------------------------------------------
# heatmap

def cmd_heatmap(args) -> int:
    st = _settings(args)
    series_path = st.get("series", "paths", "series", None)
    if series_path is None:
        raise ValueError("heatmap: --series is required")
    feature = st.get("feature", "run", "feature", "compound_mean")
    st.echo("heatmap")
    all_series = series.read_series_csv(series_path, features=[feature])
    if not all_series:
        raise ValueError(f"no {feature!r} series in {series_path}")
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

def _single_series(found, path, feature=None, city=None) -> series.CitySeries:
    """The one series of ``found`` (read from ``path``) with this feature and city."""
    if feature:
        found = [s for s in found if s.feature == feature]
    if city:
        found = [s for s in found if s.city == city]
    if len(found) != 1:
        raise ValueError(
            f"{path}: need exactly one series (feature={feature!r}, city={city!r}); "
            f"found {len(found)}"
        )
    return found[0]


def cmd_ccm(args) -> int:
    st = _settings(args)
    seed = _seed(st)
    cfg = _reservoir_config(st, seed)
    lag_lo = st.get("lag_lo", "lags", "lo", -30, int)
    lag_hi = st.get("lag_hi", "lags", "hi", 30, int)
    st.echo("ccm")
    grid = ccm.LagGrid(lag_lo, lag_hi)
    if args.x and args.y:
        sx = _single_series(series.read_series_csv(args.x), args.x)
        sy = _single_series(series.read_series_csv(args.y), args.y)
    else:
        series_path = st.get("series", "paths", "series", None)
        if not (series_path and args.input_feature and args.target_feature):
            raise ValueError("ccm: give --x/--y files, or --series with --input-feature/--target-feature")
        found = series.read_series_csv(
            series_path,
            features=[args.input_feature, args.target_feature],
            cities=[args.city] if args.city else None,
        )
        sx = _single_series(found, series_path, args.input_feature, args.city)
        sy = _single_series(found, series_path, args.target_feature, args.city)
    if sx.dates != sy.dates:
        raise ValueError("ccm: input and target series must cover identical dates")
    x = np.asarray(sx.values)
    y = np.asarray(sy.values)
    curve_xy, curve_yx, verdict = ccm.analyze_pair(x, y, cfg, grid=grid)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "ccm_curves.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["direction", "tau", "rho"])
        for curve in (curve_xy, curve_yx):
            for lag, rho in zip(curve.lags, curve.rhos):
                writer.writerow([curve.direction, lag, repr(rho)])
    verdict_obj = {
        "classification": verdict.classification,
        "input_series": f"{sx.city}/{sx.feature}",
        "target_series": f"{sy.city}/{sy.feature}",
        "peak_lag_xy": verdict.peak_lag_xy,
        "peak_rho_xy": verdict.peak_rho_xy,
        "peak_lag_yx": verdict.peak_lag_yx,
        "peak_rho_yx": verdict.peak_rho_yx,
        "weak": verdict.weak,
        "note": verdict.note,
        "tie_break": "highest rho, then smallest |lag|, then negative lag",
        "seed": seed,
    }
    (out_dir / "ccm_verdict.json").write_text(
        json.dumps(verdict_obj, sort_keys=True, indent=2) + "\n"
    )
    print(f"verdict: {verdict.classification}"
          + (f" ({verdict.note})" if verdict.note else ""))
    print(f"peaks: x->y lag {verdict.peak_lag_xy} rho {verdict.peak_rho_xy:.4f}; "
          f"y->x lag {verdict.peak_lag_yx} rho {verdict.peak_rho_yx:.4f}")
    return 0


# ---------------------------------------------------------------------------
# gridsearch

def cmd_gridsearch(args) -> int:
    st = _settings(args)
    seed = _seed(st)
    panel_path = st.get("panel", "paths", "panel", None)
    if panel_path is None:
        raise ValueError("gridsearch: --panel is required")
    grid_name = st.get("grid", "run", "grid", "quick")
    washout = st.get("washout", "reservoir", "washout", ccm.DEFAULT_CCM_PARAMS["washout"], int)
    st.echo("gridsearch")
    if grid_name == "quick":
        configs = ccm.make_quick_grid(seed, washout)
    elif grid_name == "default":
        configs = ccm.make_default_grid(seed, washout)
    elif grid_name == "tiny":
        configs = [ccm.default_ccm_config(seed)]
    else:
        raise ValueError(f"unknown grid {grid_name!r} (use tiny, quick or default)")
    found = series.read_series_csv(
        panel_path, features=[args.input_feature, args.target_feature]
    )
    by_city: dict[str, dict[str, series.CitySeries]] = {}
    for s in found:
        by_city.setdefault(s.city, {})[s.feature] = s
    panel = {}
    for city, feats in sorted(by_city.items()):
        if args.input_feature not in feats or args.target_feature not in feats:
            raise ValueError(f"gridsearch: unit {city!r} lacks required features")
        if feats[args.input_feature].dates != feats[args.target_feature].dates:
            raise ValueError(
                f"gridsearch: unit {city!r}: input and target series must cover identical dates"
            )
        panel[city] = (
            np.asarray(feats[args.input_feature].values),
            np.asarray(feats[args.target_feature].values),
        )
    report = ccm.loo_cv_grid_search(panel, configs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "gridsearch_cells.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "config_index", "size", "spectral_radius", "leak", "input_scale",
            "sparsity", "ridge", "seed", "washout", "fold", "nrmse",
        ])
        for cell in report.cells:
            c = report.configs[cell.config_index]
            writer.writerow([
                cell.config_index, c.size, repr(c.spectral_radius), repr(c.leak),
                repr(c.input_scale), repr(c.sparsity), repr(c.ridge), c.seed,
                c.washout, cell.unit, repr(cell.nrmse),
            ])
    w = report.winner
    winner_obj = {
        "winner_index": report.winner_index,
        "size": w.size, "spectral_radius": w.spectral_radius, "leak": w.leak,
        "input_scale": w.input_scale, "sparsity": w.sparsity, "ridge": w.ridge,
        "seed": w.seed, "washout": w.washout,
        "mean_nrmse": report.scores[report.winner_index],
        "invalid_configs": {str(k): v for k, v in sorted(report.invalid.items())},
    }
    (out_dir / "gridsearch_winner.json").write_text(
        json.dumps(winner_obj, sort_keys=True, indent=2) + "\n"
    )
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
    st = _settings(args)
    seed = _seed(st)
    mode = st.get("mode", "run", "mode", "coupled")
    length = st.get("length", "run", "length", 500, int)
    units = st.get("units", "run", "units", 1, int)
    st.echo("synth")
    built = []
    dates = tuple(_SYNTH_EPOCH + dt.timedelta(days=i) for i in range(length))
    for u in range(units):
        name = f"unit{u:02d}"
        if mode == "coupled":
            cfg = synth.CoupledMapConfig(
                length=length,
                seed=_unit_seed(seed, u, 0),
                growth_x=args.growth_x,
                growth_y=args.growth_y,
                coupling_xy=args.coupling_xy,
                coupling_yx=args.coupling_yx,
                delay=args.delay,
                noise_sd=args.noise_sd,
            )
            x, y = synth.gen_coupled_logistic(cfg)
        elif mode == "ar1":
            x = synth.gen_ar1(args.phi, length, _unit_seed(seed, u, 0))
            y = synth.gen_ar1(args.phi, length, _unit_seed(seed, u, 1))
        else:
            raise ValueError(f"unknown mode {mode!r} (use coupled or ar1)")
        built.append(series.CitySeries(name, "x", dates, tuple(float(v) for v in x)))
        built.append(series.CitySeries(name, "y", dates, tuple(float(v) for v in y)))
    series.write_series_csv(built, args.out)
    print(f"series_written: {len(built)}")
    return 0


# ---------------------------------------------------------------------------
# pipeline

def cmd_pipeline(args) -> int:
    """clean + score + aggregate as one streaming pass over the corpus.

    Each post is stripped once; one chunk table serves the language filter
    and the scoring of every kept post. A kept post's cleaned line and scored
    row are written as it passes, and ``aggregate_daily`` keeps per-(city,
    day) sums only. Rule 3 is the kept post's word count minus its
    stopword-free token count, which is the emotion profile's word total.
    """
    st = _settings(args)
    in_path = st.get("in_path", "paths", "corpus", None)
    if in_path is None:
        raise ValueError("pipeline: --in is required")
    wordlist = load_wordlist(
        st.get("wordlist", "paths", "wordlist", _default_path("wordlist_en.txt"))
    )
    vlex, elex, stopwords = _load_lexicons(st)
    st.echo("pipeline")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = _new_report()
    chunks = ScoringTable(vlex, elex, stopwords, DEFAULT_MODIFIERS, wordlist)
    kept = _kept_posts(read_corpus(in_path, skip_malformed=True), wordlist, chunks, report)
    with (
        (out_dir / "cleaned.jsonl").open("w", encoding="utf-8") as cleaned,
        (out_dir / "scored.csv").open("w", encoding="utf-8", newline="") as scored_fh,
    ):
        scored_csv = csv.writer(scored_fh)
        scored_csv.writerow(SCORED_COLUMNS)

        def scored():
            for post in kept:
                cleaned.write(corpus_line(post))
                # score_post carries the engagement counts, so no corpus join is needed
                sp = score_post(post, vlex, elex, stopwords, DEFAULT_MODIFIERS, chunks)
                report["rule3_tokens_dropped"] += len(post.text.split()) - sp.emotions.word_total
                scored_csv.writerow(scored_row(sp))
                yield sp

        built = series.aggregate_daily(
            scored(), ["compound_mean", "tweet_count", *_COUNT_FEATURES]
        )
    series.write_series_csv(built, out_dir / "series.csv")
    for key in sorted(report):
        print(f"{key}: {report[key]}")
    print(f"scored_posts: {report['output_posts']}")
    print(f"series_written: {len(built)}")
    return 1 if _bad_fraction(report) > 0.01 else 0


# ---------------------------------------------------------------------------
# parser

def _add_reservoir_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--size", type=int, help="reservoir units")
    p.add_argument("--spectral-radius", dest="spectral_radius", type=float)
    p.add_argument("--leak", type=float)
    p.add_argument("--input-scale", dest="input_scale", type=float)
    p.add_argument("--sparsity", type=float)
    p.add_argument("--ridge", type=float)
    p.add_argument("--washout", type=int)


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

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, help="run seed (env ECHOSENT_RUN_SEED)")

    p = sub.add_parser("clean", help="strip artifacts, drop non-English posts")
    common(p)
    p.add_argument("--in", dest="in_path", help="raw corpus JSONL")
    p.add_argument("--out", required=True, help="cleaned corpus JSONL")
    p.add_argument("--wordlist", help="English reference wordlist")
    p.add_argument("--report", help="write the removal report as JSON")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("score", help="sentiment + emotion scores per post")
    common(p)
    p.add_argument("--in", dest="in_path", help="cleaned corpus JSONL")
    p.add_argument("--out", required=True, help="scored CSV")
    p.add_argument("--valence-lexicon", dest="valence_lexicon")
    p.add_argument("--emotion-lexicon", dest="emotion_lexicon")
    p.add_argument("--stopwords")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("aggregate", help="daily per-city series from scored posts")
    common(p)
    p.add_argument("--scored", help="scored CSV")
    p.add_argument("--corpus", help="cleaned corpus JSONL (for engagement counts/keywords)")
    p.add_argument("--out", required=True, help="series CSV")
    p.add_argument("--features", help="comma list of features")
    p.add_argument("--cities", help="comma list of cities")
    p.add_argument("--keyword", help="keep only posts containing this keyword")
    p.add_argument("--from", dest="date_from", help="ISO start date")
    p.add_argument("--to", dest="date_to", help="ISO end date")
    p.add_argument("--periods", help="period config INI; also writes a period summary")
    p.add_argument("--period-out", dest="period_out", help="period summary CSV path")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("heatmap", help="city x date matrix as CSV + SVG")
    common(p)
    p.add_argument("--series", help="series CSV")
    p.add_argument("--feature")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("ccm", help="lag-scanned cross mapping of a series pair")
    common(p)
    p.add_argument("--series", help="series CSV holding both features")
    p.add_argument("--city", help="city/unit to analyze")
    p.add_argument("--input-feature", dest="input_feature")
    p.add_argument("--target-feature", dest="target_feature")
    p.add_argument("--x", help="series CSV with exactly one series (input)")
    p.add_argument("--y", help="series CSV with exactly one series (target)")
    p.add_argument("--lag-lo", dest="lag_lo", type=int)
    p.add_argument("--lag-hi", dest="lag_hi", type=int)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _add_reservoir_flags(p)
    p.set_defaults(func=cmd_ccm)

    p = sub.add_parser("gridsearch", help="leave-one-unit-out CV over a config grid")
    common(p)
    p.add_argument("--panel", help="series CSV; cities are the CV units")
    p.add_argument("--input-feature", dest="input_feature", required=True)
    p.add_argument("--target-feature", dest="target_feature", required=True)
    p.add_argument("--grid", choices=["tiny", "quick", "default"])
    p.add_argument("--washout", type=int)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("synth", help="synthetic coupled/null series in the series CSV format")
    common(p)
    p.add_argument("--mode", choices=["coupled", "ar1"])
    p.add_argument("--length", type=int)
    p.add_argument("--units", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--growth-x", dest="growth_x", type=float, default=3.8)
    p.add_argument("--growth-y", dest="growth_y", type=float, default=3.5)
    p.add_argument("--coupling-xy", dest="coupling_xy", type=float, default=0.0)
    p.add_argument("--coupling-yx", dest="coupling_yx", type=float, default=0.0)
    p.add_argument("--delay", type=int, default=0)
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="clean + score + aggregate in one run")
    common(p)
    p.add_argument("--in", dest="in_path", help="raw corpus JSONL")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--wordlist")
    p.add_argument("--valence-lexicon", dest="valence_lexicon")
    p.add_argument("--emotion-lexicon", dest="emotion_lexicon")
    p.add_argument("--stopwords")
    p.set_defaults(func=cmd_pipeline)

    return parser


# The tree carries only static defaults and ``func``, and each parse returns
# a fresh namespace, so one tree serves every call in a process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
