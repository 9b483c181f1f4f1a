import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import echosent
from echosent import cli, sentiment, textpipe
from echosent.cli import main

ENGLISH_TEXTS = [
    "the vaccine works well for people here",
    "new cases reported in the city today",
    "people need to stay home and wash hands",
    "the school closed early this week",
    "good news about the masks supply today",
    "this lockdown makes the days feel long",
    "hospital staff work hard every day",
    "we all hope for better times soon",
]
FRENCH_TEXTS = [
    "le confinement est vraiment difficile pour toute la famille",
    "nous restons chez nous pendant cette semaine",
]


def write_mixed_corpus(path: Path) -> None:
    lines = []
    for i, text in enumerate(ENGLISH_TEXTS):
        lines.append(json.dumps({
            "id": f"en{i}", "date": "2020-03-01", "city": "Toronto",
            "text": text, "like_count": i,
        }))
    lines.append(json.dumps({
        "id": "fr0", "date": "2020-03-01", "city": "Toronto",
        "text": FRENCH_TEXTS[0], "lang": "fr",
    }))
    lines.append(json.dumps({
        "id": "fr1", "date": "2020-03-02", "city": "Toronto",
        "text": FRENCH_TEXTS[1],
    }))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# clean


def test_clean_reports_rule2_removals(tmp_path, capsys):
    corpus = tmp_path / "raw.jsonl"
    write_mixed_corpus(corpus)
    report_path = tmp_path / "report.json"
    rc = main(["clean", "--in", str(corpus), "--out", str(tmp_path / "clean.jsonl"),
               "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["input_posts"] == 10
    assert report["rule2_removed_non_english"] == 2
    assert report["output_posts"] == 8


def emoticon_corpus(tmp_path) -> Path:
    corpus = tmp_path / "raw.jsonl"
    corpus.write_text(json.dumps({"id": "e1", "date": "2020-03-01", "city": "Toronto",
                                  "text": "great day :) :D", "lang": "en"}) + "\n")
    return corpus


def test_rule3_counts_emoticons_that_scoring_keeps(tmp_path, capsys):
    # ":)" is in the valence lexicon's emoticon set, so scoring keeps it; the
    # report used to count it as dropped (rule3_tokens_dropped: 1)
    corpus = emoticon_corpus(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["clean", "--in", str(corpus), "--out", str(tmp_path / "clean.jsonl"),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert (report["output_posts"], report["rule3_tokens_dropped"]) == (1, 0)
    capsys.readouterr()
    assert main(["pipeline", "--in", str(corpus), "--out-dir", str(tmp_path / "out")]) == 0
    assert "rule3_tokens_dropped: 0" in capsys.readouterr().out


def test_clean_rule3_uses_the_configured_lexicon_and_stoplist(tmp_path, monkeypatch):
    corpus = emoticon_corpus(tmp_path)
    lexicon = tmp_path / "valence.txt"
    lexicon.write_text("great\t3.1\n")
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("day\n")
    monkeypatch.setenv("ECHOSENT_PATHS_VALENCE_LEXICON", str(lexicon))
    report_path = tmp_path / "report.json"
    config = tmp_path / "run.ini"
    config.write_text(f"[paths]\nstopwords = {stoplist}\n")
    assert main(["clean", "--config", str(config), "--in", str(corpus),
                 "--out", str(tmp_path / "clean.jsonl"), "--report", str(report_path)]) == 0
    # no emoticon set: ":)" is dropped as punctuation; "day" is a stopword
    report = json.loads(report_path.read_text())
    assert (report["output_posts"], report["rule3_tokens_dropped"]) == (1, 2)


def test_pipeline_report_equals_clean_report(tmp_path, capsys):
    corpus = tmp_path / "raw.jsonl"
    write_mixed_corpus(corpus)
    with corpus.open("a") as fh:
        fh.write(json.dumps({"id": "x1", "date": "2020-03-02", "city": "Toronto",
                             "text": "so GOOD :-) see https://t.co/abc @you !!", "lang": "en"}) + "\n")
    report_path = tmp_path / "report.json"
    assert main(["clean", "--in", str(corpus), "--out", str(tmp_path / "clean.jsonl"),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    capsys.readouterr()
    assert main(["pipeline", "--in", str(corpus), "--out-dir", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert all(f"{key}: {value}" in printed for key, value in report.items())
    assert report["rule1_posts_with_artifacts"] == 1


def test_clean_idempotent(tmp_path):
    corpus = tmp_path / "raw.jsonl"
    corpus.write_text(json.dumps({
        "id": "a", "date": "2020-03-01", "city": "X",
        "text": "@bob the vaccine works well https://t.co/x #covid",
    }) + "\n")
    once = tmp_path / "once.jsonl"
    twice = tmp_path / "twice.jsonl"
    assert main(["clean", "--in", str(corpus), "--out", str(once)]) == 0
    assert main(["clean", "--in", str(once), "--out", str(twice)]) == 0
    assert once.read_bytes() == twice.read_bytes()
    assert "covid" in json.loads(once.read_text())["text"]


def test_clean_empty_corpus(tmp_path):
    corpus = tmp_path / "raw.jsonl"
    corpus.write_text("")
    out = tmp_path / "clean.jsonl"
    report_path = tmp_path / "report.json"
    rc = main(["clean", "--in", str(corpus), "--out", str(out), "--report", str(report_path)])
    assert rc == 0
    assert out.read_text() == ""
    report = json.loads(report_path.read_text())
    assert report["output_posts"] == 0
    assert all(v == 0 for v in report.values())


def test_clean_exits_nonzero_on_heavy_malformation(tmp_path):
    corpus = tmp_path / "raw.jsonl"
    good = json.dumps({"id": "a", "date": "2020-03-01", "city": "X",
                       "text": "the vaccine works well"})
    corpus.write_text(good + "\nnot json at all\n")
    rc = main(["clean", "--in", str(corpus), "--out", str(tmp_path / "c.jsonl")])
    assert rc == 1


def test_clean_tolerates_rare_malformation(tmp_path):
    corpus = tmp_path / "raw.jsonl"
    good = json.dumps({"id": "a", "date": "2020-03-01", "city": "X",
                       "text": "the vaccine works well"})
    corpus.write_text("\n".join([good] * 150 + ["not json"]) + "\n")
    rc = main(["clean", "--in", str(corpus), "--out", str(tmp_path / "c.jsonl")])
    assert rc == 0


# ---------------------------------------------------------------------------
# score


def test_score_table_fixture(tmp_path, fixtures_dir):
    out = tmp_path / "scored.csv"
    rc = main(["score", "--in", f"{fixtures_dir}/toronto_feb24.jsonl", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6  # header + 5 posts
    header = lines[0].split(",")
    assert header[:7] == ["id", "date", "city", "negative", "neutral", "positive", "compound"]
    assert len(header) == 17
    # lexicon-miss rows score exactly neutral
    row1 = lines[1].split(",")
    assert row1[3:7] == ["0.0", "1.0", "0.0", "0.0"]


# ---------------------------------------------------------------------------
# aggregate + heatmap


def scored_setup(tmp_path, fixtures_dir):
    cleaned = tmp_path / "cleaned.jsonl"
    scored = tmp_path / "scored.csv"
    assert main(["clean", "--in", f"{fixtures_dir}/toronto_feb24.jsonl",
                 "--out", str(cleaned)]) == 0
    assert main(["score", "--in", str(cleaned), "--out", str(scored)]) == 0
    return cleaned, scored


def test_aggregate_and_heatmap(tmp_path, fixtures_dir):
    cleaned, scored = scored_setup(tmp_path, fixtures_dir)
    series_csv = tmp_path / "series.csv"
    rc = main(["aggregate", "--scored", str(scored), "--corpus", str(cleaned),
               "--out", str(series_csv)])
    assert rc == 0
    content = series_csv.read_text().splitlines()
    assert content[0] == "date,city,feature,value"
    assert any(",Toronto,compound_mean," in line for line in content[1:])
    assert any(",Toronto,like_total," in line for line in content[1:])

    out_dir = tmp_path / "hm"
    rc = main(["heatmap", "--series", str(series_csv), "--feature", "tweet_count",
               "--out-dir", str(out_dir)])
    assert rc == 0
    csv_lines = (out_dir / "heatmap_tweet_count.csv").read_text().splitlines()
    assert len(csv_lines) == 2  # header + 1 city
    assert (out_dir / "heatmap_tweet_count.svg").read_text().startswith("<svg")


def test_heatmap_two_city_fixture(tmp_path):
    series_csv = tmp_path / "series.csv"
    series_csv.write_text(
        "date,city,feature,value\n"
        "2020-03-01,A,compound_mean,0.2\n"
        "2020-03-02,A,compound_mean,-0.1\n"
        "2020-03-01,B,compound_mean,0.5\n"
        "2020-03-02,B,compound_mean,0.0\n"
    )
    out_dir = tmp_path / "hm"
    rc = main(["heatmap", "--series", str(series_csv), "--feature", "compound_mean",
               "--out-dir", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "heatmap_compound_mean.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("A,") and lines[2].startswith("B,")


def test_aggregate_keyword_needs_corpus(tmp_path, fixtures_dir):
    _, scored = scored_setup(tmp_path, fixtures_dir)
    rc = main(["aggregate", "--scored", str(scored), "--keyword", "flight",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 2


def test_aggregate_keyword_filters(tmp_path, fixtures_dir):
    cleaned, scored = scored_setup(tmp_path, fixtures_dir)
    series_csv = tmp_path / "series.csv"
    rc = main(["aggregate", "--scored", str(scored), "--corpus", str(cleaned),
               "--keyword", "flight", "--features", "tweet_count",
               "--out", str(series_csv)])
    assert rc == 0
    rows = [l for l in series_csv.read_text().splitlines()[1:] if l]
    # two fixture posts mention flights
    assert len(rows) == 1
    assert rows[0].endswith("2.0")


def write_posts(path: Path, posts) -> None:
    """Posts as (id, date, city, text, like_count) in a JSON-lines corpus."""
    path.write_text("".join(
        json.dumps({"id": pid, "date": day, "city": city, "text": text, "like_count": likes}) + "\n"
        for pid, day, city, text, likes in posts
    ))


def test_duplicate_ids_keep_first_post(tmp_path, capsys):
    corpus = tmp_path / "raw.jsonl"
    write_posts(corpus, [
        ("p1", "2020-03-01", "Toronto", ENGLISH_TEXTS[0], 1),
        ("p1", "2020-03-02", "Toronto", ENGLISH_TEXTS[1], 7),
    ])
    assert main(["pipeline", "--in", str(corpus), "--out-dir", str(tmp_path / "out")]) == 0
    assert "duplicate_ids_dropped: 1" in capsys.readouterr().out
    rows = (tmp_path / "out" / "series.csv").read_text().splitlines()
    likes = [row for row in rows if ",like_total," in row]
    assert likes == ["2020-03-01,Toronto,like_total,1.0"]
    report_path = tmp_path / "report.json"
    assert main(["clean", "--in", str(corpus), "--out", str(tmp_path / "c.jsonl"),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["duplicate_ids_dropped"] == 1
    assert report["output_posts"] == 1


def test_clean_keeps_first_english_post_of_each_id(tmp_path):
    # the first "p1" fails the language filter, so the second one is kept
    corpus = tmp_path / "raw.jsonl"
    corpus.write_text("".join(json.dumps(rec) + "\n" for rec in [
        {"id": "p1", "date": "2020-03-01", "city": "X", "text": FRENCH_TEXTS[0], "lang": "fr"},
        {"id": "p1", "date": "2020-03-02", "city": "X", "text": ENGLISH_TEXTS[0]},
        {"id": "p1", "date": "2020-03-03", "city": "X", "text": ENGLISH_TEXTS[1]},
    ]))
    out = tmp_path / "clean.jsonl"
    report_path = tmp_path / "report.json"
    assert main(["clean", "--in", str(corpus), "--out", str(out),
                 "--report", str(report_path)]) == 0
    kept = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(p["id"], p["date"]) for p in kept] == [("p1", "2020-03-02")]
    report = json.loads(report_path.read_text())
    assert report["rule2_removed_non_english"] == 1
    assert report["duplicate_ids_dropped"] == 1


def aggregate_against_corpus(tmp_path, capsys, corpus_posts):
    """Score posts "a" and "b", then aggregate them against another corpus."""
    cleaned = tmp_path / "cleaned.jsonl"
    scored = tmp_path / "scored.csv"
    write_posts(cleaned, [
        ("a", "2020-03-01", "Toronto", ENGLISH_TEXTS[0], 1),
        ("b", "2020-03-02", "Toronto", ENGLISH_TEXTS[1], 2),
    ])
    assert main(["score", "--in", str(cleaned), "--out", str(scored)]) == 0
    corpus = tmp_path / "corpus.jsonl"
    write_posts(corpus, corpus_posts)
    out = tmp_path / "series.csv"
    capsys.readouterr()
    rc = main(["aggregate", "--scored", str(scored), "--corpus", str(corpus), "--out", str(out)])
    return rc, capsys.readouterr().err, out.exists()


def test_aggregate_rejects_repeated_corpus_ids(tmp_path, capsys):
    rc, err, written = aggregate_against_corpus(tmp_path, capsys, [
        ("a", "2020-03-01", "Toronto", ENGLISH_TEXTS[0], 1),
        ("b", "2020-03-02", "Toronto", ENGLISH_TEXTS[1], 2),
        ("b", "2020-03-03", "Toronto", ENGLISH_TEXTS[2], 3),
    ])
    assert rc == 2
    assert "post id 'b' repeats" in err
    assert not written


def test_aggregate_rejects_scored_id_missing_from_corpus(tmp_path, capsys):
    rc, err, written = aggregate_against_corpus(tmp_path, capsys, [
        ("a", "2020-03-01", "Toronto", ENGLISH_TEXTS[0], 1),
    ])
    assert rc == 2
    assert "scored post 'b' is not in" in err
    assert not written


@pytest.mark.parametrize("with_corpus", [False, True])
def test_aggregate_rejects_repeated_scored_ids(tmp_path, capsys, with_corpus):
    cleaned = tmp_path / "cleaned.jsonl"
    scored = tmp_path / "scored.csv"
    write_posts(cleaned, [
        ("a", "2020-03-01", "Toronto", ENGLISH_TEXTS[0], 1),
        ("b", "2020-03-01", "Toronto", ENGLISH_TEXTS[1], 2),
        ("b", "2020-03-02", "Toronto", ENGLISH_TEXTS[2], 3),
    ])
    assert main(["score", "--in", str(cleaned), "--out", str(scored)]) == 0
    out = tmp_path / "series.csv"
    argv = ["aggregate", "--scored", str(scored), "--out", str(out)]
    if with_corpus:
        corpus = tmp_path / "corpus.jsonl"
        write_posts(corpus, [
            ("a", "2020-03-01", "Toronto", ENGLISH_TEXTS[0], 1),
            ("b", "2020-03-01", "Toronto", ENGLISH_TEXTS[1], 2),
        ])
        argv += ["--corpus", str(corpus)]
    capsys.readouterr()
    assert main(argv) == 2
    assert "scored post id 'b' repeats" in capsys.readouterr().err
    assert not out.exists()


def test_aggregate_periods_summary(tmp_path, fixtures_dir):
    cleaned, scored = scored_setup(tmp_path, fixtures_dir)
    periods = tmp_path / "periods.ini"
    periods.write_text("[DEFAULT]\nperiod1 = 2020-02-01/2020-02-24\n")
    period_out = tmp_path / "periods.csv"
    rc = main(["aggregate", "--scored", str(scored), "--out", str(tmp_path / "s.csv"),
               "--periods", str(periods), "--period-out", str(period_out)])
    assert rc == 0
    lines = period_out.read_text().splitlines()
    assert lines[0] == "city,period,n_tweets,mean,sd"
    assert any(line.startswith("Toronto,period1,5,") for line in lines)


# ---------------------------------------------------------------------------
# synth + ccm + gridsearch


def test_synth_ccm_recovers_ground_truth(tmp_path):
    series_csv = tmp_path / "synth.csv"
    rc = main(["synth", "--mode", "coupled", "--coupling-yx", "0.3",
               "--growth-y", "3.82", "--length", "500", "--seed", "5",
               "--out", str(series_csv)])
    assert rc == 0
    out_dir = tmp_path / "ccm"
    rc = main(["ccm", "--series", str(series_csv), "--city", "unit00",
               "--input-feature", "x", "--target-feature", "y",
               "--out-dir", str(out_dir), "--seed", "7"])
    assert rc == 0
    verdict = json.loads((out_dir / "ccm_verdict.json").read_text())
    assert verdict["classification"] == "X_causes_Y"
    curves = (out_dir / "ccm_curves.csv").read_text().splitlines()
    assert curves[0] == "direction,tau,rho"
    assert sum(1 for l in curves if l.startswith("x->y,")) == 61


def test_ccm_rejects_misaligned_dates(tmp_path, capsys):
    # equal lengths, date ranges shifted by one day
    values = [0.1 * (i % 7) + 0.2 for i in range(60)]
    start = dt.date(2020, 3, 1)

    def rows(feature, offset):
        return [f"{start + dt.timedelta(days=i + offset)},unit00,{feature},{v!r}"
                for i, v in enumerate(values)]

    header = ["date,city,feature,value"]
    x_csv = tmp_path / "x.csv"
    y_csv = tmp_path / "y.csv"
    both_csv = tmp_path / "both.csv"
    x_csv.write_text("\n".join(header + rows("x", 0)) + "\n")
    y_csv.write_text("\n".join(header + rows("y", 1)) + "\n")
    both_csv.write_text("\n".join(header + rows("x", 0) + rows("y", 1)) + "\n")
    for args in (["--x", str(x_csv), "--y", str(y_csv)],
                 ["--series", str(both_csv), "--input-feature", "x", "--target-feature", "y"]):
        rc = main(["ccm", *args, "--out-dir", str(tmp_path / "ccm")])
        assert rc == 2
        assert "identical dates" in capsys.readouterr().err
    assert not (tmp_path / "ccm" / "ccm_verdict.json").exists()


def test_synth_ar1_mode(tmp_path):
    series_csv = tmp_path / "ar1.csv"
    rc = main(["synth", "--mode", "ar1", "--phi", "0.5", "--length", "100",
               "--units", "2", "--seed", "1", "--out", str(series_csv)])
    assert rc == 0
    rows = series_csv.read_text().splitlines()
    assert len(rows) == 1 + 100 * 2 * 2


def test_gridsearch_tiny_grid_winner_is_that_cell(tmp_path):
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--mode", "coupled", "--coupling-yx", "0.3",
                 "--length", "300", "--units", "4", "--seed", "5",
                 "--out", str(panel)]) == 0
    out_dir = tmp_path / "gs"
    rc = main(["gridsearch", "--panel", str(panel), "--input-feature", "x",
               "--target-feature", "y", "--grid", "tiny",
               "--out-dir", str(out_dir), "--seed", "3"])
    assert rc == 0
    winner = json.loads((out_dir / "gridsearch_winner.json").read_text())
    assert winner["winner_index"] == 0
    assert winner["size"] == 100
    cells = (out_dir / "gridsearch_cells.csv").read_text().splitlines()
    assert len(cells) == 1 + 4  # header + one row per fold


def test_gridsearch_rejects_misaligned_dates(tmp_path, capsys):
    # equal lengths; city A's cases start 10 days after its compound_mean
    start = dt.date(2020, 3, 1)

    def rows(city, feature, offset, scale):
        return [f"{start + dt.timedelta(days=i + offset)},{city},{feature},"
                f"{1.0 + scale * ((i * 7) % 11)!r}" for i in range(60)]

    lines = ["date,city,feature,value"]
    for city, offset in (("A", 10), ("B", 0)):
        lines += rows(city, "compound_mean", 0, 0.05) + rows(city, "cases", offset, 0.3)
    panel = tmp_path / "panel.csv"
    panel.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "gs"
    rc = main(["gridsearch", "--panel", str(panel), "--input-feature", "compound_mean",
               "--target-feature", "cases", "--grid", "tiny", "--out-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'A'" in err and "identical dates" in err
    assert not (out_dir / "gridsearch_winner.json").exists()


# ---------------------------------------------------------------------------
# composition and reproducibility


def test_pipeline_equals_staged_composition(tmp_path, fixtures_dir):
    # two cities with their own ranges and gap days; listed Toronto first
    two_city = tmp_path / "two_city.jsonl"
    write_posts(two_city, [
        ("t1", "2020-03-02", "Toronto", ENGLISH_TEXTS[0], 3),
        ("m1", "2020-03-01", "Montreal", ENGLISH_TEXTS[1], 1),
        ("t2", "2020-03-05", "Toronto", ENGLISH_TEXTS[4], 0),
        ("m2", "2020-03-04", "Montreal", ENGLISH_TEXTS[5], 2),
        ("t3", "2020-03-05", "Toronto", ENGLISH_TEXTS[7], 5),
        ("m3", "2020-03-09", "Montreal", ENGLISH_TEXTS[6], 4),
    ])
    for corpus in (f"{fixtures_dir}/toronto_feb24.jsonl", str(two_city)):
        run_dir = tmp_path / Path(corpus).stem
        staged = run_dir / "staged"
        staged.mkdir(parents=True)
        cleaned = staged / "cleaned.jsonl"
        scored = staged / "scored.csv"
        series_csv = staged / "series.csv"
        assert main(["clean", "--in", corpus, "--out", str(cleaned)]) == 0
        assert main(["score", "--in", str(cleaned), "--out", str(scored)]) == 0
        assert main(["aggregate", "--scored", str(scored), "--corpus", str(cleaned),
                     "--out", str(series_csv)]) == 0

        oneshot = run_dir / "oneshot"
        assert main(["pipeline", "--in", corpus, "--out-dir", str(oneshot)]) == 0
        assert (oneshot / "cleaned.jsonl").read_bytes() == cleaned.read_bytes()
        assert (oneshot / "scored.csv").read_bytes() == scored.read_bytes()
        assert (oneshot / "series.csv").read_bytes() == series_csv.read_bytes()
    rows = series_csv.read_text().splitlines()
    assert rows[1].startswith("2020-03-01,Montreal,compound_mean,")
    assert "2020-03-03,Toronto,like_total,0.0" in rows
    assert sum(1 for row in rows if ",Montreal,tweet_count," in row) == 9


def counting(monkeypatch, counts, name, owners):
    """Count calls of the function ``name`` as each of ``owners`` resolves it."""
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for owner in owners:
        assert getattr(owner, name) is original
        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("corpus", ["fixture", "mixed"])
def test_pipeline_strips_each_post_once_and_tokenizes_each_kept_post_once(
    tmp_path, fixtures_dir, monkeypatch, capsys, corpus
):
    if corpus == "fixture":
        path = Path(fixtures_dir) / "toronto_feb24.jsonl"
    else:
        path = tmp_path / "raw.jsonl"
        write_mixed_corpus(path)
        with path.open("a") as fh:
            fh.write(json.dumps({"id": "en0", "date": "2020-03-02", "city": "X",
                                 "text": "see @you at https://t.co/x #home"}) + "\n")
    counts = dict.fromkeys(("strip_artifacts", "tokenize", "read_corpus", "is_english"), 0)
    counting(monkeypatch, counts, "strip_artifacts", [cli, sentiment, textpipe])
    counting(monkeypatch, counts, "tokenize", [cli, sentiment, textpipe])
    counting(monkeypatch, counts, "read_corpus", [cli, textpipe])
    counting(monkeypatch, counts, "is_english", [cli, textpipe])
    assert main(["pipeline", "--in", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    n_input = sum(1 for line in path.read_text().splitlines() if line.strip())
    n_kept = len((tmp_path / "out" / "cleaned.jsonl").read_text().splitlines())
    assert f"input_posts: {n_input}" in out and f"output_posts: {n_kept}" in out
    assert counts == {"strip_artifacts": n_input, "tokenize": n_kept,
                      "read_corpus": 1, "is_english": n_input}
    if corpus == "mixed":
        assert n_kept < n_input


def test_byte_identical_reruns(tmp_path, fixtures_dir):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out_dir in (a, b):
        assert main(["pipeline", "--in", f"{fixtures_dir}/toronto_feb24.jsonl",
                     "--out-dir", str(out_dir)]) == 0
    for name in ("cleaned.jsonl", "scored.csv", "series.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_resolution_from_env(tmp_path, monkeypatch, capsys):
    series_csv = tmp_path / "synth.csv"
    monkeypatch.setenv("ECHOSENT_RUN_SEED", "99")
    rc = main(["synth", "--mode", "ar1", "--length", "50", "--out", str(series_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "run.seed=99" in out


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nseed = 7\nlength = 64\n")
    series_csv = tmp_path / "synth.csv"
    rc = main(["synth", "--mode", "ar1", "--config", str(cfg), "--out", str(series_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "run.seed=7" in out and "run.length=64" in out
    rows = series_csv.read_text().splitlines()
    assert len(rows) == 1 + 64 * 2


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nseed = 7\n")
    rc = main(["synth", "--mode", "ar1", "--length", "50", "--config", str(cfg),
               "--seed", "11", "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert "run.seed=11" in capsys.readouterr().out


def test_unknown_errors_exit_2(tmp_path):
    rc = main(["score", "--in", "/nonexistent.jsonl", "--out", str(tmp_path / "s.csv")])
    assert rc == 2


def test_log_level_controls_skip_warnings_only(tmp_path):
    # A 45-day pair leaves positive lags past 5 with windows under 10 rows.
    # The CLI runs in its own process so that its logging set-up is the one
    # a user gets.
    series_csv = tmp_path / "short.csv"
    assert main(["synth", "--mode", "ar1", "--length", "45", "--units", "1",
                 "--seed", "2", "--out", str(series_csv)]) == 0
    src = str(Path(echosent.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    runs = {}
    for level in (None, "ERROR"):
        out_dir = tmp_path / f"ccm_{level}"
        flags = ["--log-level", level] if level else []
        proc = subprocess.run(
            [sys.executable, "-m", "echosent.cli", *flags, "ccm", "--series", str(series_csv),
             "--input-feature", "x", "--target-feature", "y", "--out-dir", str(out_dir)],
            capture_output=True, text=True, env=env, check=True,
        )
        runs[level] = (proc.stderr, out_dir)
    default_err, default_dir = runs[None]
    quiet_err, quiet_dir = runs["ERROR"]
    assert "WARNING echosent.ccm: x->y: lag 6 skipped (window 9 < 10)" in default_err
    assert "y->x: lag 30 skipped" in default_err
    assert quiet_err == ""
    for name in ("ccm_curves.csv", "ccm_verdict.json"):
        assert (default_dir / name).read_bytes() == (quiet_dir / name).read_bytes()


# ---------------------------------------------------------------------------
# series and scored CSV rows


@pytest.mark.parametrize("command", ["heatmap", "aggregate"])
def test_a_short_row_exits_2_with_its_path_and_line(tmp_path, capsys, command):
    if command == "heatmap":
        path = tmp_path / "series.csv"
        path.write_text("date,city,feature,value\n"
                        "2020-03-01,A,compound_mean,0.1\n"
                        "2020-03-02,A,compound_mean\n")
        argv = ["heatmap", "--series", str(path), "--out-dir", str(tmp_path / "hm")]
        want = f"{path}:3: expected 4 fields, got 3"
    else:
        path = tmp_path / "scored.csv"
        path.write_text(",".join(sentiment.SCORED_COLUMNS) + "\n"
                        "p1,2020-03-01,Toronto,0.0,1.0\n")
        argv = ["aggregate", "--scored", str(path), "--out", str(tmp_path / "series.csv")]
        want = f"{path}:2: expected 17 fields, got 5"
    capsys.readouterr()
    assert main(argv) == 2
    assert want in capsys.readouterr().err


def test_a_gap_in_a_series_the_command_does_not_keep_is_not_an_error(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--mode", "coupled", "--coupling-yx", "0.3", "--length", "120",
                 "--units", "3", "--seed", "5", "--out", str(panel)]) == 0
    # unit00 also carries a feature "z" with a one-day gap; x and y are contiguous
    with panel.open("a", encoding="utf-8") as fh:
        fh.write("2020-01-01,unit00,z,1.0\n2020-01-03,unit00,z,2.0\n")
    runs = [
        ["heatmap", "--series", str(panel), "--feature", "x", "--out-dir", str(tmp_path / "hm")],
        ["ccm", "--series", str(panel), "--city", "unit00", "--input-feature", "x",
         "--target-feature", "y", "--lag-lo", "-3", "--lag-hi", "3",
         "--out-dir", str(tmp_path / "ccm")],
        ["gridsearch", "--panel", str(panel), "--input-feature", "x", "--target-feature", "y",
         "--grid", "tiny", "--out-dir", str(tmp_path / "gs")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv[0]
    # a series the command keeps must still be contiguous
    capsys.readouterr()
    assert main(["heatmap", "--series", str(panel), "--feature", "z",
                 "--out-dir", str(tmp_path / "hm_z")]) == 2
    assert "gap after 2020-01-01" in capsys.readouterr().err
    # and a row that does not parse fails every command, kept or not
    with panel.open("a", encoding="utf-8") as fh:
        fh.write("2020-01-04,unit00,z,abc\n")
    line = 1 + 3 * 2 * 120 + 3
    for argv in runs:
        assert main(argv) == 2, argv[0]
        assert f"{panel}:{line}: bad value 'abc'" in capsys.readouterr().err
