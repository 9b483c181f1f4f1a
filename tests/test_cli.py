import codecs
import csv
import datetime as dt
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import echosent
from echosent import cli, sentiment, series, textpipe
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


def test_pipeline_report_equals_clean_report(tmp_path, capsys, vlex, stopwords):
    corpus = tmp_path / "raw.jsonl"
    write_mixed_corpus(corpus)
    # the last post has no stopword-free token: rule 3 drops all five of its chunks
    with corpus.open("a") as fh:
        fh.write(json.dumps({"id": "x1", "date": "2020-03-02", "city": "Toronto",
                             "text": "so GOOD :-) see https://t.co/abc @you !!", "lang": "en"}) + "\n")
        fh.write(json.dumps({"id": "x2", "date": "2020-03-02", "city": "Toronto",
                             "text": "the, and ... of it!", "lang": "en"}) + "\n")
    report_path = tmp_path / "report.json"
    assert main(["clean", "--in", str(corpus), "--out", str(tmp_path / "clean.jsonl"),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    capsys.readouterr()
    assert main(["pipeline", "--in", str(corpus), "--out-dir", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert all(f"{key}: {value}" in printed for key, value in report.items())
    assert report["rule1_posts_with_artifacts"] == 1
    # rule 3 by the per-post functions: each kept post's chunks less its stopword-free tokens
    dropped = {
        p.id: len(p.text.split())
        - len(textpipe.remove_stopwords(textpipe.tokenize(p.text, vlex.symbol_tokens()),
                                        stopwords).tokens)
        for p in textpipe.read_corpus(tmp_path / "clean.jsonl")
    }
    assert dropped["x2"] == 5
    assert report["rule3_tokens_dropped"] == sum(dropped.values())
    with (tmp_path / "out" / "scored.csv").open(newline="") as fh:
        row = next(r for r in csv.DictReader(fh) if r["id"] == "x2")
    assert [row[f"emo_{c}"] for c in sentiment.EMOTION_CATEGORIES] == ["0.0"] * 10


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


def test_pipeline_exits_nonzero_on_heavy_malformation(tmp_path, capsys):
    corpus = tmp_path / "raw.jsonl"
    good = json.dumps({"id": "a", "date": "2020-03-01", "city": "X",
                       "text": "the vaccine works well"})
    corpus.write_text(good + "\nnot json at all\n")
    capsys.readouterr()
    rc = main(["pipeline", "--in", str(corpus), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "error: 50.0% malformed lines" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("field, value", [
    # ISO 8601 forms of 2020-03-01 that Python 3.11's date.fromisoformat takes
    ("date", "20200301"), ("date", "2020-W09-7"),
    ("like_count", 3.7), ("reply_count", "3"), ("retweet_count", True),
    ("retweet_count", -1), ("city", ""),
])
def test_a_bad_date_or_count_makes_a_corpus_line_malformed_in_every_command(
    tmp_path, capsys, field, value
):
    good = {"id": "a", "date": "2020-03-01", "city": "X", "text": ENGLISH_TEXTS[0]}
    corpus = tmp_path / "raw.jsonl"
    bad = {**good, "id": "b", field: value}
    corpus.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    # clean and pipeline skip the line and count it
    cleaned, report = tmp_path / "cleaned.jsonl", tmp_path / "report.json"
    main(["clean", "--in", str(corpus), "--out", str(cleaned), "--report", str(report)])
    counts = json.loads(report.read_text())
    assert (counts["malformed_lines"], counts["output_posts"]) == (1, 1)
    main(["pipeline", "--in", str(corpus), "--out-dir", str(tmp_path / "pipe")])
    assert "malformed_lines: 1" in capsys.readouterr().out.splitlines()
    # score and aggregate --corpus refuse it, naming the file and the line
    scored = tmp_path / "scored.csv"
    assert main(["score", "--in", str(corpus), "--out", str(scored)]) == 2
    assert f"error: {corpus}:2: bad post record" in capsys.readouterr().err
    assert main(["score", "--in", str(cleaned), "--out", str(scored)]) == 0
    assert main(["aggregate", "--scored", str(scored), "--corpus", str(corpus),
                 "--out", str(tmp_path / "series.csv")]) == 2
    assert f"error: {corpus}:2: bad post record" in capsys.readouterr().err


def test_a_corpus_line_that_is_no_utf8_is_malformed_in_every_command(tmp_path, capsys):
    good = {"id": "a", "date": "2020-03-01", "city": "X", "text": ENGLISH_TEXTS[0]}
    corpus = tmp_path / "raw.jsonl"
    latin1 = b'{"id": "b", "date": "2020-03-01", "city": "Montr\xe9al", "text": "hi"}'
    corpus.write_bytes(json.dumps(good).encode() + b"\n" + latin1 + b"\n")
    # clean and pipeline skip the line and count it (1 of 2 lines: clean exits 1)
    cleaned, report = tmp_path / "cleaned.jsonl", tmp_path / "report.json"
    assert main(["clean", "--in", str(corpus), "--out", str(cleaned),
                 "--report", str(report)]) == 1
    counts = json.loads(report.read_text())
    assert (counts["malformed_lines"], counts["output_posts"]) == (1, 1)
    main(["pipeline", "--in", str(corpus), "--out-dir", str(tmp_path / "pipe")])
    assert "malformed_lines: 1" in capsys.readouterr().out.splitlines()
    # score and aggregate --corpus refuse it, naming the file and the line
    scored = tmp_path / "scored.csv"
    assert main(["score", "--in", str(corpus), "--out", str(scored)]) == 2
    assert f"error: {corpus}:2: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
    assert main(["score", "--in", str(cleaned), "--out", str(scored)]) == 0
    assert main(["aggregate", "--scored", str(scored), "--corpus", str(corpus),
                 "--out", str(tmp_path / "series.csv")]) == 2
    assert f"error: {corpus}:2: 'utf-8' codec" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    '{"id": "b", "date": "2020-03-01", "city": null, "text": "the vaccine works"}',
    '{"id": "b", "date": "2020-03-01", "city": ["X"], "text": "the vaccine works"}',
    '{"id": "b", "date": "2020-03-01", "city": "X", "text": null}',
    '{"id": "b", "date": "2020-03-01", "city": "X", "text": "the vaccine works", "lang": 5}',
    '{"id": null, "date": "2020-03-01", "city": "X", "text": "the vaccine works"}',
    '{"id": 1.5, "date": "2020-03-01", "city": "X", "text": "the vaccine works"}',
    '["b", "2020-03-01", "X", "the vaccine works"]',
    '3',
], ids=["city-null", "city-list", "text-null", "lang-int", "id-null", "id-float", "array",
        "number"])
def test_a_field_of_another_json_type_makes_a_corpus_line_malformed(tmp_path, capsys, line):
    corpus = tmp_path / "raw.jsonl"
    good = {"id": "a", "date": "2020-03-01", "city": "X", "text": ENGLISH_TEXTS[0]}
    corpus.write_text(json.dumps(good) + "\n" + line + "\n")
    cleaned, report = tmp_path / "cleaned.jsonl", tmp_path / "report.json"
    main(["clean", "--in", str(corpus), "--out", str(cleaned), "--report", str(report)])
    counts = json.loads(report.read_text())
    assert (counts["malformed_lines"], counts["output_posts"]) == (1, 1)
    capsys.readouterr()
    assert main(["score", "--in", str(corpus), "--out", str(tmp_path / "scored.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {corpus}:2: bad post record" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--from", "--to"])
@pytest.mark.parametrize("value", ["20200301", "2020-W09-7", "2020-3-1"])
def test_from_and_to_take_only_yyyy_mm_dd_days(tmp_path, capsys, flag, value):
    assert main(["aggregate", "--scored", str(tmp_path / "scored.csv"), flag, value,
                 "--out", str(tmp_path / "series.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag}: bad date {value!r}, expected YYYY-MM-DD" in err
    assert "parse_day" not in err


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


def test_scored_rows_read_back_as_the_posts_score_scored(tmp_path, vlex, elex, stopwords):
    # the reader once filled in emotion counts, a word total and a flag the file does not hold
    corpus = tmp_path / "corpus.jsonl"
    write_posts(corpus, [
        ("a", "2020-03-01", "Toronto", "we ADMIRE the beautiful award", 1),
        ("b", "2020-03-01", "Toronto", "an angry attack, such agony and anxiety!!", 2),
        ("c", "2020-03-02", "Montreal", "the, and ... of it!", 3),
    ])
    scored = tmp_path / "scored.csv"
    assert main(["score", "--in", str(corpus), "--out", str(scored)]) == 0
    chunks = sentiment.ScoringTable(vlex, elex, stopwords)
    fresh = [sentiment.score_post(p, chunks) for p in textpipe.read_corpus(corpus)]
    back = sentiment.read_scored_csv(scored)
    assert any(any(sp.emotions) for sp in fresh)
    assert [sp.emotions for sp in back] == [sp.emotions for sp in fresh]
    assert [sp[:5] for sp in back] == [sp[:5] for sp in fresh]


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


def test_heatmap_reads_pipeline_series_of_cities_with_their_own_ranges(tmp_path):
    corpus = tmp_path / "two_city.jsonl"
    write_posts(corpus, [
        ("t1", "2020-03-02", "Toronto", ENGLISH_TEXTS[0], 3),
        ("m1", "2020-03-01", "Montreal", ENGLISH_TEXTS[1], 1),
        ("t2", "2020-03-05", "Toronto", ENGLISH_TEXTS[4], 0),
        ("m3", "2020-03-09", "Montreal", ENGLISH_TEXTS[6], 4),
    ])
    assert main(["pipeline", "--in", str(corpus), "--out-dir", str(tmp_path / "pipe")]) == 0
    out_dir = tmp_path / "hm"
    assert main(["heatmap", "--series", str(tmp_path / "pipe" / "series.csv"),
                 "--feature", "tweet_count", "--out-dir", str(out_dir)]) == 0
    header, montreal, toronto = (out_dir / "heatmap_tweet_count.csv").read_text().splitlines()
    assert header == "city," + ",".join(f"2020-03-0{d}" for d in range(1, 10))
    assert montreal == "Montreal,1.0" + ",0.0" * 7 + ",1.0"
    assert toronto == "Toronto,,1.0,0.0,0.0,1.0,,,,"
    assert (out_dir / "heatmap_tweet_count.svg").read_text().count("<rect") == 9 + 4


def ar1_series_with(tmp_path, feature, day, bad) -> Path:
    """A ``synth --mode ar1 --length 200`` file whose ``feature`` value on day ``day`` is ``bad``."""
    path = tmp_path / "ar1.csv"
    assert main(["synth", "--mode", "ar1", "--length", "200", "--out", str(path)]) == 0
    lines = path.read_text().splitlines(keepends=True)
    row = next(k for k, line in enumerate(lines) if f",unit00,{feature}," in line) + day
    lines[row] = lines[row].rsplit(",", 1)[0] + f",{bad}\r\n"
    path.write_text("".join(lines), newline="")
    return path


# nan on the first day set every drawn cell to full positive, and one inf
# turned every other cell white; both exited 0
@pytest.mark.parametrize("day, bad", [(0, "nan"), (99, "inf"), (199, "-inf")])
def test_heatmap_rejects_a_value_that_is_not_finite(tmp_path, capsys, day, bad):
    path = ar1_series_with(tmp_path, "y", day, bad)
    capsys.readouterr()
    out_dir = tmp_path / "hm"
    assert main(["heatmap", "--series", str(path), "--feature", "y",
                 "--out-dir", str(out_dir)]) == 2
    date = dt.date(2020, 1, 1) + dt.timedelta(days=day)
    assert (f"error: {path}: series 'unit00'/'y': value {bad} on {date} is not finite"
            in capsys.readouterr().err)
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["heatmap", "--feature", "z"], "no 'z' series in {path}"),
    (["ccm", "--city", "unit01", "--input-feature", "x", "--target-feature", "y"],
     "{path}: city 'unit01' has no 'y' series"),
])
def test_a_series_file_without_the_series_a_command_needs_exits_2(tmp_path, capsys, argv,
                                                                 message):
    path = tmp_path / "series.csv"
    path.write_text("date,city,feature,value\n"
                    "2020-03-01,unit00,x,0.1\n2020-03-01,unit00,y,0.2\n"
                    "2020-03-01,unit01,x,0.3\n")
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main([*argv, "--series", str(path), "--out-dir", str(out_dir)]) == 2
    assert f"error: {message.format(path=path)}" in capsys.readouterr().err
    assert not out_dir.exists()


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


@pytest.mark.parametrize("keyword", ["flight", "FLIGHT", "Straße", "STRASSE", "ß", "é", None, ""])
def test_join_corpus_keeps_what_keyword_filter_keeps(tmp_path, keyword):
    corpus = tmp_path / "cleaned.jsonl"
    write_posts(corpus, [
        ("a", "2020-03-01", "Toronto", "my Flight was late", 1),
        ("b", "2020-03-01", "Toronto", "die STRASSE ist leer", 2),
        ("c", "2020-03-02", "Toronto", "la straße et le café", 3),
        ("d", "2020-03-02", "Montreal", "nothing here", 4),
    ])
    raw = list(textpipe.read_corpus(corpus))
    neutral = sentiment.SentimentScore(0.0, 1.0, 0.0, 0.0)
    no_emotions = (0.0,) * 10
    scored = [sentiment.ScoredPost(p.id, p.date, p.city, neutral, no_emotions) for p in reversed(raw)]
    joined = cli._join_corpus(scored, corpus, keyword)
    kept = {p.id for p in cli.series.keyword_filter(raw, keyword)} if keyword else None
    want = [sp for sp in scored if kept is None or sp.id in kept]
    assert [sp.id for sp in joined] == [sp.id for sp in want]
    counts = {p.id: p[4:7] for p in raw}
    assert all(sp[:5] == w[:5] and sp[5:] == counts[sp.id] for sp, w in zip(joined, want))


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


@pytest.mark.parametrize("feature", ["like_total", "reply_total", "retweet_total"])
def test_aggregate_refuses_engagement_totals_without_the_corpus(tmp_path, fixtures_dir, capsys,
                                                              feature):
    # the scored CSV holds no counts: without --corpus the totals used to be written as 0.0
    cleaned, scored = scored_setup(tmp_path, fixtures_dir)
    periods = tmp_path / "periods.ini"
    periods.write_text("[DEFAULT]\nfeb = 2020-02-01/2020-02-28\n")
    out, period_out = tmp_path / "series.csv", tmp_path / "periods.csv"
    argv = ["aggregate", "--scored", str(scored), "--features", f"compound_mean,{feature}",
            "--periods", str(periods), "--period-out", str(period_out), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: aggregate: {feature} needs --corpus") and "Traceback" not in err
    assert not out.exists() and not period_out.exists()
    # the corpus holds the counts: Toronto's five posts on 2020-02-24
    assert main(argv + ["--corpus", str(cleaned)]) == 0
    totals = {"like_total": "15.0", "reply_total": "0.0", "retweet_total": "3.0"}
    assert f"2020-02-24,Toronto,{feature},{totals[feature]}" in out.read_text().splitlines()


def test_aggregate_without_the_corpus_builds_the_scored_features(tmp_path, fixtures_dir):
    _, scored = scored_setup(tmp_path, fixtures_dir)
    out = tmp_path / "series.csv"
    assert main(["aggregate", "--scored", str(scored), "--out", str(out)]) == 0
    features = {line.split(",")[2] for line in out.read_text().splitlines()[1:]}
    assert features == set(series.FEATURES[:2]) == {"compound_mean", "tweet_count"}


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


@pytest.mark.parametrize("text,message", [
    ("lockdown = 2020-03-17/2020-06-30\n", "no section headers"),
    ("[Toronto]\nsale = 50%off\n", "'50%off'"),
])
def test_a_periods_file_that_does_not_parse_exits_2(tmp_path, fixtures_dir, capsys, text,
                                                     message):
    _, scored = scored_setup(tmp_path, fixtures_dir)
    periods = tmp_path / "periods.ini"
    periods.write_text(text)
    capsys.readouterr()
    assert main(["aggregate", "--scored", str(scored), "--out", str(tmp_path / "s.csv"),
                 "--periods", str(periods)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_a_bad_period_stops_aggregate_before_it_writes(tmp_path, fixtures_dir, capsys):
    _, scored = scored_setup(tmp_path, fixtures_dir)
    periods = tmp_path / "periods.ini"
    periods.write_text("[Toronto]\nsale = 50%off\n")
    out = tmp_path / "series.csv"
    capsys.readouterr()
    assert main(["aggregate", "--scored", str(scored), "--out", str(out),
                 "--periods", str(periods)]) == 2
    assert (f"error: {periods}: [Toronto] bad period 'sale': '50%off'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_period_that_ends_before_it_starts_stops_aggregate(tmp_path, fixtures_dir, capsys):
    _, scored = scored_setup(tmp_path, fixtures_dir)
    periods = tmp_path / "periods.ini"
    periods.write_text("[Toronto]\nlockdown = 2020-06-30/2020-03-17\n")
    out = tmp_path / "series.csv"
    capsys.readouterr()
    assert main(["aggregate", "--scored", str(scored), "--out", str(out),
                 "--periods", str(periods)]) == 2
    assert (f"error: {periods}: [Toronto] period 'lockdown' ends before it starts"
            in capsys.readouterr().err)
    assert not out.exists()


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
    both_csv = tmp_path / "both.csv"
    both_csv.write_text("\n".join(header + rows("x", 0) + rows("y", 1)) + "\n")
    rc = main(["ccm", "--series", str(both_csv), "--input-feature", "x", "--target-feature", "y",
               "--out-dir", str(tmp_path / "ccm")])
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


# sha256 of each mode's CSV, recorded before the generators moved from numpy
# scalars to plain floats: the bytes must not change.
SYNTH_DIGESTS = {
    "coupled": (["--mode", "coupled", "--coupling-yx", "0.1", "--delay", "3", "--units", "2"],
                "010490f210527ff955439a96c5961706ba3c25d68912493d2d2c5a417fc4a468"),
    "ar1": (["--mode", "ar1", "--units", "2"],
            "38e2119cf266134c7eeda2d951d9f6a8880b8a00ebc60a43a4f47a40c960df34"),
}


@pytest.mark.parametrize("mode", sorted(SYNTH_DIGESTS))
def test_synth_csv_bytes_are_pinned(tmp_path, mode):
    argv, digest = SYNTH_DIGESTS[mode]
    out = tmp_path / "synth.csv"
    assert main(["synth", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def synth_panel(tmp_path, units=3) -> Path:
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--mode", "coupled", "--coupling-yx", "0.3", "--length", "200",
                 "--units", str(units), "--seed", "5", "--out", str(panel)]) == 0
    return panel


def test_gridsearch_tiny_grid_honours_the_washout(tmp_path):
    out_dir = tmp_path / "gs"
    assert main(["gridsearch", "--panel", str(synth_panel(tmp_path)), "--input-feature", "x",
                 "--target-feature", "y", "--grid", "tiny", "--washout", "5",
                 "--out-dir", str(out_dir)]) == 0
    assert json.loads((out_dir / "gridsearch_winner.json").read_text())["washout"] == 5
    with (out_dir / "gridsearch_cells.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 and {row["washout"] for row in rows} == {"5"}


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_gridsearch_rejects_a_target_that_is_not_finite(tmp_path, capsys, bad):
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--mode", "coupled", "--units", "3", "--length", "120",
                 "--out", str(panel)]) == 0
    lines = panel.read_text().splitlines(keepends=True)
    row = next(k for k, line in enumerate(lines) if ",unit01,y," in line) + 40
    lines[row] = lines[row].rsplit(",", 1)[0] + f",{bad}\r\n"
    panel.write_text("".join(lines), newline="")
    capsys.readouterr()
    out_dir = tmp_path / "gs"
    assert main(["gridsearch", "--panel", str(panel), "--input-feature", "x",
                 "--target-feature", "y", "--grid", "quick", "--washout", "10",
                 "--out-dir", str(out_dir)]) == 2
    assert (f"error: {panel}: series 'unit01'/'y': value {bad} on 2020-02-10 is not finite"
            in capsys.readouterr().err)
    assert not out_dir.exists()


def test_ccm_series_needs_exactly_one_city(tmp_path, capsys):
    panel = synth_panel(tmp_path, units=2)
    capsys.readouterr()
    assert main(["ccm", "--series", str(panel), "--input-feature", "x", "--target-feature", "y",
                 "--out-dir", str(tmp_path / "ccm")]) == 2
    assert "need exactly one city with both features" in capsys.readouterr().err


# the parent exited 2 with a bare "non-finite input" that named no series
@pytest.mark.parametrize("feature, day, bad", [("x", 0, "nan"), ("y", 120, "inf")])
def test_ccm_names_the_series_with_a_value_that_is_not_finite(tmp_path, capsys, feature, day,
                                                              bad):
    path = ar1_series_with(tmp_path, feature, day, bad)
    capsys.readouterr()
    out_dir = tmp_path / "ccm"
    assert main(["ccm", "--series", str(path), "--input-feature", "x", "--target-feature", "y",
                 "--out-dir", str(out_dir)]) == 2
    date = dt.date(2020, 1, 1) + dt.timedelta(days=day)
    assert (f"error: {path}: series 'unit00'/{feature!r}: value {bad} on {date} is not finite"
            in capsys.readouterr().err)
    assert not out_dir.exists()


def test_result_files_keep_their_schemas(tmp_path):
    panel = synth_panel(tmp_path)
    assert main(["gridsearch", "--panel", str(panel), "--input-feature", "x",
                 "--target-feature", "y", "--grid", "tiny", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "gridsearch_cells.csv").read_text().splitlines()[0] == (
        "config_index,size,spectral_radius,leak,input_scale,sparsity,ridge,seed,washout,fold,nrmse"
    )
    assert set(json.loads((tmp_path / "gridsearch_winner.json").read_text())) == {
        "winner_index", "size", "spectral_radius", "leak", "input_scale", "sparsity", "ridge",
        "seed", "washout", "mean_nrmse", "invalid_configs",
    }
    assert main(["ccm", "--series", str(panel), "--city", "unit00", "--input-feature", "x",
                 "--target-feature", "y", "--lag-lo", "-3", "--lag-hi", "3",
                 "--out-dir", str(tmp_path)]) == 0
    assert set(json.loads((tmp_path / "ccm_verdict.json").read_text())) == {
        "classification", "input_series", "target_series", "peak_lag_xy", "peak_rho_xy",
        "peak_lag_yx", "peak_rho_yx", "weak", "note", "tie_break", "seed",
    }
    corpus = tmp_path / "raw.jsonl"
    write_posts(corpus, [("a", "2020-03-01", "Toronto", ENGLISH_TEXTS[0], 0),
                         ("b", "2020-03-05", "Toronto", ENGLISH_TEXTS[4], 0)])
    assert main(["pipeline", "--in", str(corpus), "--out-dir", str(tmp_path)]) == 0
    periods = tmp_path / "periods.ini"
    periods.write_text("[DEFAULT]\nearly = 2020-03-01/2020-03-02\n")
    assert main(["aggregate", "--scored", str(tmp_path / "scored.csv"), "--periods", str(periods),
                 "--out", str(tmp_path / "s.csv")]) == 0
    header, early, outside = (tmp_path / "periods.csv").read_text().splitlines()
    assert header == "city,period,n_tweets,mean,sd"
    assert early.startswith("Toronto,early,1,") and early.endswith(",")
    assert outside.startswith("Toronto,(outside),1,") and outside.endswith(",")


# ---------------------------------------------------------------------------
# composition and reproducibility


@pytest.mark.parametrize("corpus", ["toronto_feb24", "nrc_emotions", "two_city"])
def test_pipeline_equals_staged_composition(tmp_path, fixtures_dir, corpus):
    if corpus == "two_city":
        # two cities with their own ranges and gap days; listed Toronto first
        path = tmp_path / "two_city.jsonl"
        write_posts(path, [
            ("t1", "2020-03-02", "Toronto", ENGLISH_TEXTS[0], 3),
            ("m1", "2020-03-01", "Montreal", ENGLISH_TEXTS[1], 1),
            ("t2", "2020-03-05", "Toronto", ENGLISH_TEXTS[4], 0),
            ("m2", "2020-03-04", "Montreal", ENGLISH_TEXTS[5], 2),
            ("t3", "2020-03-05", "Toronto", ENGLISH_TEXTS[7], 5),
            ("m3", "2020-03-09", "Montreal", ENGLISH_TEXTS[6], 4),
        ])
    else:
        path = Path(fixtures_dir) / f"{corpus}.jsonl"
    staged = tmp_path / "staged"
    staged.mkdir()
    cleaned = staged / "cleaned.jsonl"
    scored = staged / "scored.csv"
    series_csv = staged / "series.csv"
    assert main(["clean", "--in", str(path), "--out", str(cleaned)]) == 0
    assert main(["score", "--in", str(cleaned), "--out", str(scored)]) == 0
    assert main(["aggregate", "--scored", str(scored), "--corpus", str(cleaned),
                 "--out", str(series_csv)]) == 0

    oneshot = tmp_path / "oneshot"
    assert main(["pipeline", "--in", str(path), "--out-dir", str(oneshot)]) == 0
    assert (oneshot / "cleaned.jsonl").read_bytes() == cleaned.read_bytes()
    assert (oneshot / "scored.csv").read_bytes() == scored.read_bytes()
    assert (oneshot / "series.csv").read_bytes() == series_csv.read_bytes()
    if corpus == "nrc_emotions":
        # its words are in the bundled NRC excerpt, so nonzero emotions are compared
        with scored.open(encoding="utf-8", newline="") as fh:
            assert any(float(v) for row in csv.DictReader(fh)
                       for k, v in row.items() if k.startswith("emo_"))
    if corpus == "two_city":
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
    counts = dict.fromkeys(
        ("strip_artifacts", "entries", "tokenize", "read_corpus", "is_english"), 0)
    counting(monkeypatch, counts, "strip_artifacts", [cli, sentiment, textpipe])
    # a post's chunks are looked up in the command's chunk table once, for the
    # language filter, the scoring and the rule-3 count alike
    counting(monkeypatch, counts, "entries", [sentiment.ScoringTable])
    counting(monkeypatch, counts, "tokenize", [cli, sentiment, textpipe])
    counting(monkeypatch, counts, "read_corpus", [cli, textpipe])
    counting(monkeypatch, counts, "is_english", [cli, textpipe])
    assert main(["pipeline", "--in", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    n_input = len(lines)
    n_kept = len((tmp_path / "out" / "cleaned.jsonl").read_text().splitlines())
    assert f"input_posts: {n_input}" in out and f"output_posts: {n_kept}" in out
    assert counts["entries"] <= n_input
    # a post tagged with another language is dropped without a lookup
    n_looked_up = sum(1 for line in lines if line.get("lang") in (None, "en"))
    assert counts == {"strip_artifacts": n_input, "entries": n_looked_up, "tokenize": 0,
                      "read_corpus": 1, "is_english": 0}
    if corpus == "mixed":
        assert n_kept < n_input


def staged_and_pipeline_outputs(corpus: Path, out: Path) -> dict[str, bytes]:
    """The bytes of every output of a staged and a one-shot run over ``corpus``."""
    staged = out / "staged"
    staged.mkdir(parents=True)
    assert main(["clean", "--in", str(corpus), "--out", str(staged / "cleaned.jsonl"),
                 "--report", str(staged / "clean_report.json")]) == 0
    assert main(["score", "--in", str(staged / "cleaned.jsonl"),
                 "--out", str(staged / "scored.csv")]) == 0
    assert main(["aggregate", "--scored", str(staged / "scored.csv"), "--corpus",
                 str(staged / "cleaned.jsonl"), "--out", str(staged / "series.csv")]) == 0
    assert main(["pipeline", "--in", str(corpus), "--out-dir", str(out / "pipeline")]) == 0
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_emptying_the_chunk_table_mid_corpus_changes_no_output(tmp_path, fixtures_dir,
                                                               monkeypatch):
    corpus = tmp_path / "raw.jsonl"
    write_mixed_corpus(corpus)
    with corpus.open("a") as fh:
        fh.write(Path(fixtures_dir, "toronto_feb24.jsonl").read_text())
    want = staged_and_pipeline_outputs(corpus, tmp_path / "default_bound")
    sizes = []
    add = sentiment.ScoringTable._add

    def recording(self, chunk):
        sizes.append(len(self))
        return add(self, chunk)

    monkeypatch.setattr(sentiment, "CHUNK_TABLE_SIZE", 3)
    monkeypatch.setattr(sentiment.ScoringTable, "_add", recording)
    assert staged_and_pipeline_outputs(corpus, tmp_path / "bounded") == want
    assert max(sizes) == 3 and sizes.count(3) > 1  # emptied more than once
    assert {"pipeline/series.csv", "staged/clean_report.json"} <= set(want)


def test_command_runs_share_no_chunk_table(tmp_path, fixtures_dir, monkeypatch):
    tables = []
    init = sentiment.ScoringTable.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(weakref.ref(self))

    monkeypatch.setattr(sentiment.ScoringTable, "__init__", recording)
    corpus = f"{fixtures_dir}/toronto_feb24.jsonl"
    for k in range(2):
        assert main(["pipeline", "--in", corpus, "--out-dir", str(tmp_path / str(k))]) == 0
        gc.collect()
        # each run built one table, and nothing kept it once the run returned
        assert len(tables) == k + 1 and tables[k]() is None


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


# ---------------------------------------------------------------------------
# the settings table: flags, echo lines, env and config names

RESERVOIR_KEYS = {f"reservoir.{k}" for k in (
    "size", "spectral_radius", "leak", "input_scale", "sparsity", "ridge", "washout")}
LEXICON_KEYS = {"paths.valence_lexicon", "paths.emotion_lexicon", "paths.stopwords"}

# Every setting each command reads, as its echo line names it.
ECHOED_KEYS = {
    "clean": {"paths.corpus", "paths.wordlist", "paths.valence_lexicon", "paths.stopwords"},
    "score": {"paths.corpus", *LEXICON_KEYS},
    "aggregate": {"paths.scored", "paths.cleaned", "paths.periods", "run.features",
                  "run.cities", "run.keyword", "run.date_from", "run.date_to"},
    "heatmap": {"paths.series", "run.feature"},
    "ccm": {"run.seed", "paths.series", "run.city", "run.input_feature",
            "run.target_feature", "lags.lo", "lags.hi", *RESERVOIR_KEYS},
    "gridsearch": {"run.seed", "paths.panel", "run.input_feature", "run.target_feature",
                   "run.grid", "reservoir.washout"},
    "synth": {"run.seed", "run.mode", "run.length", "run.units", "run.growth_x", "run.growth_y",
              "run.coupling_xy", "run.coupling_yx", "run.delay", "run.noise_sd", "run.phi"},
    "pipeline": {"paths.corpus", "paths.wordlist", *LEXICON_KEYS},
}

# Arguments that take each command past its required-settings check; the
# named input files do not exist, so commands other than synth stop with
# exit 2 right after printing their settings.
BASE_ARGV = {
    "clean": ["--in", "missing.jsonl", "--out", "out.jsonl"],
    "score": ["--in", "missing.jsonl", "--out", "out.csv"],
    "aggregate": ["--scored", "missing.csv", "--out", "out.csv"],
    "heatmap": ["--series", "missing.csv", "--out-dir", "out"],
    "ccm": ["--series", "missing.csv", "--input-feature", "x", "--target-feature", "y",
            "--out-dir", "out"],
    "gridsearch": ["--panel", "missing.csv", "--input-feature", "x", "--target-feature", "y",
                   "--out-dir", "out"],
    "synth": ["--length", "20", "--out", "out.csv"],
    "pipeline": ["--in", "missing.jsonl", "--out-dir", "out"],
}


def settings_line(capsys, command, argv):
    """The echoed settings of one run, as a dict of ``section.key`` -> text."""
    capsys.readouterr()
    main([command, *argv])
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith(f"# {command} settings: ")]
    assert len(lines) == 1, (command, argv)
    return dict(part.split("=", 1) for part in lines[0].split(": ", 1)[1].split())


@pytest.mark.parametrize("command", sorted(ECHOED_KEYS))
def test_echo_names_every_setting_the_command_reads(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert set(settings_line(capsys, command, BASE_ARGV[command])) == ECHOED_KEYS[command]


def test_synth_model_parameters_are_echoed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    weak, strong = (settings_line(capsys, "synth", ["--coupling-yx", c, *BASE_ARGV["synth"]])
                    for c in ("0.0", "0.3"))
    assert weak != strong
    assert (weak["run.coupling_yx"], strong["run.coupling_yx"]) == ("0.0", "0.3")


def test_ccm_echoes_the_series_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert settings_line(capsys, "ccm", BASE_ARGV["ccm"])["paths.series"] == "missing.csv"


TEXT = ("from_config", "from_env", "from_flag")
INTS = ("7", "8", "9")
FLOATS = ("0.25", "0.5", "0.75")

# (section, key, command, flag, (config, env, flag) values): the 30 names that
# resolved from env and config before every setting went into one table ...
PARENT_NAMES = [
    ("paths", "corpus", "clean", "--in", TEXT),
    ("paths", "wordlist", "clean", "--wordlist", TEXT),
    ("paths", "valence_lexicon", "score", "--valence-lexicon", TEXT),
    ("paths", "emotion_lexicon", "score", "--emotion-lexicon", TEXT),
    ("paths", "stopwords", "score", "--stopwords", TEXT),
    ("paths", "scored", "aggregate", "--scored", TEXT),
    ("paths", "cleaned", "aggregate", "--corpus", TEXT),
    ("paths", "periods", "aggregate", "--periods", TEXT),
    ("paths", "series", "heatmap", "--series", TEXT),
    ("paths", "panel", "gridsearch", "--panel", TEXT),
    ("run", "seed", "gridsearch", "--seed", INTS),
    ("run", "keyword", "aggregate", "--keyword", TEXT),
    ("run", "features", "aggregate", "--features", TEXT),
    ("run", "cities", "aggregate", "--cities", TEXT),
    ("run", "date_from", "aggregate", "--from", ("2020-01-01", "2020-01-02", "2020-01-03")),
    ("run", "date_to", "aggregate", "--to", ("2020-02-01", "2020-02-02", "2020-02-03")),
    ("run", "feature", "heatmap", "--feature", TEXT),
    ("run", "grid", "gridsearch", "--grid", ("tiny", "default", "quick")),
    ("run", "mode", "synth", "--mode", ("ar1", "coupled", "ar1")),
    ("run", "length", "synth", "--length", ("21", "22", "23")),
    ("run", "units", "synth", "--units", ("1", "2", "3")),
    ("reservoir", "size", "ccm", "--size", INTS),
    ("reservoir", "spectral_radius", "ccm", "--spectral-radius", FLOATS),
    ("reservoir", "leak", "ccm", "--leak", FLOATS),
    ("reservoir", "input_scale", "ccm", "--input-scale", FLOATS),
    ("reservoir", "sparsity", "ccm", "--sparsity", FLOATS),
    ("reservoir", "ridge", "ccm", "--ridge", FLOATS),
    ("reservoir", "washout", "gridsearch", "--washout", INTS),
    ("lags", "lo", "ccm", "--lag-lo", ("-7", "-8", "-9")),
    ("lags", "hi", "ccm", "--lag-hi", INTS),
]
# ... and the settings that used to be flag-only.
JOINED_NAMES = [
    ("run", "city", "ccm", "--city", TEXT),
    ("run", "input_feature", "gridsearch", "--input-feature", TEXT),
    ("run", "target_feature", "ccm", "--target-feature", TEXT),
    ("run", "growth_x", "synth", "--growth-x", ("3.6", "3.7", "3.9")),
    ("run", "growth_y", "synth", "--growth-y", ("3.6", "3.7", "3.9")),
    ("run", "coupling_xy", "synth", "--coupling-xy", ("0.1", "0.2", "0.3")),
    ("run", "coupling_yx", "synth", "--coupling-yx", ("0.1", "0.2", "0.3")),
    ("run", "delay", "synth", "--delay", ("1", "2", "3")),
    ("run", "noise_sd", "synth", "--noise-sd", ("0.1", "0.2", "0.3")),
    ("run", "phi", "synth", "--phi", ("0.1", "0.2", "0.3")),
]


def test_the_parent_had_thirty_settings_names():
    assert len({(s, k) for s, k, *_ in PARENT_NAMES}) == 30


@pytest.mark.parametrize("section,key,command,flag,values", PARENT_NAMES + JOINED_NAMES,
                         ids=[f"{s}.{k}" for s, k, *_ in PARENT_NAMES + JOINED_NAMES])
def test_a_setting_resolves_flag_over_env_over_config(tmp_path, monkeypatch, capsys,
                                                      section, key, command, flag, values):
    monkeypatch.chdir(tmp_path)
    from_config, from_env, from_flag = values
    config = tmp_path / "run.ini"
    config.write_text(f"[{section}]\n{key} = {from_config}\n")
    # the base arguments without the flag under test, which some of them give
    argv = list(BASE_ARGV[command])
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    name = f"{section}.{key}"
    monkeypatch.setenv("ECHOSENT_CONFIG", str(config))
    assert settings_line(capsys, command, argv)[name] == from_config
    monkeypatch.delenv("ECHOSENT_CONFIG")
    argv = ["--config", str(config), *argv]
    monkeypatch.setenv(f"ECHOSENT_{section.upper()}_{key.upper()}", from_env)
    assert settings_line(capsys, command, argv)[name] == from_env
    assert settings_line(capsys, command, [flag, from_flag, *argv])[name] == from_flag


FLAGS = {
    "clean": ["--config", "--in", "--out", "--report", "--stopwords", "--valence-lexicon",
              "--wordlist"],
    "score": ["--config", "--emotion-lexicon", "--in", "--out", "--stopwords",
              "--valence-lexicon"],
    "aggregate": ["--cities", "--config", "--corpus", "--features", "--from", "--keyword",
                  "--out", "--period-out", "--periods", "--scored", "--to"],
    "heatmap": ["--config", "--feature", "--out-dir", "--series"],
    "ccm": ["--city", "--config", "--input-feature", "--input-scale", "--lag-hi", "--lag-lo",
            "--leak", "--out-dir", "--ridge", "--seed", "--series", "--size", "--sparsity",
            "--spectral-radius", "--target-feature", "--washout"],
    "gridsearch": ["--config", "--grid", "--input-feature", "--out-dir", "--panel", "--seed",
                   "--target-feature", "--washout"],
    "synth": ["--config", "--coupling-xy", "--coupling-yx", "--delay", "--growth-x",
              "--growth-y", "--length", "--mode", "--noise-sd", "--out", "--phi", "--seed",
              "--units"],
    "pipeline": ["--config", "--emotion-lexicon", "--in", "--out-dir", "--stopwords",
                 "--valence-lexicon", "--wordlist"],
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_the_same_flags(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    flags = {word.strip("[]") for word in usage.split() if word.strip("[]").startswith("-")}
    assert flags == {"-h", *FLAGS[command]}


def test_readme_documents_every_setting():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for opt in cli.OPTIONS.values():
        assert f"`{opt.flag}`" in readme and f"`{opt.env}`" in readme, opt.flag
    assert "`ECHOSENT_CONFIG`" in readme


def test_a_config_file_without_a_section_header_exits_2(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("corpus = raw.jsonl\n")
    assert main(["clean", "--config", str(config), "--out", str(tmp_path / "c.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and "no section headers" in err


def test_a_percent_sign_in_a_config_value_is_literal(tmp_path, capsys):
    corpus = tmp_path / "100%.jsonl"
    write_mixed_corpus(corpus)
    config = tmp_path / "run.ini"
    config.write_text(f"[paths]\ncorpus = {corpus}\n")
    out = tmp_path / "clean.jsonl"
    assert main(["clean", "--config", str(config), "--out", str(out)]) == 0
    assert f"paths.corpus={corpus}" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == len(ENGLISH_TEXTS)


def test_a_config_default_section_sets_no_setting(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[DEFAULT]\nseed = 7\n[run]\nlength = 40\n")
    assert main(["synth", "--mode", "ar1", "--config", str(config),
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert f"error: {config}: [DEFAULT] seed is no setting" in capsys.readouterr().err


def test_a_config_key_no_setting_declares_exits_2_before_any_output(tmp_path, fixtures_dir,
                                                                     capsys):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nsed = 5\n")
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: {config}: [run] sed is no setting" in captured.err
    assert captured.out == "" and not out.exists()
    # a key of another command's setting is accepted: one file serves every command
    config.write_text("[reservoir]\nridge = 1.0\n")
    out_dir = tmp_path / "pipe"
    assert main(["pipeline", "--config", str(config), "--in",
                 f"{fixtures_dir}/toronto_feb24.jsonl", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "series.csv").exists()


def test_an_environment_variable_no_setting_declares_exits_2_before_any_output(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ECHOSENT_RUN_SED", "5")
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert main(["synth", "--length", "10", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: environment variable ECHOSENT_RUN_SED is no setting" in captured.err
    assert captured.out == "" and not out.exists()
    # a variable of another command's setting is accepted, as a config key is
    monkeypatch.delenv("ECHOSENT_RUN_SED")
    monkeypatch.setenv("ECHOSENT_RESERVOIR_RIDGE", "1.0")
    assert main(["synth", "--length", "10", "--out", str(out)]) == 0


def test_an_empty_config_section_no_setting_uses_exits_2(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[rnu]\n")
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert main(["synth", "--config", str(config), "--length", "10", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: {config}: [rnu] is no settings section" in captured.err
    assert captured.out == "" and not out.exists()
    # an empty section that settings use sets nothing and is accepted
    config.write_text("[run]\n[reservoir]\n")
    assert main(["synth", "--config", str(config), "--length", "10", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["clean", "score", "aggregate", "heatmap", "pipeline"])
def test_seed_is_a_usage_error_where_no_random_number_is_drawn(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *BASE_ARGV[command], "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_ccm_requires_series(tmp_path, capsys):
    assert main(["ccm", "--input-feature", "x", "--target-feature", "y",
                 "--out-dir", str(tmp_path / "ccm")]) == 2
    assert "ccm: --series is required" in capsys.readouterr().err


@pytest.mark.parametrize("units", ["0", "-2"])
def test_synth_rejects_fewer_than_one_unit(tmp_path, capsys, units):
    out = tmp_path / "s.csv"
    assert main(["synth", "--units", units, "--out", str(out)]) == 2
    assert "--units" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variable,value,message", [
    ("ECHOSENT_RUN_GRID", "huge", "ECHOSENT_RUN_GRID: 'huge' is not one of tiny, quick, default"),
    ("ECHOSENT_RESERVOIR_WASHOUT", "ten", "ECHOSENT_RESERVOIR_WASHOUT: invalid int value 'ten'"),
])
def test_a_bad_value_from_the_environment_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                                            variable, value, message):
    monkeypatch.setenv(variable, value)
    argv = ["gridsearch", "--panel", str(tmp_path / "p.csv"), "--input-feature", "x",
            "--target-feature", "y", "--out-dir", str(tmp_path / "gs")]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


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


# nan passes a sum check written as `> 1e-6`; emotion frequencies had no range check
@pytest.mark.parametrize("column, bad", [("negative", "nan"), ("emo_joy", "nan"),
                                         ("positive", "1.5"), ("emo_fear", "-0.5")])
def test_aggregate_rejects_a_proportion_or_frequency_outside_0_to_1(tmp_path, capsys, column,
                                                                    bad):
    path = tmp_path / "scored.csv"
    sentiment.write_scored_csv([sentiment.ScoredPost(
        "p1", dt.date(2020, 3, 1), "Toronto", sentiment.SentimentScore(0.25, 0.5, 0.25, 0.0),
        (0.1,) * 10,
    )], path)
    header, row = path.read_text().splitlines()
    fields = row.split(",")
    fields[header.split(",").index(column)] = bad
    path.write_text(f"{header}\n{','.join(fields)}\n")
    out = tmp_path / "series.csv"
    capsys.readouterr()
    assert main(["aggregate", "--scored", str(path), "--out", str(out)]) == 2
    assert f"error: {path}:2: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["heatmap", "aggregate"])
def test_a_wrong_header_exits_2_naming_the_file(tmp_path, capsys, command):
    if command == "heatmap":
        path = tmp_path / "series.csv"
        path.write_text("day,city,feature,value\n2020-03-01,A,compound_mean,0.1\n")
        argv = ["heatmap", "--series", str(path), "--out-dir", str(tmp_path / "hm")]
        want = f"{path}:1: expected header date,city,feature,value"
    else:
        path = tmp_path / "scored.csv"
        path.write_text(",".join(sentiment.SCORED_COLUMNS[::-1]) + "\n")
        argv = ["aggregate", "--scored", str(path), "--out", str(tmp_path / "series.csv")]
        want = f"{path}:1: unexpected scored CSV header"
    capsys.readouterr()
    assert main(argv) == 2
    assert f"error: {want}" in capsys.readouterr().err


def test_a_gap_in_a_series_the_command_does_not_keep_is_not_an_error(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    assert main(["synth", "--mode", "coupled", "--coupling-yx", "0.3", "--length", "120",
                 "--units", "3", "--seed", "5", "--out", str(panel)]) == 0
    # unit00 also carries a feature "z" with a one-day gap and values that are
    # not finite; x and y are contiguous and finite
    with panel.open("a", encoding="utf-8") as fh:
        fh.write("2020-01-01,unit00,z,nan\n2020-01-03,unit00,z,-inf\n")
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
    # a series the command keeps must still be contiguous, which is checked first
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


def test_successive_in_process_calls_match_separate_processes(tmp_path, monkeypatch):
    # One parser serves every main call of a process: flags and defaults of
    # one call must not leak into the next.
    runs = [
        ["synth", "--mode", "coupled", "--length", "80", "--units", "2", "--seed", "5",
         "--coupling-yx", "0.2", "--delay", "2", "--noise-sd", "0.01", "--out", "a.csv"],
        ["synth", "--mode", "coupled", "--length", "60", "--out", "b.csv"],
        ["synth", "--mode", "ar1", "--length", "60", "--phi", "0.3", "--out", "c.csv"],
        ["heatmap", "--series", "a.csv", "--feature", "y", "--out-dir", "hm"],
        ["heatmap", "--series", "c.csv", "--feature", "x", "--out-dir", "hm2"],
    ]
    src = str(Path(echosent.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    separate, together = tmp_path / "separate", tmp_path / "together"
    separate.mkdir()
    together.mkdir()
    for argv in runs:
        subprocess.run([sys.executable, "-m", "echosent.cli", *argv],
                       cwd=separate, env=env, check=True, capture_output=True)
    monkeypatch.chdir(together)
    for argv in runs:
        assert main(argv) == 0
    files = sorted(p.relative_to(separate) for p in separate.rglob("*") if p.is_file())
    assert len(files) == 7
    assert files == sorted(p.relative_to(together) for p in together.rglob("*") if p.is_file())
    for name in files:
        assert (separate / name).read_bytes() == (together / name).read_bytes(), name


# ---------------------------------------------------------------------------
# Input files other than the corpus: one decoding rule for every reader


def three_scored_posts():
    return [sentiment.ScoredPost(f"p{k}", dt.date(2020, 3, k), "Toronto",
                                 sentiment.SentimentScore(0.25, 0.5, 0.25, 0.125 * k),
                                 (0.1,) * 10) for k in (1, 2, 3)]


def input_file(tmp_path, kind):
    """A good ``kind`` input file of at least three lines, and the argv of a
    command that reads it and writes only into the empty ``tmp_path / "out"``."""
    scored = tmp_path / "scored.csv"
    sentiment.write_scored_csv(three_scored_posts(), scored)
    series_csv = tmp_path / "series.csv"
    series_csv.write_text("date,city,feature,value\n" + "".join(
        f"2020-03-0{k},A,compound_mean,0.{k}\n" for k in (1, 2, 3)))
    out = tmp_path / "out"
    out.mkdir()
    if kind == "scored":
        return scored, ["aggregate", "--scored", str(scored), "--out", str(out / "s.csv")]
    if kind == "series":
        return series_csv, ["heatmap", "--series", str(series_csv), "--out-dir", str(out)]
    if kind == "periods":
        periods = tmp_path / "periods.ini"
        periods.write_text("[DEFAULT]\nfirst = 2020-03-01/2020-03-01\n"
                           "second = 2020-03-02/2020-03-03\n")
        return periods, ["aggregate", "--scored", str(scored), "--out", str(out / "s.csv"),
                         "--periods", str(periods), "--period-out", str(out / "p.csv")]
    config = tmp_path / "run.ini"
    config.write_text(f"[paths]\n# the series to draw\nseries = {series_csv}\n")
    return config, ["heatmap", "--config", str(config), "--out-dir", str(out)]


READ_KINDS = ["scored", "series", "periods", "config"]


@pytest.mark.parametrize("kind", READ_KINDS)
def test_a_byte_that_is_no_utf8_names_the_file_and_line_in_every_reader(tmp_path, capsys, kind):
    path, argv = input_file(tmp_path, kind)
    lines = path.read_bytes().split(b"\n")
    lines[2] += b" caf\xe9"
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: 'utf-8' codec can't decode byte 0xe9"), err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("kind", READ_KINDS)
def test_a_leading_byte_order_mark_reads_the_same_in_every_reader(tmp_path, kind):
    path, argv = input_file(tmp_path, kind)
    assert main(argv) == 0
    plain = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == plain


@pytest.mark.parametrize("kind", ["scored", "series"])
def test_a_stray_quote_exits_2_naming_the_file_and_line(tmp_path, capsys, kind):
    # the quote opens a field that runs on past the csv module's field limit
    # (131,072 characters) in the scored file, and to the end of the series file
    path, argv = input_file(tmp_path, kind)
    if kind == "scored":
        posts = [p._replace(id=f"p{k}") for k in range(2000) for p in three_scored_posts()[:1]]
        sentiment.write_scored_csv(posts, path)
    text = path.read_text().split("\n")
    text[1] = text[1].replace(",", ',"', 1)
    path.write_text("\n".join(text))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and "Traceback" not in err, err


@pytest.mark.parametrize("kind", ["scored", "series", "periods", "config"])
def test_a_lone_carriage_return_exits_2_naming_the_file_and_line(tmp_path, capsys, kind):
    path, argv = input_file(tmp_path, kind)
    data = path.read_bytes()
    cut = data.index(b"\n", data.index(b"\n") + 1)  # the end of line 2
    path.write_bytes(data[:cut] + b"\r" + data[cut + 1:])
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: ")


@pytest.mark.parametrize("kind", ["scored", "series"])
def test_an_empty_city_exits_2_naming_the_file_and_line(tmp_path, capsys, kind):
    path, argv = input_file(tmp_path, kind)
    city = b",Toronto," if kind == "scored" else b",A,"
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(city, b",,")
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(argv) == 2
    assert f"error: {path}:3: city must be nonempty" in capsys.readouterr().err
    assert not any((tmp_path / "out").iterdir())
