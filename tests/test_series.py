import datetime as dt
import math
import random
import re
import tempfile
from importlib.resources import files
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echosent import series as series_module
from echosent.sentiment import ScoredPost, SentimentScore
from echosent.series import (
    CitySeries,
    _diverging_fills,
    PeriodConfig,
    Period,
    aggregate_daily,
    heatmap_matrix,
    keyword_filter,
    load_period_config,
    period_summary,
    read_ini,
    read_series_csv,
    write_heatmap_csv,
    write_heatmap_svg,
    write_series_csv,
)
from echosent.textpipe import RawPost

D = dt.date
EMPTY_EMOTIONS = (0.0,) * 10


def sp(pid, day, city, compound, likes=0, replies=0, retweets=0):
    return ScoredPost(
        pid, day, city,
        SentimentScore(0.0, 1.0, 0.0, compound),
        EMPTY_EMOTIONS,
        likes, replies, retweets,
    )


# ---------------------------------------------------------------------------
# aggregate_daily


def test_singleton_day_mean():
    posts = [sp("a", D(2020, 3, 1), "Toronto", 0.5)]
    s = aggregate_daily(posts, ["compound_mean"], ["Toronto"])[0]
    assert s.start == s.end == D(2020, 3, 1)
    assert s.values == (0.5,)


def test_three_post_mean_matches_bruteforce():
    posts = [
        sp("a", D(2020, 3, 1), "Toronto", 0.2),
        sp("b", D(2020, 3, 1), "Toronto", -0.2),
        sp("c", D(2020, 3, 1), "Toronto", 0.6),
    ]
    s = aggregate_daily(posts, ["compound_mean"], ["Toronto"])[0]
    oracle = (0.2 + -0.2 + 0.6) / 3
    assert s.values[0] == pytest.approx(oracle)
    assert s.values[0] == pytest.approx(0.2)


def test_gap_day_carried_forward_and_flagged():
    posts = [
        sp("a", D(2020, 3, 1), "Toronto", 0.4),
        sp("b", D(2020, 3, 3), "Toronto", -0.4),
    ]
    s = aggregate_daily(posts, ["compound_mean"], ["Toronto"])[0]
    assert (s.start, s.end) == (D(2020, 3, 1), D(2020, 3, 3))
    assert s.values == (0.4, 0.4, -0.4)


def test_gap_day_zero_for_counts():
    posts = [
        sp("a", D(2020, 3, 1), "Toronto", 0.4, likes=2),
        sp("b", D(2020, 3, 3), "Toronto", -0.4, likes=5),
    ]
    s = aggregate_daily(posts, ["like_total"], ["Toronto"])[0]
    assert s.values == (2.0, 0.0, 5.0)


def test_leading_gap_carried_backward():
    posts = [sp("a", D(2020, 3, 3), "Toronto", 0.7)]
    s = aggregate_daily(posts, ["compound_mean"], ["Toronto"], start=D(2020, 3, 1))[0]
    assert s.values == (0.7, 0.7, 0.7)


def test_count_features():
    posts = [
        sp("a", D(2020, 3, 1), "Toronto", 0.0, likes=1, replies=2, retweets=3),
        sp("b", D(2020, 3, 1), "Toronto", 0.0, likes=4, replies=5, retweets=6),
    ]
    assert aggregate_daily(posts, ["tweet_count"], ["Toronto"])[0].values == (2.0,)
    assert aggregate_daily(posts, ["like_total"], ["Toronto"])[0].values == (5.0,)
    assert aggregate_daily(posts, ["reply_total"], ["Toronto"])[0].values == (7.0,)
    assert aggregate_daily(posts, ["retweet_total"], ["Toronto"])[0].values == (9.0,)


def test_tweet_count_sums_to_corpus_size():
    rng = random.Random(3)
    posts = [
        sp(f"p{i}", D(2020, 3, 1) + dt.timedelta(days=rng.randrange(10)), "X", 0.0)
        for i in range(200)
    ]
    s = aggregate_daily(posts, ["tweet_count"], ["X"], D(2020, 3, 1), D(2020, 3, 10))[0]
    assert sum(s.values) == 200


def test_aggregate_permutation_invariant():
    rng = random.Random(4)
    posts = [
        sp(f"p{i}", D(2020, 3, 1) + dt.timedelta(days=i % 5), "X", rng.uniform(-1, 1))
        for i in range(50)
    ]
    base = aggregate_daily(posts, ["compound_mean"], ["X"])[0]
    shuffled = posts[:]
    rng.shuffle(shuffled)
    assert aggregate_daily(shuffled, ["compound_mean"], ["X"])[0].values == pytest.approx(base.values)


def test_aggregate_errors():
    posts = [sp("a", D(2020, 3, 1), "Toronto", 0.0)]
    with pytest.raises(ValueError):
        aggregate_daily(posts, ["compound_mean"], ["Atlantis"])
    with pytest.raises(ValueError):
        aggregate_daily(posts, ["nonsense"], ["Toronto"])
    with pytest.raises(ValueError):
        aggregate_daily(posts, ["compound_mean"], ["Toronto"], D(2020, 3, 5), D(2020, 3, 1))
    with pytest.raises(ValueError):
        aggregate_daily(posts, ["cases"], ["Toronto"])


def per_city_feature_oracle(posts, city, feature, start=None, end=None):
    """One (city, feature) series, built by rescanning every post for it."""
    sel = [p for p in posts if p.city == city]
    if not sel:
        raise ValueError("unknown city")
    start = start or min(p.date for p in sel)
    end = end or max(p.date for p in sel)
    if end < start:
        raise ValueError("empty range")
    sel = [p for p in sel if start <= p.date <= end]
    if not sel:
        raise ValueError("no posts in range")
    values = []
    day = start
    while day <= end:
        group = [p for p in sel if p.date == day]
        if feature == "compound_mean":
            if group:
                values.append(sum(p.sentiment.compound for p in group) / len(group))
            else:
                values.append(values[-1] if values else math.nan)
        elif not group:
            values.append(0.0)
        elif feature == "tweet_count":
            values.append(float(len(group)))
        else:
            attr = {"like_total": "like_count", "reply_total": "reply_count",
                    "retweet_total": "retweet_count"}[feature]
            values.append(float(sum(getattr(p, attr) for p in group)))
        day += dt.timedelta(days=1)
    first = next(v for v in values if not math.isnan(v))
    values = [first if math.isnan(v) else v for v in values]
    return start, tuple(values)


ALL_FEATURES = ["compound_mean", "tweet_count", "like_total", "reply_total", "retweet_total"]

post_rows = st.lists(
    st.tuples(
        st.sampled_from("ABCD"),
        st.integers(0, 20),
        st.floats(-1.0, 1.0),
        st.integers(0, 5),
        st.integers(0, 5),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=post_rows,
    start=st.none() | st.integers(-3, 8),
    end=st.none() | st.integers(12, 24),
    features=st.lists(st.sampled_from(ALL_FEATURES), min_size=1, max_size=5, unique=True),
    city_order=st.none() | st.randoms(use_true_random=False),
)
def test_one_pass_aggregation_matches_per_city_feature_oracle(rows, start, end, features, city_order):
    base = D(2020, 3, 1)
    posts = [
        sp(f"p{i}", base + dt.timedelta(days=off), city, c, likes, replies, retweets)
        for i, (city, off, c, likes, replies, retweets) in enumerate(rows)
    ]
    lo = None if start is None else base + dt.timedelta(days=start)
    hi = None if end is None else base + dt.timedelta(days=end)
    present = sorted({p.city for p in posts})
    cities = None
    if city_order is not None:
        cities = present[:]
        city_order.shuffle(cities)
    try:
        want = {
            (city, f): per_city_feature_oracle(posts, city, f, lo, hi)
            for city in present for f in features
        }
    except ValueError:
        with pytest.raises(ValueError):
            aggregate_daily(posts, features, cities, lo, hi)
        return
    got = aggregate_daily(posts, features, cities, lo, hi)
    order = present if cities is None else cities
    assert [(s.city, s.feature) for s in got] == [(c, f) for c in order for f in features]
    for s in got:
        assert (s.start, s.values) == want[(s.city, s.feature)]


def bits(values):
    """Floats by their bit patterns, so 0.0 and -0.0 differ."""
    return [v.hex() if isinstance(v, float) else v for v in values]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["A", "B", "C"]),
            st.sampled_from([0, 2, 3, 6]),  # gap days in between
            # nine-digit decimals round when added, so the summation order shows
            st.floats(-1.0, 1.0) | st.integers(-10**9, 10**9).map(lambda k: k / 10**9),
            st.integers(0, 10**6),
            st.integers(0, 9),
            st.integers(0, 50),
        ),
        min_size=1,
        max_size=80,
    ),
    lead=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
# sum([-0.0]) is 0 + -0.0 == 0.0: a sum must start from zero, not from the first value
@example(rows=[("A", 0, -0.0, 0, 0, 0), ("A", 3, 0.5, 1, 1, 1)], lead=1, seed=0)
def test_day_sums_equal_per_day_lists_bit_for_bit(rows, lead, seed):
    # One streamed pass over shuffled posts must give what per-day lists gave:
    # sum(compounds) / len(compounds) in post order, and integer count sums.
    base = D(2020, 3, 1)
    posts = [
        sp(f"p{i}", base + dt.timedelta(days=off), city, c, likes, replies, retweets)
        for i, (city, off, c, likes, replies, retweets) in enumerate(rows)
    ]
    random.Random(seed).shuffle(posts)
    start = base - dt.timedelta(days=lead)  # lead > 0: every city has a leading gap
    end = base + dt.timedelta(days=7)
    consumed = []

    def stream():
        for p in posts:
            consumed.append(p.id)
            yield p

    got = aggregate_daily(stream(), ALL_FEATURES, None, start, end)
    assert consumed == [p.id for p in posts]
    cities = sorted({p.city for p in posts})
    assert [(s.city, s.feature) for s in got] == [(c, f) for c in cities for f in ALL_FEATURES]
    days = [start + dt.timedelta(days=k) for k in range((end - start).days + 1)]
    for city, series in zip(cities, [got[i:i + 5] for i in range(0, len(got), 5)]):
        groups = {day: [p for p in posts if p.city == city and p.date == day] for day in days}
        means = [
            sum(p.sentiment.compound for p in g) / len(g) if g else None
            for g in groups.values()
        ]
        first = next(m for m in means if m is not None)
        carried, last = [], first  # a leading gap takes the first mean
        for m in means:
            last = last if m is None else m
            carried.append(last)
        want = {
            "compound_mean": carried,
            "tweet_count": [float(len(g)) for g in groups.values()],
            "like_total": [float(sum(p.like_count for p in g)) for g in groups.values()],
            "reply_total": [float(sum(p.reply_count for p in g)) for g in groups.values()],
            "retweet_total": [float(sum(p.retweet_count for p in g)) for g in groups.values()],
        }
        for s in series:
            assert (s.start, len(s)) == (start, len(days))
            assert bits(s.values) == bits(want[s.feature]), (city, s.feature)
        if lead:
            assert series[0].values[0] == first


# ---------------------------------------------------------------------------
# keyword_filter


def raw(pid, text):
    return RawPost(pid, D(2020, 3, 1), "X", text)


def test_keyword_matches_case_insensitive_substring():
    posts = [raw("a", "Masks work"), raw("b", "nothing here")]
    assert [p.id for p in keyword_filter(posts, "mask")] == ["a"]


def test_keyword_literal_substring_semantics():
    posts = [raw("a", "vaccinate now")]
    assert keyword_filter(posts, "vaccine") == []


def test_keyword_empty_corpus_and_order():
    assert keyword_filter([], "mask") == []
    posts = [raw("b", "mask b"), raw("a", "mask a")]
    assert [p.id for p in keyword_filter(posts, "mask")] == ["b", "a"]
    with pytest.raises(ValueError):
        keyword_filter(posts, "")


# ---------------------------------------------------------------------------
# period summaries


def config():
    return PeriodConfig(
        by_city={},
        default=(
            Period("period1", D(2020, 3, 1), D(2020, 3, 10)),
            Period("period2", D(2020, 3, 11), D(2020, 3, 20)),
        ),
    )


def test_period_summary_against_bruteforce():
    posts = [
        sp("a", D(2020, 3, 2), "X", 0.1),
        sp("b", D(2020, 3, 3), "X", 0.3),
        sp("c", D(2020, 3, 12), "X", -0.2),
        sp("d", D(2020, 3, 13), "X", 0.4),
        sp("e", D(2020, 3, 14), "X", 0.6),
        sp("f", D(2020, 3, 25), "X", 0.9),
    ]
    rows = {r.period: r for r in period_summary(posts, config())}
    p1 = rows["period1"]
    assert p1.n_tweets == 2
    mean1 = (0.1 + 0.3) / 2
    assert p1.mean == pytest.approx(mean1)
    sd1 = ((0.1 - mean1) ** 2 + (0.3 - mean1) ** 2) ** 0.5  # n-1 = 1
    assert p1.sd == pytest.approx(sd1)
    p2 = rows["period2"]
    vals = [-0.2, 0.4, 0.6]
    mean2 = sum(vals) / 3
    assert p2.n_tweets == 3
    assert p2.mean == pytest.approx(mean2)
    assert p2.sd == pytest.approx((sum((v - mean2) ** 2 for v in vals) / 2) ** 0.5)
    rest = rows["(outside)"]
    assert rest.n_tweets == 1
    assert rest.sd is None
    assert p1.n_tweets + p2.n_tweets + rest.n_tweets == len(posts)


def test_period_remainder_assigns_by_date_not_id():
    # two posts share an id: one inside period1, one outside every period
    posts = [sp("p1", D(2020, 3, 2), "X", 0.2), sp("p1", D(2020, 3, 25), "X", 0.6)]
    rows = {r.period: r for r in period_summary(posts, config())}
    assert rows["period1"].n_tweets == 1
    assert rows["(outside)"].n_tweets == 1
    assert rows["(outside)"].mean == 0.6


def test_single_post_period_sd_absent():
    posts = [sp("a", D(2020, 3, 2), "X", 0.5)]
    rows = {r.period: r for r in period_summary(posts, config())}
    assert rows["period1"].sd is None
    assert rows["period1"].mean == 0.5


def test_period_means_bounded():
    rng = random.Random(9)
    posts = [
        sp(f"p{i}", D(2020, 3, 1) + dt.timedelta(days=rng.randrange(30)), "X",
           rng.uniform(-1, 1))
        for i in range(100)
    ]
    for row in period_summary(posts, config()):
        if row.mean is not None:
            assert -1.0 <= row.mean <= 1.0


def test_load_period_config(tmp_path):
    path = tmp_path / "periods.ini"
    path.write_text(
        "[DEFAULT]\nperiod1 = 2020-03-01/2020-03-10\nperiod2 = 2020-03-11/2020-03-20\n"
        "[Toronto]\nperiod1 = 2020-03-02/2020-03-09\nperiod2 = 2020-03-10/2020-03-22\n"
    )
    cfg = load_period_config(path)
    assert cfg.periods_for("Toronto")[0].start == D(2020, 3, 2)
    assert cfg.periods_for("Elsewhere")[0].start == D(2020, 3, 1)


def test_period_config_rejects_overlap(tmp_path):
    path = tmp_path / "periods.ini"
    path.write_text(
        "[DEFAULT]\nperiod1 = 2020-03-01/2020-03-10\nperiod2 = 2020-03-05/2020-03-20\n"
    )
    with pytest.raises(ValueError):
        load_period_config(path)


@pytest.mark.parametrize("day", ["20200301", "2020-W09-7", "2020-3-1"])
def test_period_config_takes_only_yyyy_mm_dd_days(tmp_path, day):
    path = tmp_path / "periods.ini"
    path.write_text(f"[Toronto]\nearly = {day}/2020-03-10\n")
    with pytest.raises(ValueError, match=r"\[Toronto\] bad period 'early'"):
        load_period_config(path)


def test_city_periods_do_not_inherit_default(tmp_path):
    path = tmp_path / "periods.ini"
    path.write_text(
        "[DEFAULT]\nlockdown = 2020-03-17/2020-06-30\n"
        "[Montreal]\nreopen = 2020-07-01/2020-10-14\n"
        "[Toronto]\nearly = 2020-02-24/2020-03-16\n"
        "[Ottawa]\n"
    )
    cfg = load_period_config(path)
    assert [p.label for p in cfg.periods_for("Montreal")] == ["reopen"]
    assert [p.label for p in cfg.periods_for("Toronto")] == ["early"]
    assert [p.label for p in cfg.periods_for("Ottawa")] == ["lockdown"]
    assert [p.label for p in cfg.periods_for("Vancouver")] == ["lockdown"]


def test_example_period_file_gives_toronto_its_own_periods():
    cfg = load_period_config(str(files("echosent") / "data" / "periods_example.ini"))
    toronto = cfg.periods_for("Toronto")
    assert [p.label for p in toronto] == ["period1", "period2", "period3"]
    assert toronto[1].end == D(2020, 7, 16)
    assert cfg.periods_for("Montreal")[1].end == D(2020, 6, 30)


def test_read_ini_reads_literally_and_names_the_file_it_cannot_parse(tmp_path):
    path = tmp_path / "a.ini"
    path.write_text("[DEFAULT]\nSale = 50%off\n[s]\nj = 1\n")
    assert read_ini(path) == {"DEFAULT": {"sale": "50%off"}, "s": {"j": "1"}}
    path.write_text("j = 1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        read_ini(path)


# ---------------------------------------------------------------------------
# heatmap


def mk_series(city, values, feature="compound_mean"):
    return CitySeries(city, feature, D(2020, 3, 1), tuple(values))


def test_heatmap_matrix_layout(tmp_path):
    cities, dates, matrix = heatmap_matrix(
        [mk_series("A", [0.1, 0.2, 0.3]), mk_series("B", [-0.1, 0.0, 0.4])]
    )
    assert cities == ["A", "B"]
    assert len(dates) == 3
    assert matrix == [[0.1, 0.2, 0.3], [-0.1, 0.0, 0.4]]
    out = tmp_path / "hm.csv"
    write_heatmap_csv(cities, dates, matrix, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "city,2020-03-01,2020-03-02,2020-03-03"
    assert lines[1].startswith("A,0.1,")
    assert len(lines) == 3


def test_heatmap_single_city():
    cities, dates, matrix = heatmap_matrix([mk_series("A", [1.0, 2.0])])
    assert len(matrix) == 1 and len(matrix[0]) == 2


def test_heatmap_mismatched_features_error():
    with pytest.raises(ValueError):
        heatmap_matrix([mk_series("A", [0.1]), mk_series("B", [0.1], feature="tweet_count")])


def test_heatmap_spans_every_city_range(tmp_path):
    later = CitySeries("B", "compound_mean", D(2020, 3, 2), (-0.5, 0.25, 0.0))
    cities, dates, matrix = heatmap_matrix([mk_series("A", [0.1, 0.2]), later])
    assert dates == [D(2020, 3, d) for d in (1, 2, 3, 4)]
    assert matrix == [[0.1, 0.2, None, None], [None, -0.5, 0.25, 0.0]]
    write_heatmap_csv(cities, dates, matrix, tmp_path / "hm.csv")
    assert (tmp_path / "hm.csv").read_text().splitlines()[1:] == ["A,0.1,0.2,,", "B,,-0.5,0.25,0.0"]
    write_heatmap_svg(cities, dates, matrix, tmp_path / "hm.svg")
    svg = (tmp_path / "hm.svg").read_text()
    assert svg.count("<rect") == 5
    assert svg.count('fill="#1a9641"') == 1  # -0.5 is the largest present magnitude


def test_heatmap_svg_escapes_city_names(tmp_path):
    city = "A&B <x>"
    cities, dates, matrix = heatmap_matrix([mk_series(city, [0.5, -0.5]), mk_series("C", [0.1])])
    out = tmp_path / "hm.svg"
    write_heatmap_svg(cities, dates, matrix, out)
    root = ElementTree.parse(out).getroot()
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text") if t.get("x") == "0"]
    assert labels == [city, "C"]


def test_heatmap_svg_all_zero_uses_midpoint(tmp_path):
    cities, dates, matrix = heatmap_matrix([mk_series("A", [0.0, 0.0, 0.0])])
    out = tmp_path / "hm.svg"
    write_heatmap_svg(cities, dates, matrix, out)
    content = out.read_text()
    assert content.count('fill="#ffffff"') == 3
    assert "<svg" in content


def test_heatmap_svg_diverging_colors(tmp_path):
    cities, dates, matrix = heatmap_matrix([mk_series("A", [1.0, -1.0, 0.0])])
    out = tmp_path / "hm.svg"
    write_heatmap_svg(cities, dates, matrix, out)
    content = out.read_text()
    assert 'fill="#e66101"' in content  # full positive -> orange
    assert 'fill="#1a9641"' in content  # full negative -> green
    assert 'fill="#ffffff"' in content  # zero -> midpoint


# ---------------------------------------------------------------------------
# series CSV


def test_series_csv_roundtrip(tmp_path):
    a = mk_series("A", [0.125, -0.5, 0.75])
    b = mk_series("B", [1.0, 2.0, 3.0], feature="tweet_count")
    path = tmp_path / "series.csv"
    write_series_csv([a, b], path)
    back = read_series_csv(path)
    assert back == [a, b] or set((s.city, s.feature) for s in back) == {
        ("A", "compound_mean"), ("B", "tweet_count")
    }
    by_key = {(s.city, s.feature): s for s in back}
    assert by_key[("A", "compound_mean")].values == a.values
    assert by_key[("B", "tweet_count")].start == b.start


# Any Unicode text but lone surrogates, which UTF-8 cannot encode; commas,
# quotes and line breaks included.
CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def series_sets(draw):
    # the reader refuses an empty city or feature in a series it builds
    keys = draw(st.lists(st.tuples(CSV_TEXT.filter(bool), CSV_TEXT.filter(bool)),
                         min_size=1, max_size=4, unique=True))
    out = []
    for city, feature in keys:
        start = draw(st.dates(D(1, 1, 1), D(9999, 12, 1)))
        # the reader refuses a value that is not finite in a series it builds
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=1, max_size=6))
        out.append(CitySeries(city, feature, start, tuple(values)))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(series=series_sets())
def test_series_csv_roundtrip_property(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
    assert back == sorted(series, key=lambda s: (s.city, s.feature))
    for got, want in zip(back, sorted(series, key=lambda s: (s.city, s.feature))):
        assert [math.copysign(1.0, v) for v in got.values] == [
            math.copysign(1.0, v) for v in want.values
        ]


def test_read_series_csv_rejects_gaps(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(
        "date,city,feature,value\n"
        "2020-03-01,A,compound_mean,0.1\n"
        "2020-03-03,A,compound_mean,0.2\n"
    )
    with pytest.raises(ValueError, match=re.escape(
        f"{path}: series 'A'/'compound_mean': dates must be contiguous daily; gap after 2020-03-01"
    )):
        read_series_csv(path)


def test_read_series_csv_requires_gap_free_days_only_of_the_series_it_builds(tmp_path):
    # B/x has a gap, C/x and A/y a repeated date
    path = tmp_path / "series.csv"
    path.write_text(
        "date,city,feature,value\n"
        "2020-03-01,A,x,0.1\n2020-03-02,A,x,0.2\n"
        "2020-03-01,B,x,1.0\n2020-03-03,B,x,2.0\n"
        "2020-03-01,C,x,1.0\n2020-03-01,C,x,2.0\n"
        "2020-03-01,A,y,5.0\n2020-03-01,A,y,6.0\n"
    )
    want = [CitySeries("A", "x", D(2020, 3, 1), (0.1, 0.2))]
    assert read_series_csv(path, features=["x"], cities=["A"]) == want
    assert read_series_csv(path, features=["x", "z"], cities=["A", "D"]) == want
    for features, cities, named in ((["x"], ["A", "B"], "'B'/'x': dates must be contiguous"),
                                     (["x"], ["C"], "'C'/'x': date 2020-03-01 repeats"),
                                     (None, ["A"], "'A'/'y': date 2020-03-01 repeats")):
        with pytest.raises(ValueError, match=re.escape(named)):
            read_series_csv(path, features=features, cities=cities)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_series_csv_refuses_a_value_that_is_not_finite_only_in_a_series_it_builds(
        tmp_path, bad):
    path = tmp_path / "series.csv"
    path.write_text(
        "date,city,feature,value\n"
        "2020-03-01,A,x,0.1\n2020-03-02,A,x,0.2\n"
        f"2020-03-01,B,x,1.0\n2020-03-02,B,x,{bad}\n2020-03-03,B,x,{bad}\n"
        f"2020-03-01,A,y,{bad}\n"
    )
    want = [CitySeries("A", "x", D(2020, 3, 1), (0.1, 0.2))]
    assert read_series_csv(path, features=["x"], cities=["A"]) == want
    for features, cities, named in ((["x"], None, f"'B'/'x': value {bad} on 2020-03-02"),
                                     (None, ["A"], f"'A'/'y': value {bad} on 2020-03-01")):
        with pytest.raises(ValueError, match=re.escape(f"{path}: series {named} is not finite")):
            read_series_csv(path, features=features, cities=cities)


def test_city_series_length_and_end():
    s = CitySeries("A", "x", D(2020, 2, 28), (0.1, 0.2, 0.3))
    assert (len(s), s.end) == (3, D(2020, 3, 1))


def test_read_series_csv_refuses_an_empty_feature_only_in_a_series_it_builds(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("date,city,feature,value\n2020-03-01,A,x,0.1\n2020-03-01,A,,0.2\n")
    assert read_series_csv(path, features=["x"]) == [CitySeries("A", "x", D(2020, 3, 1), (0.1,))]
    for features in (None, [""]):  # heatmap --feature "" asks for [""]
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: feature must be nonempty")):
            read_series_csv(path, features=features)


def test_read_series_csv_refuses_an_empty_city_only_in_a_series_it_builds(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("date,city,feature,value\n2020-03-01,A,x,0.1\n2020-03-01,,x,0.2\n")
    assert read_series_csv(path, cities=["A"]) == [CitySeries("A", "x", D(2020, 3, 1), (0.1,))]
    for cities in (None, [""]):
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: city must be nonempty")):
            read_series_csv(path, cities=cities)


@pytest.mark.parametrize("dates, message", [
    pytest.param((D(2020, 3, 1), D(2020, 3, 3)),
                 "dates must be contiguous daily; gap after 2020-03-01", id="dates0"),
    pytest.param((D(2020, 3, 1), D(2020, 3, 1)), "date 2020-03-01 repeats", id="dates1"),
    # rows come in any order; the repeat shows once they are sorted
    pytest.param([D(2020, 3, 2), D(2020, 3, 1), D(2020, 3, 2)], "date 2020-03-02 repeats",
                 id="dates2"),
])
def test_city_series_rejects_gapped_or_repeated_dates(tmp_path, dates, message):
    # a CitySeries has no dates to get wrong; a file is where days can gap or repeat
    path = tmp_path / "series.csv"
    path.write_text("date,city,feature,value\n"
                    + "".join(f"{day},A,compound_mean,{k}.0\n" for k, day in enumerate(dates)))
    with pytest.raises(ValueError, match=re.escape(f"{path}: series 'A'/'compound_mean': {message}")):
        read_series_csv(path)


def test_only_read_series_csv_checks_dates(monkeypatch, tmp_path):
    walks = []
    check = series_module._check_contiguous
    monkeypatch.setattr(series_module, "_check_contiguous", lambda d: walks.append(d) or check(d))
    posts = [sp("a", D(2020, 3, 1), "A", 0.5), sp("b", D(2020, 3, 4), "A", 0.1),
             sp("c", D(2020, 3, 2), "B", -0.2)]
    built = aggregate_daily(posts, ["compound_mean", "tweet_count", "like_total"])
    assert [(s.start, len(s)) for s in built] == [(D(2020, 3, 1), 4)] * 3 + [(D(2020, 3, 2), 1)] * 3
    write_series_csv(built, tmp_path / "series.csv")
    assert walks == []
    back = read_series_csv(tmp_path / "series.csv")
    assert back == sorted(built, key=lambda s: (s.city, s.feature))
    assert [len(d) for d in walks] == [4, 4, 4, 1, 1, 1]


@pytest.mark.parametrize("features", [None, ["tweet_count"]])
@pytest.mark.parametrize("row, message", [
    ("2020-03-02,A,compound_mean", "expected 4 fields, got 3"),
    ("2020-03-02,A,compound_mean,0.1,999", "expected 4 fields, got 5"),
    ("2020-03-02,A,compound_mean,abc", "'abc'"),
    ("2020-13-02,A,compound_mean,0.1", "'2020-13-02'"),
    # ISO 8601 forms that Python 3.11's date.fromisoformat takes but 3.10's does not
    ("20200302,A,compound_mean,0.1", "'20200302'"),
    ("2020-W10-1,A,compound_mean,0.1", "'2020-W10-1'"),
])
def test_read_series_csv_names_path_and_line_of_a_malformed_row(tmp_path, row, message, features):
    # a row is checked whether or not its series is kept
    path = tmp_path / "series.csv"
    path.write_text(
        "date,city,feature,value\n"
        "2020-03-01,A,tweet_count,1.0\n"
        f"{row}\n"
        "2020-03-02,A,tweet_count,2.0\n"
    )
    with pytest.raises(ValueError) as err:
        read_series_csv(path, features=features)
    assert str(err.value).startswith(f"{path}:3: ")
    assert message in str(err.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_read_series_csv_skips_blank_lines_under_either_line_ending(tmp_path, newline):
    path = tmp_path / "series.csv"
    lines = ["date,city,feature,value", "", "2020-03-01,A,x,0.5", "", "",
             "2020-03-02,A,x,-1.5", "2020-03-01,B,x,2.0", ""]
    path.write_bytes(newline.join(lines).encode())
    assert read_series_csv(path) == [
        CitySeries("A", "x", D(2020, 3, 1), (0.5, -1.5)),
        CitySeries("B", "x", D(2020, 3, 1), (2.0,)),
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(series=series_sets(), data=st.data())
def test_filtered_read_equals_unfiltered_read_filtered_afterwards(series, data):
    keys = [(s.city, s.feature) for s in series]
    # requested names may include ones the file lacks
    features = data.draw(st.none() | st.lists(
        st.sampled_from([f for _, f in keys]) | CSV_TEXT.filter(bool), max_size=3))
    cities = data.draw(st.none() | st.lists(
        st.sampled_from([c for c, _ in keys]) | CSV_TEXT, max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_series_csv(series, path)
        everything = read_series_csv(path)
        got = read_series_csv(path, features=features, cities=cities)
    assert got == [
        s for s in everything
        if (features is None or s.feature in features) and (cities is None or s.city in cities)
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    value=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1e-9]),
    vmax=st.floats(0.0, 1e6, allow_nan=False) | st.sampled_from([0.0, 1.0, 2.0]),
)
def test_heatmap_fill_matches_per_channel_interpolation(value, vmax):
    # the fills are computed per channel in numpy; each must be the hex of
    # interpolating that channel from white towards the signed end colour
    t = 0.0 if vmax <= 0 else max(-1.0, min(1.0, value / vmax))
    end = (230, 97, 1) if t > 0 else (26, 150, 65)
    rgb = tuple(round(m + (c - m) * abs(t)) for m, c in zip((255, 255, 255), end))
    assert _diverging_fills([value], vmax) == ["#%02x%02x%02x" % rgb]


def _diverging_color(value, vmax):
    """Reference fill of one heatmap cell, computed on its own."""
    if vmax <= 0:
        t = 0.0
    else:
        t = max(-1.0, min(1.0, value / vmax))
    r, g, b = (230, 97, 1) if t > 0 else (26, 150, 65)
    a = abs(t)
    mr, mg, mb = 255, 255, 255
    return "#%02x%02x%02x" % (
        round(mr + (r - mr) * a), round(mg + (g - mg) * a), round(mb + (b - mb) * a)
    )


def _reference_heatmap_svg(cities, dates, matrix, path):
    """The heatmap SVG written one cell and one ``_diverging_color`` call at a time."""
    vmax = max((abs(v) for row in matrix for v in row if v is not None), default=0.0)
    width = 90 + 12 * len(dates)
    height = 20 + 12 * len(cities)
    step = max(1, len(dates) // 8)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'font-family="monospace" font-size="10">\n'
        )
        for j in range(0, len(dates), step):
            fh.write(f'<text x="{90 + j * 12}" y="12">{dates[j].isoformat()}</text>\n')
        for i, city in enumerate(cities):
            y = 20 + i * 12
            fh.write(f'<text x="0" y="{y + 9}">{city}</text>\n')
            for j, v in enumerate(matrix[i]):
                if v is not None:
                    fh.write(f'<rect x="{90 + j * 12}" y="{y}" width="12" height="12" '
                             f'fill="{_diverging_color(v, vmax)}"/>\n')
        fh.write("</svg>\n")


#: Positions |t| at which some channel, ``mid + (end - mid) * |t|``, is
#: exactly k + 0.5 before rounding, so rounding half to even is exercised.
_HALF_STEPS = (0.5, 0.02, 0.06, 0.1, 0.5 / 229, 0.5 / 105)


def test_half_steps_land_a_channel_on_one_half():
    for h in _HALF_STEPS:
        channels = [255 + (end - 255) * h for end in (230, 97, 1, 26, 150, 65)]
        assert any(c % 1 == 0.5 for c in channels), h


@st.composite
def _heatmap_matrices(draw):
    scale = draw(st.sampled_from([0.0, 1.0, 2.0, 0.75, 1e-3]))
    anchors = [0.0, -0.0, scale, -scale] + [sign * h * scale for h in _HALF_STEPS
                                             for sign in (1, -1)]
    cell = st.one_of(
        st.none(),
        st.sampled_from(anchors),
        st.floats(-scale, scale, allow_nan=False),
        st.floats(),  # NaN and infinities included
    )
    n_cities = draw(st.integers(1, 4))
    n_days = draw(st.integers(1, 20))
    return draw(st.lists(st.lists(cell, min_size=n_days, max_size=n_days),
                         min_size=n_cities, max_size=n_cities))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_heatmap_matrices())
@example([[0.5, -0.5, 1.0, -1.0, None, 0.0]])  # 242.5 and 140.5 round to even
@example([[None, 0.0, -0.0]])  # vmax 0
@example([[None, None]])  # no cell at all
def test_heatmap_svg_equals_the_per_cell_reference(matrix):
    cities = [f"c{i}" for i in range(len(matrix))]
    dates = [D(2020, 3, 1) + dt.timedelta(days=j) for j in range(len(matrix[0]))]
    with tempfile.TemporaryDirectory() as tmp:
        write_heatmap_svg(cities, dates, matrix, Path(tmp) / "got.svg")
        _reference_heatmap_svg(cities, dates, matrix, Path(tmp) / "want.svg")
        assert (Path(tmp) / "got.svg").read_bytes() == (Path(tmp) / "want.svg").read_bytes()
