"""Daily per-city series, period summaries and heatmap emission.

Series CSV format: header ``date,city,feature,value`` with ISO dates, one
row per day. Heatmap CSV: header ``city,<date>,...`` and one row per city.
The SVG heatmap uses a diverging color scale centered at zero (orange
positive, green negative) and contains no timestamps, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import configparser
import csv
import datetime as dt
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .sentiment import ScoredPost

FEATURES = (
    "compound_mean",
    "tweet_count",
    "like_total",
    "reply_total",
    "retweet_total",
    "cases",
)

_ONE_DAY = dt.timedelta(days=1)


@dataclass(frozen=True)
class CitySeries:
    """A contiguous daily series of one feature for one city."""

    city: str
    feature: str
    dates: tuple[dt.date, ...]
    values: tuple[float, ...]
    filled: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        # aggregate_daily restricts features to FEATURES; synthetic series
        # flowing through the same CSV format may carry other names.
        if not self.feature:
            raise ValueError("feature must be nonempty")
        if len(self.dates) != len(self.values):
            raise ValueError("dates and values must have equal length")
        if not self.dates:
            raise ValueError("series must be nonempty")
        for a, b in zip(self.dates, self.dates[1:]):
            if b != a + _ONE_DAY:
                raise ValueError(f"dates must be contiguous daily; gap after {a}")
        if self.filled and len(self.filled) != len(self.dates):
            raise ValueError("filled flags must match dates")

    def __len__(self) -> int:
        return len(self.dates)


#: Value of each aggregated feature on a day with posts.
_DAY_VALUE = {
    "compound_mean": lambda group: sum(p.sentiment.compound for p in group) / len(group),
    "tweet_count": lambda group: float(len(group)),
    "like_total": lambda group: float(sum(p.like_count for p in group)),
    "reply_total": lambda group: float(sum(p.reply_count for p in group)),
    "retweet_total": lambda group: float(sum(p.retweet_count for p in group)),
}


def aggregate_daily(
    posts: Iterable[ScoredPost],
    features: Sequence[str],
    cities: Sequence[str] | None = None,
    start: dt.date | None = None,
    end: dt.date | None = None,
) -> list[CitySeries]:
    """Aggregate scored posts into gap-free daily series, one per (city, feature).

    The posts are grouped once by (city, day). Series come city-major, then
    in ``features`` order; ``cities=None`` means every city, sorted. Each
    city spans its own first to last post day unless ``start``/``end`` are
    given. ``compound_mean`` is the arithmetic mean of the day's compound
    scores; count features are daily sums. Days without posts get 0 for
    counts and a carried-forward mean for ``compound_mean`` (carried backward
    at a leading gap), flagged in ``filled``.
    """
    for feature in features:
        if feature == "cases":
            raise ValueError("case counts are external data; load them with read_series_csv")
        if feature not in FEATURES:
            raise ValueError(f"unknown feature {feature!r}")
    by_city: dict[str, dict[dt.date, list[ScoredPost]]] = {}
    for p in posts:
        by_city.setdefault(p.city, {}).setdefault(p.date, []).append(p)

    out: list[CitySeries] = []
    for city in sorted(by_city) if cities is None else cities:
        by_day = by_city.get(city)
        if not by_day:
            raise ValueError(f"unknown city {city!r}: no posts")
        lo = start or min(by_day)
        hi = end or max(by_day)
        if hi < lo:
            raise ValueError(f"empty range {lo}..{hi}")
        if not any(lo <= day <= hi for day in by_day):
            raise ValueError(f"no posts for {city!r} in {lo}..{hi}")
        dates = tuple(lo + i * _ONE_DAY for i in range((hi - lo).days + 1))
        filled = tuple(day not in by_day for day in dates)
        for feature in features:
            value = _DAY_VALUE[feature]
            observed = [value(by_day[day]) if day in by_day else None for day in dates]
            if feature == "compound_mean":
                # a leading gap has no previous mean; carry the first observed one back
                last = next(v for v in observed if v is not None)
                values = []
                for v in observed:
                    last = last if v is None else v
                    values.append(last)
            else:
                values = [0.0 if v is None else v for v in observed]
            out.append(CitySeries(city, feature, dates, tuple(values), filled))
    return out


def keyword_filter(posts: Sequence, keyword: str) -> list:
    """Posts whose text contains the keyword, case-insensitive, order kept."""
    if not keyword:
        raise ValueError("keyword must be nonempty")
    needle = keyword.casefold()
    return [p for p in posts if needle in p.text.casefold()]


# ---------------------------------------------------------------------------
# Period stratification.

@dataclass(frozen=True)
class Period:
    label: str
    start: dt.date
    end: dt.date


@dataclass(frozen=True)
class PeriodConfig:
    """Ordered, non-overlapping date intervals per city.

    File format (INI): one section per city, ``label = start/end`` with ISO
    dates, both inclusive. A [DEFAULT] section applies to cities without a
    section of their own.
    """

    by_city: Mapping[str, tuple[Period, ...]]
    default: tuple[Period, ...] = ()

    def periods_for(self, city: str) -> tuple[Period, ...]:
        return self.by_city.get(city, self.default)


def _parse_periods(items: Iterable[tuple[str, str]]) -> tuple[Period, ...]:
    periods = []
    for label, value in items:
        try:
            lo, hi = value.split("/")
            period = Period(label, dt.date.fromisoformat(lo.strip()), dt.date.fromisoformat(hi.strip()))
        except ValueError as exc:
            raise ValueError(f"bad period {label!r}: {value!r}") from exc
        if period.end < period.start:
            raise ValueError(f"period {label!r} ends before it starts")
        periods.append(period)
    for a, b in zip(periods, periods[1:]):
        if b.start <= a.end:
            raise ValueError(f"periods {a.label!r} and {b.label!r} overlap or are unordered")
    return tuple(periods)


def load_period_config(path: str | Path) -> PeriodConfig:
    parser = configparser.ConfigParser()
    with Path(path).open(encoding="utf-8") as fh:
        parser.read_file(fh)
    default = _parse_periods(parser.defaults().items())
    by_city = {}
    for section in parser.sections():
        own = [
            (k, v) for k, v in parser.items(section)
            if k not in parser.defaults() or parser.get(section, k) != parser.defaults()[k]
        ]
        by_city[section] = _parse_periods(parser.items(section)) if own else default
    return PeriodConfig(by_city, default)


@dataclass(frozen=True)
class PeriodSummary:
    city: str
    period: str
    n_tweets: int
    mean: float | None
    sd: float | None


REMAINDER_LABEL = "(outside)"


def period_summary(posts: Sequence[ScoredPost], periods: PeriodConfig) -> list[PeriodSummary]:
    """Per (city, period) tweet count, mean and sample sd of compound scores.

    Posts dated outside every period land in a remainder bucket. The sample
    standard deviation (n-1) is reported only for n >= 2.
    """
    by_city: dict[str, list[ScoredPost]] = {}
    for p in posts:
        by_city.setdefault(p.city, []).append(p)
    out: list[PeriodSummary] = []
    for city in sorted(by_city):
        city_periods = periods.periods_for(city)
        # one group per period, then the remainder
        groups: list[list[ScoredPost]] = [[] for _ in range(len(city_periods) + 1)]
        for p in by_city[city]:
            slot = next(
                (k for k, period in enumerate(city_periods) if period.start <= p.date <= period.end),
                len(city_periods),
            )
            groups[slot].append(p)
        labels = [period.label for period in city_periods] + [REMAINDER_LABEL]
        out.extend(_summarize(city, label, group) for label, group in zip(labels, groups))
    return out


def _summarize(city: str, label: str, group: list[ScoredPost]) -> PeriodSummary:
    n = len(group)
    if n == 0:
        return PeriodSummary(city, label, 0, None, None)
    mean = sum(p.sentiment.compound for p in group) / n
    sd = None
    if n >= 2:
        sd = math.sqrt(sum((p.sentiment.compound - mean) ** 2 for p in group) / (n - 1))
    return PeriodSummary(city, label, n, mean, sd)


# ---------------------------------------------------------------------------
# Heatmap matrix and emitters.

def heatmap_matrix(series: Sequence[CitySeries]) -> tuple[list[str], list[dt.date], list[list[float]]]:
    """Stack same-feature, same-range series into a (cities x dates) matrix."""
    if not series:
        raise ValueError("no series given")
    feature = series[0].feature
    dates = series[0].dates
    for s in series:
        if s.feature != feature:
            raise ValueError("heatmap series must share one feature")
        if s.dates != dates:
            raise ValueError("heatmap series must share one date range")
    cities = [s.city for s in series]
    matrix = [list(s.values) for s in series]
    return cities, list(dates), matrix


def write_heatmap_csv(cities, dates, matrix, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["city"] + [d.isoformat() for d in dates])
        for city, row in zip(cities, matrix):
            writer.writerow([city] + [repr(v) for v in row])


_POSITIVE_RGB = (230, 97, 1)    # orange
_NEGATIVE_RGB = (26, 150, 65)   # green
_MID_RGB = (255, 255, 255)


def _diverging_color(value: float, vmax: float) -> str:
    if vmax <= 0:
        t = 0.0
    else:
        t = max(-1.0, min(1.0, value / vmax))
    target = _POSITIVE_RGB if t > 0 else _NEGATIVE_RGB
    a = abs(t)
    rgb = tuple(round(m + (c - m) * a) for m, c in zip(_MID_RGB, target))
    return "#%02x%02x%02x" % rgb


def write_heatmap_svg(
    cities, dates, matrix, path: str | Path, cell: int = 12, label_width: int = 90
) -> None:
    """Render the matrix as a static SVG with a zero-centered diverging scale."""
    vmax = max((abs(v) for row in matrix for v in row), default=0.0)
    width = label_width + cell * len(dates)
    height = 20 + cell * len(cities)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="10">'
    ]
    step = max(1, len(dates) // 8)
    for j in range(0, len(dates), step):
        x = label_width + j * cell
        lines.append(f'<text x="{x}" y="12">{dates[j].isoformat()}</text>')
    for i, city in enumerate(cities):
        y = 20 + i * cell
        lines.append(f'<text x="0" y="{y + cell - 3}">{city}</text>')
        for j, v in enumerate(matrix[i]):
            x = label_width + j * cell
            lines.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_diverging_color(v, vmax)}"/>'
            )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Series CSV I/O (also the interchange format for external case counts).

def write_series_csv(series: Iterable[CitySeries], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "city", "feature", "value"])
        iso: dict[dt.date, str] = {}
        for s in series:
            days = [iso.get(d) or iso.setdefault(d, d.isoformat()) for d in s.dates]
            writer.writerows(zip(days, repeat(s.city), repeat(s.feature), map(repr, s.values)))


def read_series_csv(path: str | Path) -> list[CitySeries]:
    """Read a long-format series CSV back into validated CitySeries objects."""
    rows: dict[tuple[str, str], list[tuple[dt.date, float]]] = {}
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["date", "city", "feature", "value"]
        if reader.fieldnames is None or list(reader.fieldnames) != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}")
        for row in reader:
            key = (row["city"], row["feature"])
            rows.setdefault(key, []).append(
                (dt.date.fromisoformat(row["date"]), float(row["value"]))
            )
    out = []
    for (city, feature), pairs in sorted(rows.items()):
        pairs.sort(key=lambda pv: pv[0])
        out.append(
            CitySeries(
                city,
                feature,
                tuple(d for d, _ in pairs),
                tuple(v for _, v in pairs),
            )
        )
    return out
