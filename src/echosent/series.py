"""Daily per-city series, period summaries and heatmap emission.

A ``CitySeries`` holds its first day and its values, gap-free by construction.
Series CSV format: header ``date,city,feature,value`` with YYYY-MM-DD dates,
one row per day. ``read_series_csv`` checks every row of a file but builds,
and requires gap-free, only the series it is asked for. Heatmap CSV: header
``city,<date>,...`` from the earliest first to the latest last day, one row
per city and an empty field (no SVG cell) on a day outside the city's range.
The SVG heatmap uses a diverging color scale centered at zero (orange
positive, green negative) and contains no timestamps, so identical inputs
produce byte-identical files. ``read_ini`` reads every INI file (periods and
``--config``): values are literal and no section inherits ``[DEFAULT]``. The
CSV and INI files are read by ``lexicon.decoded_lines``; a lone "\\r" outside
a quoted field ends no line and raises ``ValueError`` naming file and line.
"""

from __future__ import annotations

import configparser
import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lexicon import decoded_lines
from .sentiment import ScoredPost
from .textpipe import parse_day

#: The features ``aggregate_daily`` builds, in output order. The first two
#: need the scored posts alone; the engagement totals need their counts.
FEATURES = ("compound_mean", "tweet_count", "like_total", "reply_total", "retweet_total")

_ONE_DAY = dt.timedelta(days=1)


def _check_contiguous(dates: Sequence[dt.date]) -> None:
    for a, b in zip(dates, dates[1:]):
        if b == a:
            raise ValueError(f"date {a} repeats")
        if b != a + _ONE_DAY:
            raise ValueError(f"dates must be contiguous daily; gap after {a}")


@dataclass(frozen=True)
class CitySeries:
    """A daily series of one feature for one city: ``values[i]`` is day ``start + i``.

    Its feature is nonempty and it has at least one value: ``read_series_csv``
    refuses a file that breaks this, and the series the program builds keep it.
    """

    city: str
    feature: str
    start: dt.date
    values: tuple[float, ...]

    @property
    def end(self) -> dt.date:
        return self.start + (len(self.values) - 1) * _ONE_DAY

    def __len__(self) -> int:
        return len(self.values)


def aggregate_daily(
    posts: Iterable[ScoredPost],
    features: Sequence[str],
    cities: Sequence[str] | None = None,
    start: dt.date | None = None,
    end: dt.date | None = None,
) -> list[CitySeries]:
    """Aggregate scored posts into gap-free daily series, one per (city, feature).

    ``posts`` is read once, as it comes (a generator streams through), into
    running sums per (city, day); no post is kept. Series come city-major,
    then in ``features`` order; ``cities=None`` means every city, sorted.
    Each city spans its own first to last post day unless ``start``/``end``
    are given. ``compound_mean`` is the arithmetic mean of the day's compound
    scores; count features are daily sums. Days without posts get 0 for
    counts and a carried-forward mean for ``compound_mean`` (carried backward
    at a leading gap).
    """
    for feature in features:
        if feature == "cases":
            raise ValueError("case counts are external data; load them with read_series_csv")
        if feature not in FEATURES:
            raise ValueError(f"unknown feature {feature!r}")
    # Running sums of one (city, day), one per feature in FEATURES order:
    # [compound, posts, likes, replies, retweets]. Compounds are added one at
    # a time in post order, starting from 0.0, so the day's mean is
    # bit-identical to sum(compounds) / len(compounds) under the sequential
    # float sum of Python 3.10 and 3.11.
    by_city: dict[str, dict[dt.date, list]] = {}
    for p in posts:
        by_day = by_city.get(p.city)
        if by_day is None:
            by_day = by_city[p.city] = {}
        sums = by_day.get(p.date)
        if sums is None:
            sums = by_day[p.date] = [0.0, 0, 0, 0, 0]
        sums[0] += p.sentiment.compound
        sums[1] += 1
        sums[2] += p.like_count
        sums[3] += p.reply_count
        sums[4] += p.retweet_count

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
        # one lookup per (city, day); every feature reads off it
        days = [by_day.get(lo + i * _ONE_DAY) for i in range((hi - lo).days + 1)]
        for feature in features:
            if feature == "compound_mean":
                # a leading gap has no previous mean; carry the first observed one back
                first = next(sums for sums in days if sums is not None)
                last = first[0] / first[1]
                values = []
                for sums in days:
                    if sums is not None:
                        last = sums[0] / sums[1]
                    values.append(last)
            else:
                k = FEATURES.index(feature)
                # an int plus 0.0 is float(int), without the call
                values = [0.0 if sums is None else sums[k] + 0.0 for sums in days]
            out.append(CitySeries(city, feature, lo, tuple(values)))
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

    File format (INI, read by ``read_ini``): one section per city,
    ``label = start/end`` with YYYY-MM-DD dates, both inclusive. A city section
    holds exactly its own periods; the [DEFAULT] section's periods apply to
    cities without a section, or with an empty one.
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
            period = Period(label, parse_day(lo.strip()), parse_day(hi.strip()))
        except ValueError as exc:
            raise ValueError(f"bad period {label!r}: {value!r}") from exc
        if period.end < period.start:
            raise ValueError(f"period {label!r} ends before it starts")
        periods.append(period)
    for a, b in zip(periods, periods[1:]):
        if b.start <= a.end:
            raise ValueError(f"periods {a.label!r} and {b.label!r} overlap or are unordered")
    return tuple(periods)


def read_ini(path: str | Path) -> dict[str, dict[str, str]]:
    """Every section of an INI file as ``{section: {key: value}}``.

    Values are read literally (a ``%`` is not interpolation), keys are
    lowercased, and ``[DEFAULT]`` is a section like any other: no section
    inherits its keys. A file that does not parse raises ``ValueError``
    naming it.
    """
    # no text file names a section "\0", so [DEFAULT] parses as an ordinary section
    parser = configparser.ConfigParser(interpolation=None, default_section="\0")
    with Path(path).open("rb") as fh, decoded_lines(path, fh) as lines:
        lines = list(lines)
    for lineno, line in enumerate(lines, 1):
        if "\r" in line.removesuffix("\n").removesuffix("\r"):
            raise ValueError(f'{path}:{lineno}: lone "\\r" (lines end at "\\n" or "\\r\\n")')
    try:
        parser.read_file(lines, str(path))
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    return {section: dict(parser.items(section)) for section in parser.sections()}


def load_period_config(path: str | Path) -> PeriodConfig:
    """The periods of an INI file; an error names the file and its section."""
    parsed = {}
    for section, items in read_ini(path).items():
        try:
            parsed[section] = _parse_periods(items.items())
        except ValueError as exc:
            raise ValueError(f"{path}: [{section}] {exc}") from None
    default = parsed.pop("DEFAULT", ())
    return PeriodConfig({city: own or default for city, own in parsed.items()}, default)


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

def heatmap_matrix(series: Sequence[CitySeries]) -> tuple[list[str], list[dt.date], list[list]]:
    """Stack same-feature series into a (cities x dates) matrix over the union
    of their date ranges; a city's days outside its own range are ``None``."""
    if not series:
        raise ValueError("no series given")
    feature = series[0].feature
    for s in series:
        if s.feature != feature:
            raise ValueError("heatmap series must share one feature")
    lo = min(s.start for s in series)
    hi = max(s.end for s in series)
    dates = [lo + i * _ONE_DAY for i in range((hi - lo).days + 1)]
    cities = [s.city for s in series]
    matrix = [
        [None] * (s.start - lo).days + list(s.values) + [None] * (hi - s.end).days
        for s in series
    ]
    return cities, dates, matrix


def write_heatmap_csv(cities, dates, matrix, path: str | Path) -> None:
    """One row per city; ``csv`` writes floats by ``repr`` and a missing day as an empty field."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["city"] + [d.isoformat() for d in dates])
        for city, row in zip(cities, matrix):
            writer.writerow([city, *row])


_POSITIVE_RGB = (230, 97, 1)    # orange
_NEGATIVE_RGB = (26, 150, 65)   # green
_MID_RGB = (255, 255, 255)
_HEX = tuple(f"{i:02x}" for i in range(256))


def _diverging_fills(values: Sequence[float], vmax: float) -> list[str]:
    """The "#rrggbb" fill of each value on the diverging scale, in one numpy pass.

    A value's position is ``t = max(-1.0, min(1.0, value / vmax))`` (0 when
    ``vmax <= 0``; a NaN quotient gives 1.0, as ``min`` does); each channel
    is interpolated from white towards the end colour of t's sign by
    ``mid + (end - mid) * abs(t)`` in float64 and rounded half to even, as
    ``round`` rounds that same float.
    """
    x = np.array(values, dtype=np.float64)
    if vmax <= 0:
        t = np.zeros_like(x)
    else:
        # as Python's float division: inf / inf is NaN and an overflow is inf
        with np.errstate(invalid="ignore", over="ignore"):
            t = x / vmax
        t = np.where(t < 1.0, t, 1.0)
        t = np.where(t > -1.0, t, -1.0)
    a = np.abs(t)
    positive = t > 0
    channels = [
        np.rint(mid + np.where(positive, pos - mid, neg - mid) * a).astype(np.intp).tolist()
        for mid, pos, neg in zip(_MID_RGB, _POSITIVE_RGB, _NEGATIVE_RGB)
    ]
    return [f"#{_HEX[r]}{_HEX[g]}{_HEX[b]}" for r, g, b in zip(*channels)]


#: Side of one heatmap cell and width of the city-label column, in SVG px.
_CELL_PX = 12
_LABEL_PX = 90
#: Escapes XML text; ``xml.sax.saxutils.escape`` would import ``urllib.request`` (about 7 MB).
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def write_heatmap_svg(cities, dates, matrix, path: str | Path) -> None:
    """Render the matrix as a static SVG with a zero-centered diverging scale.

    A missing day (``None``) gets no cell, and city names are escaped as XML
    text. Each city's row is written as it is built, so the whole document
    is never held in memory.
    """
    vmax = max((abs(v) for row in matrix for v in row if v is not None), default=0.0)
    width = _LABEL_PX + _CELL_PX * len(dates)
    height = 20 + _CELL_PX * len(cities)
    step = max(1, len(dates) // 8)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'font-family="monospace" font-size="10">\n'
        )
        fh.write("".join(
            f'<text x="{_LABEL_PX + j * _CELL_PX}" y="12">{dates[j].isoformat()}</text>\n'
            for j in range(0, len(dates), step)
        ))
        for i, (city, values) in enumerate(zip(cities, matrix)):
            y = 20 + i * _CELL_PX
            days = [j for j, v in enumerate(values) if v is not None]
            fills = _diverging_fills([values[j] for j in days], vmax)
            fh.write(f'<text x="0" y="{y + _CELL_PX - 3}">{city.translate(_XML_TEXT)}</text>\n')
            fh.write("".join([
                f'<rect x="{_LABEL_PX + j * _CELL_PX}" y="{y}" width="{_CELL_PX}" '
                f'height="{_CELL_PX}" fill="{fill}"/>\n'
                for j, fill in zip(days, fills)
            ]))
        fh.write("</svg>\n")


# ---------------------------------------------------------------------------
# Series CSV I/O (also the interchange format for external case counts).

def write_series_csv(series: Iterable[CitySeries], path: str | Path) -> None:
    """Write series in long format, one ``fh.write`` per series.

    A series' ``,city,feature,`` middle is quoted once by ``csv.writer``;
    ISO dates and ``repr`` floats never need quoting.
    """
    quoted = io.StringIO()
    # the default "\r\n" terminator also makes csv quote fields with line breaks
    middle = csv.writer(quoted)
    iso: dict[int, str] = {}  # by day ordinal
    span = None
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("date,city,feature,value\r\n")
        for s in series:
            quoted.seek(0)
            quoted.truncate()
            middle.writerow(("", s.city, s.feature, ""))
            mid = quoted.getvalue()[:-2]
            if (s.start, len(s)) != span:  # one city's features share their days
                span = s.start, len(s)
                first = s.start.toordinal()
                days = [iso.get(k) or iso.setdefault(k, dt.date.fromordinal(k).isoformat())
                        for k in range(first, first + len(s))]
            fh.write("".join(chain.from_iterable(
                zip(days, repeat(mid), map(repr, s.values), repeat("\r\n"))
            )))


_SERIES_HEADER = ["date", "city", "feature", "value"]


def read_series_csv(
    path: str | Path,
    features: Iterable[str] | None = None,
    cities: Iterable[str] | None = None,
) -> list[CitySeries]:
    """Read a long-format series CSV back into validated CitySeries objects.

    Every row is checked, whichever series it belongs to: it must have
    exactly four fields, a YYYY-MM-DD date and a float value, or ``ValueError``
    names the file and line. Blank lines are skipped. Only the series whose
    feature is in ``features`` and whose city is in ``cities`` (``None``
    keeps all) are built, in (city, feature) order, and only those need a
    nonempty city and feature and gap-free days of finite values: an empty
    city or feature raises ``ValueError`` naming the file and line, a gap or
    a repeated date names the file and the series, and then a value that is
    not finite names the file, the series and the day. A series that is not
    built may hold any float. Dates are read by the memoized ``parse_day``.
    """
    keep_features = None if features is None else frozenset(features)
    keep_cities = None if cities is None else frozenset(cities)
    rows: dict[tuple[str, str], list[tuple[dt.date, float]]] = {}
    with Path(path).open("rb") as fh, decoded_lines(path, fh) as lines:
        reader = csv.reader(lines)
        if next(reader, None) != _SERIES_HEADER:
            raise ValueError(f"expected header {','.join(_SERIES_HEADER)}")
        for row in reader:
            if len(row) != 4:
                if not row:
                    continue
                raise ValueError(f"expected 4 fields, got {len(row)}")
            date, city, feature, value = row
            day = parse_day(date)
            try:
                number = float(value)
            except ValueError:
                raise ValueError(f"bad value {value!r}") from None
            if (keep_features is None or feature in keep_features) and (
                keep_cities is None or city in keep_cities
            ):
                if not (city and feature):
                    raise ValueError(f"{'feature' if city else 'city'} must be nonempty")
                pairs = rows.get((city, feature))
                if pairs is None:
                    pairs = rows[city, feature] = []
                pairs.append((day, number))
    out = []
    for (city, feature), pairs in sorted(rows.items()):
        pairs.sort(key=itemgetter(0))
        dates, values = zip(*pairs)
        try:
            _check_contiguous(dates)
        except ValueError as exc:
            raise ValueError(f"{path}: series {city!r}/{feature!r}: {exc}") from None
        if not all(map(math.isfinite, values)):
            day, value = next(p for p in pairs if not math.isfinite(p[1]))
            raise ValueError(f"{path}: series {city!r}/{feature!r}: value {value!r} on {day} "
                             "is not finite")
        out.append(CitySeries(city, feature, dates[0], values))
    return out
