import codecs
import csv
import dataclasses
import hashlib
import io
import re

import pytest

from echosent.lexicon import (
    EMOTION_CATEGORIES,
    decoded_lines,
    load_emotion_lexicon,
    load_valence_lexicon,
    normalize_token,
)
from echosent.textpipe import load_wordlist

# Known rows of the bundled valence excerpt.
KNOWN_VALENCES = {
    ":-)": 1.3,
    "lmao": 2.0,
    "lol": 2.9,
    "abducted": -2.3,
    "abduction": -2.8,
    "agrees": 1.5,
    "alarm": -1.4,
    "alarmed": -1.4,
    "alarmist": -1.1,
    "amaze": 2.5,
    "amort": -2.1,
}


def test_bundled_valence_rows_roundtrip(vlex):
    for token, value in KNOWN_VALENCES.items():
        assert vlex.entries.get(normalize_token(token)) == value


def test_roundtrip_property_against_file(data_dir):
    # independent parse of the same file: every valid row must round-trip
    path = str(data_dir / "vader_lexicon.txt")
    lex = load_valence_lexicon(path)
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    assert rows
    for fields in rows:
        assert lex.entries.get(normalize_token(fields[0])) == float(fields[1])


def test_case_folding_and_verbatim_symbols(vlex):
    assert vlex.entries.get(normalize_token("LOL")) == 2.9
    assert vlex.entries.get(normalize_token("Lol")) == 2.9
    assert vlex.entries.get(normalize_token(":-)")) == 1.3
    assert normalize_token(":-)") == ":-)"
    assert normalize_token("LOL") == "lol"


def test_absent_token_is_none_not_error(vlex):
    assert vlex.entries.get(normalize_token("zzzzqq")) is None
    assert normalize_token("zzzzqq") not in vlex.entries


def test_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    lex = load_valence_lexicon(p)
    assert len(lex.entries) == 0
    assert lex.entries.get(normalize_token("anything")) is None


def test_extra_columns_ignored(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text("fine\t0.8\t0.6\t[1, 0, 1]\n")
    assert load_valence_lexicon(p).entries.get(normalize_token("fine")) == 0.8


def test_duplicate_rows_last_wins_with_warning(tmp_path, caplog):
    p = tmp_path / "lex.txt"
    p.write_text("good\t1.9\ngood\t1.0\n")
    with caplog.at_level("WARNING"):
        lex = load_valence_lexicon(p)
    assert lex.entries.get(normalize_token("good")) == 1.0
    assert any("duplicate" in rec.message for rec in caplog.records)


@pytest.mark.parametrize(
    "content",
    ["good\n", "good\tnotanumber\n", "good\t4.5\n", "good\t-7\n", "\t1.0\n"],
)
def test_valence_errors(tmp_path, content):
    p = tmp_path / "lex.txt"
    p.write_text(content)
    with pytest.raises(ValueError):
        load_valence_lexicon(p)


def test_missing_file():
    with pytest.raises(OSError):
        load_valence_lexicon("/nonexistent/path/lexicon.txt")


def test_two_loads_equal_and_immutable(data_dir):
    path = str(data_dir / "vader_lexicon.txt")
    a = load_valence_lexicon(path)
    b = load_valence_lexicon(path)
    assert a == b
    with pytest.raises(TypeError):
        a.entries["new"] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.source = "elsewhere"


# ---------------------------------------------------------------------------
# Emotion lexicon


def test_bundled_emotion_rows(elex):
    assert elex.entries.get(normalize_token("abandon")) == {"fear", "negative", "sadness"}
    assert elex.entries.get(normalize_token("abacus")) == {"trust"}


def test_flag_zero_token_absent(tmp_path):
    p = tmp_path / "emo.txt"
    p.write_text("abacus\ttrust\t0\n")
    lex = load_emotion_lexicon(p)
    assert lex.entries.get(normalize_token("abacus")) is None
    assert len(lex.entries) == 0


def test_emotion_set_built_from_flag_one_rows(tmp_path):
    p = tmp_path / "emo.txt"
    p.write_text(
        "abandon\tfear\t1\nabandon\tnegative\t1\nabandon\tsadness\t1\n"
        "abandon\tjoy\t0\n"
    )
    lex = load_emotion_lexicon(p)
    assert lex.entries.get(normalize_token("abandon")) == {"fear", "negative", "sadness"}


@pytest.mark.parametrize(
    "content",
    ["word\tboredom\t1\n", "word\tfear\t2\n", "word\tfear\tx\n", "word\tfear\n"],
)
def test_emotion_errors(tmp_path, content):
    p = tmp_path / "emo.txt"
    p.write_text(content)
    with pytest.raises(ValueError):
        load_emotion_lexicon(p)


# ---------------------------------------------------------------------------
# The shared line loop: messages, line ends and checksums


@pytest.mark.parametrize("load, bad, message", [
    (load_valence_lexicon, "good", "expected at least 2 tab-separated fields"),
    (load_valence_lexicon, "  \t1.0", "empty token"),
    (load_valence_lexicon, "good\tnotanumber", "non-numeric valence 'notanumber'"),
    (load_valence_lexicon, "good\t4.5", "valence 4.5 outside [-4, 4]"),
    (load_emotion_lexicon, "word\tfear", "expected word<TAB>emotion<TAB>flag"),
    (load_emotion_lexicon, " \tfear\t1", "empty token"),
    (load_emotion_lexicon, "word\tboredom\t1", "unknown emotion label 'boredom'"),
    (load_emotion_lexicon, "word\tfear\t2", "malformed flag '2'"),
])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_a_bad_record_names_its_file_and_line(tmp_path, load, bad, message, newline):
    good = "fine\t0.8" if load is load_valence_lexicon else "abacus\ttrust\t1"
    p = tmp_path / "lex.txt"
    # line 2 is blank: blank lines are counted, not parsed
    p.write_bytes(newline.join([good, "", bad, good]).encode())
    with pytest.raises(ValueError) as err:
        load(p)
    assert str(err.value) == f"{p}:3: {message}"


def test_lines_end_as_in_a_text_mode_file(tmp_path):
    rows = ["good\t1.9", "lol\t2.9", ":-)\t1.3", "", "bad\t-2.5"]
    lf, crlf, cr = tmp_path / "lf.txt", tmp_path / "crlf.txt", tmp_path / "cr.txt"
    lf.write_bytes("\n".join(rows).encode())
    crlf.write_bytes("\r\n".join(rows).encode() + b"\r\n")
    cr.write_bytes("\r".join(rows).encode())
    want = load_valence_lexicon(lf).entries
    assert dict(want) == {"good": 1.9, "lol": 2.9, ":-)": 1.3, "bad": -2.5}
    assert load_valence_lexicon(crlf).entries == want
    assert load_valence_lexicon(cr).entries == want
    # str.splitlines would also end a line at these; a text-mode file does not
    p = tmp_path / "emo.txt"
    p.write_text("x\x1cy\tfear\t1\nup\u2028down\tjoy\t1\n", encoding="utf-8")
    assert dict(load_emotion_lexicon(p).entries) == {
        "x\x1cy": frozenset({"fear"}), "up\u2028down": frozenset({"joy"}),
    }


@pytest.mark.parametrize("load, good", [
    (load_valence_lexicon, b"fine\t0.8"),
    (load_emotion_lexicon, b"fine\ttrust\t1"),
    (load_wordlist, b"fine"),
])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_a_line_that_is_no_utf8_names_its_file_and_line(tmp_path, load, good, newline):
    p = tmp_path / "bad.txt"
    # line 3 is Latin-1; line 2 is blank, and blank lines are counted
    p.write_bytes(newline.join([good, b"", good.replace(b"fine", b"caf\xe9"), good]))
    with pytest.raises(ValueError) as err:
        load(p)
    assert str(err.value).startswith(f"{p}:3: 'utf-8' codec can't decode byte 0xe9")


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    valence, emotion, words = tmp_path / "v.txt", tmp_path / "e.txt", tmp_path / "w.txt"
    valence.write_bytes(codecs.BOM_UTF8 + b"good\t1.9\r\nbad\t-2.5\r\n")
    emotion.write_bytes(codecs.BOM_UTF8 + b"abacus\ttrust\t1\n")
    words.write_bytes(codecs.BOM_UTF8 + b"Good\nbad\n")
    lex = load_valence_lexicon(valence)
    assert dict(lex.entries) == {"good": 1.9, "bad": -2.5}
    assert lex.checksum == hashlib.sha256(valence.read_bytes()).hexdigest()
    assert dict(load_emotion_lexicon(emotion).entries) == {"abacus": frozenset({"trust"})}
    assert load_wordlist(words) == {"good", "bad"}


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
@pytest.mark.parametrize("end", [b"", b"\n"])
@pytest.mark.parametrize("bad", [1, 2, 3])
def test_decoded_lines_names_the_line_of_a_bad_byte(bom, newline, end, bad):
    rows = [b"one", b"", b"three"]
    fh = io.BytesIO(bom + newline.join(rows) + end)
    with decoded_lines("f.txt", fh) as lines:
        assert list(lines) == [row.decode() + newline.decode() for row in rows[:2]] + [
            "three" + end.decode()]
    rows[bad - 1] += b"caf\xe9"
    fh = io.BytesIO(bom + newline.join(rows) + end)
    with pytest.raises(ValueError, match=re.escape(f"f.txt:{bad}: 'utf-8' codec can't decode")):
        with decoded_lines("f.txt", fh) as lines:
            list(lines)


def test_decoded_lines_names_the_line_of_a_csv_fault_or_a_reader_check():
    fh = io.BytesIO(b"a,b\r\nc,d\r\ne,f\rg,h\r\n")
    with pytest.raises(ValueError, match=re.escape("f.csv:3: new-line character seen")):
        with decoded_lines("f.csv", fh) as lines:
            list(csv.reader(lines))
    # so does a reader's own check, raised after the line it read
    with pytest.raises(ValueError, match=re.escape("f.csv:2: no good")):
        with decoded_lines("f.csv", io.BytesIO(b"a\nb\nc\n")) as lines:
            next(lines), next(lines)
            raise ValueError("no good")
    # a carriage return in a quoted field is kept, as a newline is
    fh = io.BytesIO(b'a,"b\rc\nd"\r\ne,f\n')
    with decoded_lines("f.csv", fh) as lines:
        assert list(csv.reader(lines)) == [["a", "b\rc\nd"], ["e", "f"]]


def test_checksum_is_the_sha256_of_the_file_bytes(tmp_path, data_dir):
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(b"good\t1.9\r\nabacus\t0.5\r\n")
    paths = [(load_valence_lexicon, data_dir / "vader_lexicon.txt"),
             (load_emotion_lexicon, data_dir / "nrc_emotion_lexicon.txt"),
             (load_valence_lexicon, crlf)]
    for load, path in paths:
        assert load(path).checksum == hashlib.sha256(path.read_bytes()).hexdigest()


def test_emotion_categories_are_the_ten_moods():
    assert len(EMOTION_CATEGORIES) == 10
    assert set(EMOTION_CATEGORIES) == {
        "anticipation", "positive", "negative", "sadness", "disgust",
        "joy", "anger", "surprise", "fear", "trust",
    }


def test_symbol_tokens_have_no_letters(vlex):
    symbols = vlex.symbol_tokens()
    assert ":-)" in symbols
    assert "lol" not in symbols
    assert all(not any(c.isalpha() for c in tok) for tok in symbols)
