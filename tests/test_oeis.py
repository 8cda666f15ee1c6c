"""Fixture loading, b-file parsing, manifest wiring, prefix checks. No network."""

import re
import shutil
import subprocess
import sys
import urllib.error
from pathlib import Path

import pytest

from moessner import oeis
from moessner.errors import (
    BFileParseError,
    FetchError,
    FixtureNotFoundError,
    PreconditionError,
)
from moessner.oeis import (
    BFileEntry,
    ManifestRow,
    bfile_name,
    check_preset_prefix,
    fetch,
    fixtures_dir,
    load_fixture,
    load_manifest,
    normalize_a_number,
    parse_bfile,
    parse_manifest,
    serialize_bfile,
)
from moessner.presets import build, preset_names

# non-Markov presets walk every leaf; cap how deep the full-fixture sweep goes
FULL_SWEEP_CAPS = {"a125860": 9, "a137273": 13}


def test_normalize_a_number():
    assert normalize_a_number("A000108") == "A000108"
    assert normalize_a_number("a108") == "A000108"
    assert normalize_a_number(" A000045 ") == "A000045"
    assert normalize_a_number(108) == "A000108"
    assert normalize_a_number("137273") == "A137273"
    for bad in ("Axy", "12.5", "", "A-3"):
        with pytest.raises(PreconditionError):
            normalize_a_number(bad)


@pytest.mark.parametrize("bad", [True, False, -5, -1])
def test_normalize_a_number_refuses_bools_and_negative_ints(bad):
    # as the string path refuses '-5': no 'A-00005' id, b-file name or fetch URL is made of them
    for call in (normalize_a_number, bfile_name, oeis.fetch):  # fetch refuses before any request
        with pytest.raises(PreconditionError, match=f"^bad sequence id {bad!r}$"):
            call(bad)


def test_sequence_ids_past_the_digit_limit_name_the_limit(default_digit_limit):
    big = "9" * 5000
    for call in (
        lambda: normalize_a_number("A" + big),
        lambda: normalize_a_number(10**5000),
        lambda: parse_manifest(f"catalan A{big} vary=n\n"),
    ):
        with pytest.raises(PreconditionError, match=f"limit of {default_digit_limit} digits"):
            call()
    with pytest.raises(PreconditionError, match="bad sequence id"):
        normalize_a_number("A\u00b2")  # a digit to str.isdigit, but not to int()


def test_bfile_name():
    assert bfile_name("A000108") == "b000108.txt"
    assert bfile_name(45) == "b000045.txt"


def test_parse_bfile():
    text = "# header\n\n0 1\n1 1\n2 2\n\n3 5\n"
    entries = parse_bfile(text)
    assert entries == [BFileEntry(0, 1), BFileEntry(1, 1), BFileEntry(2, 2), BFileEntry(3, 5)]
    assert parse_bfile("") == []
    # indices may skip but must increase
    assert parse_bfile("0 1\n5 9\n")[1] == BFileEntry(5, 9)


def test_parse_bfile_errors_carry_line_numbers():
    with pytest.raises(BFileParseError, match="line 2"):
        parse_bfile("0 1\n1 2 3\n")
    with pytest.raises(BFileParseError, match="line 3"):
        parse_bfile("# c\n0 1\nx 2\n")
    with pytest.raises(BFileParseError, match="line 2.*not above"):
        parse_bfile("3 1\n3 2\n")
    with pytest.raises(BFileParseError, match="not above"):
        parse_bfile("3 1\n2 2\n")


def test_parse_bfile_reads_only_a_minus_and_ascii_digits():
    # int() alone reads each of these: "1_0 5" as index 10, "+5 7" as 5, Arabic-Indic "12 3" as 12
    for line in ("1_0 5", "+5 7", "\u0661\u0662 3", "0 1_0", "0 +1", "0 \u0661", "- 1", "--1 2"):
        with pytest.raises(BFileParseError, match=f"^line 2: non-integer field in {re.escape(repr(line))}$"):
            parse_bfile("0 1\n" + line + "\n")
    assert parse_bfile("-3 -10\n-2 0\n") == [BFileEntry(-3, -10), BFileEntry(-2, 0)]


def test_every_bundled_fixture_round_trips():
    for path in sorted(fixtures_dir().glob("b*.txt")):
        raw = path.read_text(encoding="ascii")
        entries = parse_bfile(raw)
        assert entries, path.name
        assert serialize_bfile(entries) == raw, path.name
        # contiguous index runs; the prefix checks rely on this
        indices = [e.index for e in entries]
        assert indices == list(range(indices[0], indices[0] + len(indices))), path.name


def test_load_fixture():
    entries = load_fixture("A000108")
    assert entries[0] == BFileEntry(0, 1)
    assert entries[12].value == 208012
    with pytest.raises(FixtureNotFoundError):
        load_fixture("A999999")
    with pytest.raises(FixtureNotFoundError):
        load_fixture("A000108", directory=Path("/nonexistent"))


def test_load_fixture_directory_override(tmp_path):
    (tmp_path / "b000007.txt").write_text("0 7\n1 8\n", encoding="ascii")
    assert load_fixture("A000007", directory=tmp_path) == [BFileEntry(0, 7), BFileEntry(1, 8)]


def test_parse_manifest_tokens():
    text = (
        "# comment\n"
        "moessner A79 vary=n from=0 shift=0 x=1\n"
        "product_of_table A7 f=2:3:4 n=1\n"
        "moessner_init A7 init=const:2 x=1 n=1\n"
    )
    rows = parse_manifest(text)
    assert rows[0] == ManifestRow("moessner", "A000079", "n", 0, 0, {"x": 1})
    assert rows[1].fixed == {"f": (2, 3, 4), "n": 1}
    assert rows[2].fixed == {"init": "const:2", "x": 1, "n": 1}
    assert rows[2].vary == "n" and rows[2].start == 0 and rows[2].shift == 0


def test_parse_manifest_errors():
    with pytest.raises(BFileParseError, match="line 1"):
        parse_manifest("moessner\n")
    with pytest.raises(BFileParseError, match="bad token"):
        parse_manifest("moessner A79 xyz\n")
    with pytest.raises(BFileParseError, match="non-integer"):
        parse_manifest("moessner A79 x=two\n")


def test_parse_manifest_refuses_a_from_that_is_not_a_natural():
    with pytest.raises(BFileParseError, match=r"^manifest line 2: from=-1 must be a natural$"):
        parse_manifest("# header\ncatalan A000108 from=-1\n")
    assert parse_manifest("catalan A000108 from=0 shift=-1\n")[0].shift == -1


def test_parse_manifest_names_the_line_of_a_bad_sequence_id():
    with pytest.raises(BFileParseError, match=r"^manifest line 2: bad sequence id 'Axy'$"):
        parse_manifest("# header\ncatalan Axy\n")


def test_parse_manifest_rejects_bad_values_and_repeated_keys():
    bad = {
        "from=x": "non-integer",
        "shift=": "non-integer",
        "f=a:b": "non-integer",
        "x=1 x=2": "given more than once",
        "vary=n vary=x": "given more than once",
    }
    for tokens, message in bad.items():
        with pytest.raises(BFileParseError, match=f"manifest line 2: .*{message}"):
            parse_manifest(f"# header\ncatalan A108 {tokens}\n")


def test_non_ascii_fixture_files_raise_parse_errors(tmp_path):
    (tmp_path / "b000108.txt").write_bytes("0 1\n1 1\n# caf\u00e9\n".encode("utf-8"))
    (tmp_path / "manifest.txt").write_bytes("catalan A108 x=\u00b2\n".encode("utf-8"))
    with pytest.raises(BFileParseError, match="b000108.txt"):
        load_fixture("A000108", directory=tmp_path)
    with pytest.raises(BFileParseError, match="manifest.txt"):
        load_manifest(tmp_path)


def test_bundled_manifest_is_coherent():
    rows = load_manifest()
    assert len(rows) == 22
    names = set(preset_names())
    for row in rows:
        assert row.preset in names, row
        # the declared fixture exists and the start index is resolvable
        entries = load_fixture(row.a_number)
        by_index = {e.index: e.value for e in entries}
        assert row.start + row.shift in by_index, row
        # the fixed params plus the varied one build cleanly
        params = dict(row.fixed)
        params[row.vary] = row.start
        build(row.preset, params)
    assert sum(1 for r in rows if r.preset == "catalan_convolved") == 4


def test_manifest_missing(tmp_path):
    with pytest.raises(FixtureNotFoundError, match="manifest"):
        load_manifest(tmp_path)


def test_short_prefix_checks_all_match():
    rows = load_manifest()
    for name in sorted({row.preset for row in rows}):
        count = 6 if name != "a125860" else 5
        reports = check_preset_prefix(name, count)
        assert len(reports) == sum(1 for r in rows if r.preset == name)
        for report in reports:
            assert report.ok, report.summary
            assert report.summary.endswith(f"{count}/{count} match")
            assert len(report.lines) == count


def test_full_fixture_sweep():
    # every manifest row, for as many terms as its fixture holds (capped
    # for the two presets whose evaluation cost grows with the term index)
    rows = load_manifest()
    last_index = {}
    for row in rows:
        entries = load_fixture(row.a_number)
        last_index[row.a_number] = entries[-1].index
    for name in sorted({row.preset for row in rows}):
        mine = [row for row in rows if row.preset == name]
        count = min(last_index[row.a_number] - (row.start + row.shift) + 1 for row in mine)
        count = min(count, FULL_SWEEP_CAPS.get(name, count))
        assert count >= 5, (name, count)
        for report in check_preset_prefix(name, count):
            assert report.ok, report.summary


def test_prefix_check_reports_fixture_exhaustion():
    entries = load_fixture("A000027")
    count = len(entries) + 4
    (report,) = check_preset_prefix("positive_integers", count)
    assert not report.ok
    assert report.summary == f"positive_integers vs A000027: {len(entries)}/{count} match"
    assert report.lines[-1].fixture_value is None
    assert all(line.ok for line in report.lines[: len(entries)])


def test_prefix_check_needs_a_manifest_row():
    with pytest.raises(PreconditionError, match="multiset"):
        check_preset_prefix("multiset", 4)


def test_prefix_check_flags_doctored_fixture(tmp_path):
    doctored = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir(), doctored)
    entries = load_fixture("A000108")
    broken = [
        BFileEntry(e.index, e.value + 1 if e.index == 5 else e.value) for e in entries
    ]
    (doctored / "b000108.txt").write_text(serialize_bfile(broken), encoding="ascii")
    (report,) = [
        r for r in check_preset_prefix("catalan", 10, directory=doctored)
    ]
    assert not report.ok
    assert report.summary == "catalan vs A000108: 9/10 match"
    bad = [line for line in report.lines if not line.ok]
    assert len(bad) == 1
    assert bad[0].vary_value == 5
    assert bad[0].engine_value == 42
    assert bad[0].fixture_value == 43


def test_prefix_check_entries_override():
    fake = {"A000108": [BFileEntry(i, 1) for i in range(6)]}
    (report,) = check_preset_prefix("catalan", 6, entries_by_sequence=fake)
    # constant-ones data disagrees once catalan numbers leave 1
    assert [line.ok for line in report.lines] == [True, True, False, False, False, False]


class _FakeResponse:
    def __init__(self, payload: bytes) -> None:
        self._payload = payload

    def read(self) -> bytes:
        return self._payload

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_fetch_parses_and_builds_url(monkeypatch):
    seen = {}

    def fake_urlopen(url, timeout):
        seen["url"] = url
        seen["timeout"] = timeout
        return _FakeResponse(b"0 1\n1 3\n")

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    entries = fetch("a108", timeout=9.0)
    assert entries == [BFileEntry(0, 1), BFileEntry(1, 3)]
    assert seen["url"] == "https://oeis.org/A000108/b000108.txt"
    assert seen["timeout"] == 9.0


def test_fetch_base_url_sources(monkeypatch):
    seen = {}

    def fake_urlopen(url, timeout):
        seen["url"] = url
        return _FakeResponse(b"0 1\n")

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setenv(oeis.OEIS_BASE_URL_ENV, "http://mirror.test")
    fetch("A000045")
    assert seen["url"] == "http://mirror.test/A000045/b000045.txt"
    fetch("A000045", base_url="http://explicit.test")
    assert seen["url"] == "http://explicit.test/A000045/b000045.txt"


def test_fetch_wraps_transport_errors(monkeypatch):
    def failing_urlopen(url, timeout):
        raise urllib.error.URLError("boom")

    monkeypatch.setattr("urllib.request.urlopen", failing_urlopen)
    with pytest.raises(FetchError, match="b000045.txt"):
        fetch("A000045")


def test_prefix_checks_never_touch_the_network(monkeypatch):
    def tripwire(*args, **kwargs):
        raise AssertionError("network access attempted")

    monkeypatch.setattr("urllib.request.urlopen", tripwire)
    for report in check_preset_prefix("fibonacci", 8):
        assert report.ok
    load_fixture("A000111")


def test_cli_import_leaves_urllib_request_unloaded():
    # only --online needs the HTTP client; start-up should not pay for it
    probe = "import sys, moessner.cli; print('urllib.request' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_bfile_value_past_the_digit_limit_names_the_limit(default_digit_limit):
    with pytest.raises(BFileParseError, match=f"line 2: .*limit of {default_digit_limit} digits"):
        parse_bfile("1 1\n2 " + "9" * 5000 + "\n")
