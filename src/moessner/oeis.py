"""Sequence cross-checks: b-file fixtures, parser, manifest, optional fetch.

Bundled fixtures live in the package's fixtures/ directory as standard
b-files ("index value" per line). Which preset maps to which fixture, under
which parameter assignment and index shift, is declared in
fixtures/manifest.txt: one line per preset-to-fixture pairing, never
inferred. The HTTP fetcher is an explicit opt-in for the CLI; the test
suite never touches the network.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .engine import evaluate, evaluate_memoized, is_markov, is_natural  # noqa: F401  (the first three wrapped by perfbench/tracer.py)
from .errors import BFileParseError, FetchError, FixtureNotFoundError, ParameterError, PreconditionError, digit_limit, integer
from .record import Record

OEIS_BASE_URL_ENV = "OEIS_BASE_URL"
DEFAULT_BASE_URL = "https://oeis.org"


class BFileEntry(Record):
    index: int
    value: int


def normalize_a_number(a_number: Union[str, int]) -> str:
    """Return the canonical 'A000000' form; a bool or a negative int is refused, as '-5' is."""
    try:
        if isinstance(a_number, int):
            number = a_number
        else:
            text = a_number.strip()
            text = text[1:] if text.upper().startswith("A") else text
            number = -1 if text.startswith("-") else integer(text)  # a sign is no part of an id
        if not is_natural(number):
            raise ValueError(a_number)
        return f"A{number:06d}"
    except ValueError as exc:  # not ASCII digits, or past the digit limit
        raise PreconditionError(digit_limit(exc) or f"bad sequence id {a_number!r}") from None


def bfile_name(a_number: Union[str, int]) -> str:
    return "b" + normalize_a_number(a_number)[1:] + ".txt"


def fixtures_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


def parse_bfile(text: str) -> List[BFileEntry]:
    """Parse b-file lines; '#' lines and blanks are ignored.

    Each field is an optional '-' and ASCII digits. Raises BFileParseError
    with the 1-based line number on a malformed line or a non-increasing index.
    """
    entries: List[BFileEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            index, value = integer(fields[0]), integer(fields[1])
        except ValueError as exc:
            problem = digit_limit(exc) or f"non-integer field in {raw!r}"
            raise BFileParseError(f"line {lineno}: {problem}") from None
        if entries and index <= entries[-1].index:
            raise BFileParseError(
                f"line {lineno}: index {index} not above previous {entries[-1].index}"
            )
        entries.append(BFileEntry(index, value))
    return entries


def serialize_bfile(entries: List[BFileEntry]) -> str:
    """Canonical text form; comment-free fixtures round-trip byte-identically."""
    return "".join(f"{e.index} {e.value}\n" for e in entries)


def _read_ascii(path: Path) -> str:
    try:
        return path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise BFileParseError(f"{path.name}: non-ASCII byte at offset {exc.start}") from None


def load_fixture(a_number: Union[str, int], directory: Optional[Path] = None) -> List[BFileEntry]:
    directory = Path(directory) if directory is not None else fixtures_dir()
    path = directory / bfile_name(a_number)
    if not path.is_file():
        raise FixtureNotFoundError(f"no bundled fixture {path.name} in {directory}")
    return parse_bfile(_read_ascii(path))


def fetch(
    a_number: Union[str, int],
    base_url: Optional[str] = None,
    timeout: float = 30.0,
) -> List[BFileEntry]:
    """Download and parse the remote b-file. Opt-in only; tests never call this."""
    import urllib.error  # only --online needs these; importing them costs CLI start-up
    import urllib.request

    canon = normalize_a_number(a_number)
    base = base_url or os.environ.get(OEIS_BASE_URL_ENV) or DEFAULT_BASE_URL
    url = f"{base}/{canon}/{bfile_name(canon)}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise FetchError(f"failed to fetch {url}: {exc}") from exc
    return parse_bfile(text)


class ManifestRow(Record):
    preset: str
    a_number: str
    vary: str
    start: int
    shift: int
    fixed: Dict[str, Any]


def parse_manifest(text: str) -> List[ManifestRow]:
    """One row per line: '<preset> <A-number> vary=<p> from=<i> shift=<i> [k=v...]'.

    vary= names the swept parameter (default n); every other token, from=
    and shift= included, follows the CLI --params grammar (presets.parse_params).
    from= must be a natural; shift= may be negative.
    """
    from . import presets  # deferred: presets uses fixtures for two expected()s

    rows: List[ManifestRow] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 2:
            raise BFileParseError(f"manifest line {lineno}: too few fields in {raw!r}")
        vary = [token[len("vary="):] for token in fields[2:] if token.startswith("vary=")] or ["n"]
        if len(vary) > 1:
            raise BFileParseError(f"manifest line {lineno}: parameter 'vary' given more than once")
        try:
            a_number = normalize_a_number(fields[1])
            fixed = presets.parse_params(t for t in fields[2:] if not t.startswith("vary="))
        except (ParameterError, PreconditionError) as exc:
            raise BFileParseError(f"manifest line {lineno}: {exc}") from None
        start, shift = fixed.pop("from", 0), fixed.pop("shift", 0)
        if not is_natural(start):
            raise BFileParseError(f"manifest line {lineno}: from={start!r} must be a natural")
        rows.append(ManifestRow(fields[0], a_number, vary[0], start, shift, fixed))
    return rows


def load_manifest(directory: Optional[Path] = None) -> List[ManifestRow]:
    directory = Path(directory) if directory is not None else fixtures_dir()
    path = directory / "manifest.txt"
    if not path.is_file():
        raise FixtureNotFoundError(f"no manifest.txt in {directory}")
    return parse_manifest(_read_ascii(path))


class PrefixCheckLine(Record):
    vary_value: int
    engine_value: int
    fixture_value: Optional[int]  # None: fixture too short at this index

    @property
    def ok(self) -> bool:
        return self.fixture_value is not None and self.engine_value == self.fixture_value


class PrefixCheckReport(Record):
    preset: str
    a_number: str
    vary: str
    fixed: Dict[str, Any]
    lines: Tuple[PrefixCheckLine, ...]

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    @property
    def summary(self) -> str:
        good = sum(1 for line in self.lines if line.ok)
        return f"{self.preset} vs {self.a_number}: {good}/{len(self.lines)} match"


def check_preset_prefix(
    preset_name: str,
    count: int,
    directory: Optional[Path] = None,
    entries_by_sequence: Optional[Dict[str, List[BFileEntry]]] = None,
) -> List[PrefixCheckReport]:
    """Compare a preset's prefix against its declared fixture(s).

    Mismatches are report content, not exceptions. entries_by_sequence
    overrides fixture loading (the CLI's --online path passes fetched data).
    """
    from . import presets  # deferred: presets uses fixtures for two expected()s

    rows = [row for row in load_manifest(directory) if row.preset == preset_name]
    if not rows:
        raise PreconditionError(f"no manifest rows declare a fixture for preset {preset_name!r}")
    reports = []
    for row in rows:
        if entries_by_sequence is not None and row.a_number in entries_by_sequence:
            entries = entries_by_sequence[row.a_number]
        else:
            entries = load_fixture(row.a_number, directory)
        by_index = {e.index: e.value for e in entries}
        points = range(row.start, row.start + count)
        values = presets.sweep(row.preset, row.fixed, row.vary, points)
        lines = tuple(
            PrefixCheckLine(point, value, by_index.get(point + row.shift))
            for point, value in zip(points, values)
        )
        reports.append(
            PrefixCheckReport(
                preset=row.preset,
                a_number=row.a_number,
                vary=row.vary,
                fixed=row.fixed,
                lines=lines,
            )
        )
    return reports
