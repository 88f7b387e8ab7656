"""Heap-object access profiles: types, file I/O, filtering, scaling, synthesis.

A profile records what an application did to one heap object over its
lifetime: how big it was, when it lived, how many bytes it moved, and how
often it missed the last-level cache. Profile files are line-oriented text
(version header ``hmms-profile-v1``); a directory of files for several
workload sizes can be described by a ``manifest.json`` so that access
patterns can be extrapolated to unprofiled workload sizes.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat, takewhile
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

PROFILE_FORMAT_VERSION = "hmms-profile-v1"
MANIFEST_FORMAT_VERSION = "hmms-profile-manifest-v1"
MANIFEST_NAME = "manifest.json"

# Column order of a profile record; llc_mpki is optional and may be blank.
_COLUMNS = ("id", "size_bytes", "alloc_s", "dealloc_s", "accessed_bytes",
            "llc_misses", "dirty_blocks")
_OPTIONAL_COLUMN = "llc_mpki"
# The column header lines as write_profiles writes them, without llc_mpki
# and with it.
_HEADERS = (",".join(_COLUMNS), ",".join(_COLUMNS + (_OPTIONAL_COLUMN,)))

# Access patterns that scale with workload size.
PATTERNS = ("size", "accessed_volume", "llc_misses", "dirty_blocks", "lifetime")

DEFAULT_MAJOR_THRESHOLD = 1 << 20  # bytes of accessed volume


def _sum_in_order(values: np.ndarray) -> float:
    """The float64 ``values`` added one at a time in index order from 0.0,
    as ``sum(values.tolist(), 0.0)`` adds on Python 3.11, on every supported
    Python (3.12's ``sum`` compensates). An empty array gives 0.0."""
    # numpy's accumulate adds in sequence. It may end at -0.0, which a loop
    # from 0.0 never does; ``0.0 +`` turns that into 0.0.
    return 0.0 + float(np.add.accumulate(values)[-1]) if len(values) else 0.0


class ProfileError(ValueError):
    """Malformed or invariant-violating profile data."""


class ScalingError(ValueError):
    """Scaling vector cannot be derived or applied."""


class GeneratorError(ValueError):
    """Synthetic profile generator given an unsatisfiable parameter set."""


@dataclass(frozen=True)
class ObjectProfile:
    """Access-pattern record for one heap object.

    Times are seconds from application start, sizes and volumes are bytes,
    miss and dirty-block counts may be fractional after extrapolation.
    """

    id: str
    size: float
    alloc_time: float
    dealloc_time: float
    accessed_volume: float
    llc_misses: float
    dirty_blocks: float
    llc_mpki: float | None = None

    def __post_init__(self) -> None:
        if bad := _first_bad(self):
            raise ProfileError(bad[1])

    @property
    def lifetime(self) -> float:
        return self.dealloc_time - self.alloc_time

    def live_at(self, t: float) -> bool:
        """True if the object is allocated and not yet freed at time t."""
        return self.alloc_time <= t < self.dealloc_time


# Numeric fields of ObjectProfile, in its argument order and the file's
# column order; a ProfileSet stores them as the rows of one float table.
_NUMERIC = ("size", "alloc_time", "dealloc_time", "accessed_volume",
            "llc_misses", "dirty_blocks")
# A record as write_profiles writes it: the numbers, then llc_mpki blank
# (an object), or llc_mpki given and read as the numbers' last.
_RECORDS = [np.dtype([("id", object), ("numbers", float, len(_NUMERIC)),
                      (_OPTIONAL_COLUMN, object)]),
            np.dtype([("id", object), ("numbers", float, len(_NUMERIC) + 1)])]


def _id_ok(object_id) -> bool | np.ndarray:
    # A profile file splits on commas and line breaks, strips each field
    # and skips lines that start with '#'. Ids are tested one by one only if
    # their joined text shows a bad one (generate at 2000 objects: 1.10x).
    if isinstance(object_id, str):
        return ("," not in object_id and object_id.splitlines() == [object_id]
                and object_id == object_id.strip() and object_id[:1] != "#")
    if isinstance(object_id, np.ndarray):
        ids = object_id.tolist()
        if _ids_ok(ids):
            return np.ones(len(ids), bool)
        return np.fromiter(map(_id_ok, ids), bool, len(ids))
    return False


def _ids_ok(ids: list) -> bool:
    """True if the joined text of the ids shows every one keeps the id
    rule; False if it shows one may not."""
    with suppress(TypeError):  # a column holding a non-str id
        text = ",".join(ids)
        return (text.count(",") == len(ids) - 1 and all(ids)
                and ("#" not in text or ",#" not in "," + text)
                and (text.split() == [text]  # no whitespace at all
                     or (text.splitlines() == [text]
                         and ",".join(map(str.strip, ids)) == text)))
    return False


# The rules every record keeps, in the order a broken one is reported: a
# test of one field x of the record r, the fields it is applied to, in
# order, and the message of a record that fails it, formatted from its
# fields and the failing one's name. r is an ObjectProfile or columns of
# records (see _columns); the tests use comparisons only (finiteness is
# abs(x) < inf), so they give a bool for one record and a mask for a
# column, and none warns of a NaN or an infinity.
_CHECKS = (
    (lambda r, x: (x != '') & (x != None), ("id",),
     "object id must be a non-empty string"),
    (lambda r, x: _id_ok(x), ("id",), "object id {id!r} contains a "
     "separator character, surrounding whitespace or a leading '#'"),
    (lambda r, x: abs(x) < math.inf, _NUMERIC,
     "object {id!r}: {field} must be finite"),
    (lambda r, x: x > 0, ("size",), "object {id!r}: size must be positive"),
    (lambda r, x: x >= 0, ("accessed_volume", "llc_misses", "dirty_blocks"),
     "object {id!r}: {field} must be >= 0"),
    (lambda r, x: x > r.alloc_time, ("dealloc_time",), "object {id!r}: "
     "dealloc_time {dealloc_time} must be after alloc_time {alloc_time}"),
    (lambda r, x: x is None or (x >= 0) & (x < math.inf), ("llc_mpki",),
     "object {id!r}: llc_mpki must be >= 0"),
)
_VALUE_CHECKS = _CHECKS[2:]  # the rules that do not read the id


def _columns(ids: Sequence[str], table: np.ndarray, mpki: np.ndarray,
             mpki_given: np.ndarray | bool | None = None) -> SimpleNamespace:
    """Records as columns for the rules: one per field, the numeric ones
    the rows of ``table``. ``mpki`` is NaN where a record has none;
    ``mpki_given``, one flag or one per record, marks those that gave one
    (a file can spell NaN), by default those not NaN. Others pass as 0."""
    if mpki_given is None:
        mpki_given = ~np.isnan(mpki)
    return SimpleNamespace(id=np.asarray(ids, dtype=object),
                           **dict(zip(_NUMERIC, table)),
                           llc_mpki=np.where(mpki_given, mpki, 0.0))


def _broken(columns: SimpleNamespace, checks) -> np.ndarray:
    """The records that break any of the rules: each rule is tested on the
    column of each of its fields."""
    return ~np.logical_and.reduce([
        check(columns, getattr(columns, name))
        for check, names, _ in checks for name in names])


def _first_bad(record, checks=_CHECKS) -> tuple[int, str] | None:
    """Position of the first record that breaks one of the rules and the
    message of the first rule it breaks, or None. ``record`` is one
    ObjectProfile (position 0) or columns of records."""
    k = 0
    if not isinstance(record, ObjectProfile):
        bad = _broken(record, checks)
        if not bad.any():
            return None
        k = int(np.argmax(bad))
        record = SimpleNamespace(**{
            name: getattr(record, name).tolist()[k]
            for name in ("id",) + _NUMERIC + ("llc_mpki",)})
    for check, names, message in checks:
        for name in names:
            if not check(record, getattr(record, name)):
                return k, message.format(field=name, **vars(record))
    return None


class ProfileSet:
    """Ordered collection of object profiles for one profiled workload.

    The set is stored as columns in profile order: the ids, one read-only
    float array per numeric field of ObjectProfile (``size``,
    ``alloc_time``, ..., and the derived ``lifetime``) and ``llc_mpki``,
    which is NaN where an object has none. The pricing formulas price a set
    elementwise, giving the same doubles as one call per object. The id
    ``index``, the ObjectProfile tuple (``objects``, iteration, ``get``),
    the ``events`` order, filter_major's splits and energy.prices' columns
    per device are built on first use and kept.
    """

    def __init__(self, objects: Iterable[ObjectProfile] = (),
                 workload_label: str = "",
                 workload_size: float | None = None) -> None:
        objects = tuple(objects)
        table = np.array(list(map(attrgetter(*_NUMERIC), objects)),
                         dtype=float)
        mpki = list(map(attrgetter("llc_mpki"), objects))
        self._fill(tuple(map(attrgetter("id"), objects)),
                   table.reshape(-1, len(_NUMERIC)).T,
                   np.array(mpki, dtype=float), workload_label, workload_size)

    @classmethod
    def from_columns(cls, ids: Sequence[str], *, size, alloc_time,
                     dealloc_time, accessed_volume, llc_misses, dirty_blocks,
                     llc_mpki=None, workload_label: str = "",
                     workload_size: float | None = None) -> "ProfileSet":
        """A set from one id and one value per object in each column.

        ``llc_mpki`` may be None or hold NaN for objects without one. The
        first object ObjectProfile would reject raises its ProfileError.
        """
        ids = tuple(ids)
        table = np.array([size, alloc_time, dealloc_time, accessed_volume,
                          llc_misses, dirty_blocks], dtype=float)
        table = table.reshape(len(_NUMERIC), len(ids))
        mpki = np.array([None] * len(ids) if llc_mpki is None else llc_mpki,
                        dtype=float)
        bad = _first_bad(_columns(ids, table, mpki))
        if bad:
            raise ProfileError(bad[1])
        return cls._of(ids, table, mpki, workload_label, workload_size)

    @classmethod
    def _of(cls, ids: tuple[str, ...], table: np.ndarray, mpki: np.ndarray,
            workload_label: str, workload_size: float | None) -> "ProfileSet":
        # Columns already checked against the ObjectProfile rules.
        profiles = cls.__new__(cls)
        profiles._fill(ids, table, mpki, workload_label, workload_size)
        return profiles

    def _fill(self, ids: tuple[str, ...], table: np.ndarray,
              mpki: np.ndarray, workload_label: str,
              workload_size: float | None) -> None:
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            for object_id in ids:
                if object_id in seen:
                    raise ProfileError(f"duplicate object id {object_id!r}")
                seen.add(object_id)
        if workload_size is not None and not math.isfinite(workload_size):
            raise ProfileError("workload_size must be finite")
        self._keep(ids, np.ascontiguousarray(table, dtype=float),  # C order
                   np.array(mpki, dtype=float), workload_label, workload_size)

    def _keep(self, ids: tuple[str, ...], table: np.ndarray,
              mpki: np.ndarray, workload_label: str,
              workload_size: float | None) -> None:
        # Takes ownership of the arrays and makes them read-only.
        lifetime = table[2] - table[1]
        for array in (table, mpki, lifetime):
            array.flags.writeable = False
        self.__dict__.update(zip(_NUMERIC, table))
        self.__dict__.update(
            _ids=ids, _table=table, lifetime=lifetime,
            llc_mpki=mpki, workload_label=workload_label,
            workload_size=workload_size, _splits={}, _prices={})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"ProfileSet is read-only ({name!r})")

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each object id in profile order."""
        return dict(zip(self._ids, range(len(self._ids))))

    @cached_property
    def events(self) -> tuple[np.ndarray, np.ndarray]:
        """Every allocation (+size) and free (-size) in (time, delta)
        order, as the position of each event's object and its delta. Ties
        keep position order (a stable sort), so the events of a subset of
        objects, taken in this order, are in the order a sort of the subset
        alone gives."""
        times = np.concatenate((self.alloc_time, self.dealloc_time))
        deltas = np.concatenate((self.size, -self.size))
        # Distinct times have one sorted order, which any sort finds faster
        # (tools/ab.py, lexsort always: evaluate 1.07x, 1.04-1.10).
        order = np.argsort(times)
        ordered = times[order]
        if (ordered[1:] == ordered[:-1]).any():
            order = np.lexsort((deltas, times))
        owners, deltas = order % len(self), deltas[order]
        owners.flags.writeable = deltas.flags.writeable = False
        return owners, deltas

    @cached_property
    def objects(self) -> tuple[ObjectProfile, ...]:
        mpki = [None if math.isnan(m) else m for m in self.llc_mpki.tolist()]
        return tuple(map(ObjectProfile, self._ids, *self._table.tolist(),
                         mpki))

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[ObjectProfile]:
        return iter(self.objects)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProfileSet):
            return NotImplemented
        return (self._ids == other._ids
                and self.workload_label == other.workload_label
                and self.workload_size == other.workload_size
                and np.array_equal(self._table, other._table)
                and np.array_equal(self.llc_mpki, other.llc_mpki,
                                   equal_nan=True))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"ProfileSet({self.objects!r}, {self.workload_label!r}, "
                f"{self.workload_size!r})")

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def get(self, object_id: str) -> ObjectProfile:
        return self.objects[self.index[object_id]]

    def total_size(self) -> float:
        return _sum_in_order(self.size)

    def live_at(self, t: float) -> np.ndarray:
        """Mask of the objects allocated and not yet freed at time t."""
        return (self.alloc_time <= t) & (t < self.dealloc_time)

    def take(self, mask: Sequence[bool] | np.ndarray) -> "ProfileSet":
        """The objects where ``mask`` is true, in profile order, with this
        set's label and workload size. A subset of a checked set needs no
        check, and indexing gives it arrays of its own."""
        mask = np.asarray(mask, dtype=bool)
        subset = ProfileSet.__new__(ProfileSet)
        subset._keep(tuple(compress(self._ids, mask.tolist())),
                     self._table[:, mask], self.llc_mpki[mask],
                     self.workload_label, self.workload_size)
        return subset


@dataclass(frozen=True)
class ScalingVector:
    """Average gradient of each access pattern per unit of workload size."""

    gradients: dict[str, dict[str, float]]

    def __post_init__(self) -> None:
        for object_id, grads in self.gradients.items():
            for name, value in grads.items():
                if name not in PATTERNS:
                    raise ScalingError(f"unknown pattern {name!r} for {object_id!r}")
                if not math.isfinite(value):
                    raise ScalingError(f"gradient for {object_id!r}/{name} not finite")

    def for_object(self, object_id: str) -> dict[str, float]:
        try:
            return self.gradients[object_id]
        except KeyError:
            raise ScalingError(f"no scaling entry for object {object_id!r}") from None


# Records write_profiles formats at a time: enough to make the per-column
# passes pay, few enough that one block's Python fields stay small. The
# file's text is then joined and encoded whole, so that a text that cannot
# be encoded leaves the file as it was: writing 10^5 records (an 8.9 MiB
# file) peaks at 27.6 MiB traced, 68.7 MiB as one block.
_WRITE_BLOCK = 4096


def _format_columns(values: np.ndarray) -> list[list[str]]:
    """Each row of ``values`` as the column of fields a profile file spells.
    NaN (no llc_mpki) is an empty field; integral values below 1e16 in
    magnitude print as integers so generated files stay tidy; repr keeps
    full round-trip precision for everything else. Integral values are found
    for the whole block at once and spelled a column at a time, a column of
    them by str alone (tools/ab.py, by repr first: scale 1.09x, 1.07-1.12)."""
    whole = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    columns = []
    for column, column_whole in zip(values, whole):
        if column_whole.all():
            columns.append(list(map(str, column.astype(np.int64).tolist())))
            continue
        texts = list(map(repr, column.tolist()))
        if column_whole.any():
            ints = column[column_whole].astype(np.int64).tolist()
            for k, value in zip(np.flatnonzero(column_whole).tolist(), ints):
                texts[k] = str(value)
        if "nan" in texts:
            texts = ["" if text == "nan" else text for text in texts]
        columns.append(texts)
    return columns


def read_text(source: str | os.PathLike | IO[str]) -> str:
    """The text of a stream, read as is, or of the UTF-8 file a path names,
    read with one binary read, with CRLF and a lone CR turned into LF as a
    text-mode read turns them."""
    if hasattr(source, "read"):
        return source.read()
    with open(source, "rb", buffering=0) as handle:
        text = handle.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def write_text(dest: str | os.PathLike | IO[str], text: str) -> None:
    """Write ``text`` to a stream as is, or to the file a path names as
    UTF-8 with one binary write. The text is encoded before the file is
    opened, so text that cannot be encoded leaves the file as it was."""
    if hasattr(dest, "write"):
        dest.write(text)
        return
    data = text.encode("utf-8")
    with open(dest, "wb") as handle:
        handle.write(data)


def load_profiles(source: str | os.PathLike | IO[str],
                  workload_label: str = "",
                  workload_size: float | None = None) -> ProfileSet:
    """Read one profile file (path or open text stream) into a ProfileSet.

    The version line comes first, then the column header and one record
    per line; blank lines and lines starting with '#' are skipped. Raises
    ProfileError naming the offending line for malformed records and for
    records violating object invariants; the first bad line wins.
    Duplicate ids are reported once every record has passed.
    """
    lines = read_text(source).splitlines()
    if not lines or lines[0].strip() != PROFILE_FORMAT_VERSION:
        raise ProfileError(
            f"line 1: expected format header {PROFILE_FORMAT_VERSION!r}")
    # A file's numbers come from one of two readers. write_profiles' header
    # is tried with one np.loadtxt of typed fields, which skips the per-line
    # passes (tools/ab.py: wide-pipeline 1.24x with them). Its numbers stand
    # for a file it reads whole: every record (numpy skips a blank line),
    # llc_mpki in all or none, and ids the passes would not strip. Any other
    # file is read by _numbers' float(), record by record.
    records, line_nos = lines[2:], range(2, len(lines) + 1)
    values = None
    if lines[1:2] == [_HEADERS[-1]] and any(records):  # else loadtxt warns
        given = not records[-1].endswith(",")
        with suppress(ValueError):  # numpy reads fewer numbers than float()
            rows = np.loadtxt(records, _RECORDS[given], delimiter=",",
                              comments=None, ndmin=1)
            ids, values = rows["id"], rows["numbers"].T
            if given:  # one C-order copy, which the set keeps
                values = np.ascontiguousarray(values)
            else:  # llc_mpki is NaN
                mpki = rows[_OPTIONAL_COLUMN]
                values = np.vstack((values, np.full(len(rows), math.nan)))
    loadable = (values is not None and (given or not any(mpki.tolist()))
                and len(rows) == len(records) and _ids_ok(ids.tolist()))
    checks = _VALUE_CHECKS if loadable else _CHECKS  # vouched for the ids
    if not loadable:  # per-line passes, which skip blank and comment lines
        kept = [k for k, line in enumerate(lines[1:])
                if line.strip()[:1] not in ("", "#")]
        lines, line_nos = [lines[k + 1] for k in kept], [k + 2 for k in kept]
        if not lines:
            raise ProfileError("line 2: missing column header")
        if ",".join(map(str.strip, lines[0].split(","))) not in _HEADERS:
            raise ProfileError(f"line {line_nos[0]}: expected column header "
                               f"{','.join(_COLUMNS)}[,{_OPTIONAL_COLUMN}]")
        header_fields, records = lines[0].count(",") + 1, lines[1:]
        ids = np.array([*map(str.strip, map(itemgetter(0), map(
            str.partition, records, repeat(","))))], dtype=object)
        # _numbers reads up to the first record it cannot
        parsed = list(takewhile(list.__instancecheck__,
                                map(_numbers, records, repeat(header_fields))))
        given = np.array([row[-1] is not None for row in parsed], bool)
        values = np.array(parsed, dtype=float).reshape(len(parsed),
                                                       len(_NUMERIC) + 1).T
    stop, table, mpki_values = values.shape[1], values[:-1], values[-1]
    bad = _first_bad(_columns(ids[:stop], table, mpki_values, given), checks)
    if bad:
        raise ProfileError(f"line {line_nos[bad[0] + 1]}: {bad[1]}")
    if stop < len(records):
        raise ProfileError(f"line {line_nos[stop + 1]}: "
                           + _numbers(records[stop], header_fields))
    return ProfileSet._of(tuple(ids.tolist()), table, mpki_values,
                          workload_label, workload_size)


def _numbers(record: str, header_fields: int) -> list[float | None] | str:
    """The six numbers of a record and its llc_mpki (None if blank) as
    float() reads them, for every file the typed np.loadtxt did not vouch for;
    or why it cannot: the record has neither 7 nor 8 fields, or the first
    field float() rejects, a given llc_mpki before the columns in order."""
    fields = record.split(",")
    if len(fields) not in (len(_COLUMNS), len(_COLUMNS) + 1):
        return f"expected {header_fields} fields, got {len(fields)}"
    mpki = fields[-1].strip() if len(fields) > len(_COLUMNS) else ""
    try:  # str.strip, not float(), drops a unit separator around a number
        return [*map(float, map(str.strip, fields[1:len(_COLUMNS)])),
                float(mpki) if mpki else None]
    except ValueError:  # name the first field float() rejects
        pass
    named = list(zip(map(str.strip, fields[1:]), _COLUMNS[1:]))
    for text, column in [(mpki, _OPTIONAL_COLUMN)] * bool(mpki) + named:
        try:
            float(text)
        except ValueError:
            return f"field {column!r} is not a number: {text!r}"
    raise AssertionError(f"{record!r} is readable")


def write_profiles(profiles: ProfileSet, dest: str | os.PathLike | IO[str]) -> None:
    """Write a ProfileSet in the profile file format (see load_profiles).

    Records are formatted a block at a time, one pass per column, and the
    blocks are written with one call."""
    ids, table, mpki = profiles.ids(), profiles._table, profiles.llc_mpki
    parts = [PROFILE_FORMAT_VERSION + "\n" + _HEADERS[-1] + "\n"]
    for start in range(0, len(ids), _WRITE_BLOCK):
        block = slice(start, start + _WRITE_BLOCK)
        columns = _format_columns(np.vstack((table[:, block], mpki[block])))
        parts.append("\n".join(map(",".join, zip(ids[block], *columns)))
                     + "\n")
    write_text(dest, "".join(parts))


def load_profile_dir(path: str | os.PathLike) -> list[ProfileSet]:
    """Read a directory of profile files described by a manifest.json.

    The manifest lists one entry per workload:
    ``{"format": "hmms-profile-manifest-v1", "workloads":
    [{"file": ..., "workload_size": ..., "label": ...}, ...]}``.
    Sets are returned in manifest order. A malformed manifest raises a
    ProfileError naming its path and, where there is one, the entry; a bad
    record in a listed file, one naming that file.
    """
    manifest_path = os.path.join(os.fspath(path), MANIFEST_NAME)
    try:
        manifest = json.loads(read_text(manifest_path))
    except FileNotFoundError:
        raise ProfileError(f"no {MANIFEST_NAME} in {os.fspath(path)!r}") from None
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ProfileError(f"{manifest_path}: expected a JSON object")
    if manifest.get("format") != MANIFEST_FORMAT_VERSION:
        raise ProfileError(
            f"{manifest_path}: expected format {MANIFEST_FORMAT_VERSION!r}")
    entries = manifest.get("workloads", [])
    if not (isinstance(entries, list)
            and all(isinstance(entry, dict) for entry in entries)):
        raise ProfileError(
            f"{manifest_path}: workloads must be a list of objects")
    sets = []
    for i, entry in enumerate(entries):
        name, size = entry.get("file"), entry.get("workload_size")
        label = entry.get("label", name)
        for key, text in (("file", name), ("label", label)):
            if not isinstance(text, str):
                raise ProfileError(f"{manifest_path}: workloads[{i}]: "
                                   f"{key} must be a string, got {text!r}")
        if size is not None and (isinstance(size, bool)
                                 or not isinstance(size, (int, float))):
            raise ProfileError(f"{manifest_path}: workloads[{i}]: "
                               f"workload_size must be a number, got {size!r}")
        try:
            finite = size is None or math.isfinite(size)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ProfileError(f"{manifest_path}: workloads[{i}]: "
                               "workload_size must be finite")
        file_path = os.path.join(os.fspath(path), name)
        try:
            sets.append(load_profiles(file_path,
                                      workload_label=label,
                                      workload_size=size))
        except ProfileError as exc:
            raise ProfileError(f"{file_path}: {exc}") from None
    return sets


def write_profile_dir(sets: Sequence[ProfileSet],
                      path: str | os.PathLike) -> None:
    """Write several ProfileSets, as workload0.prof, workload1.prof, ...,
    plus a manifest.json into a directory."""
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    entries = []
    for i, profiles in enumerate(sets):
        name = f"workload{i}.prof"
        write_profiles(profiles, os.path.join(path, name))
        entry: dict[str, object] = {"file": name, "label": profiles.workload_label}
        if profiles.workload_size is not None:
            entry["workload_size"] = profiles.workload_size
        entries.append(entry)
    manifest = {"format": MANIFEST_FORMAT_VERSION, "workloads": entries}
    write_text(os.path.join(path, MANIFEST_NAME),
               json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def filter_major(profiles: ProfileSet,
                 threshold: float = DEFAULT_MAJOR_THRESHOLD
                 ) -> tuple[ProfileSet, ProfileSet]:
    """Split into placement candidates and the small objects pinned to DRAM.

    Major objects are those whose accessed volume exceeds the threshold;
    everything else is minor and later forced onto DRAM by the planners.
    The pair is kept on the set and shared by later calls.
    """
    splits = profiles._splits
    if threshold not in splits:
        major = major_mask(profiles, threshold)
        splits[threshold] = profiles.take(major), profiles.take(~major)
    return splits[threshold]


def major_mask(profiles: ProfileSet,
               threshold: float = DEFAULT_MAJOR_THRESHOLD) -> np.ndarray:
    """Mask of the major objects: accessed volume above the threshold."""
    if not threshold >= 0:  # NaN fails too: no volume is above or below it
        raise ValueError("major-object threshold must be >= 0")
    return profiles.accessed_volume > threshold


@np.errstate(over="ignore", invalid="ignore")  # ScalingVector rejects inf/nan
def derive_scaling_vector(sets: Sequence[ProfileSet]) -> ScalingVector:
    """Average per-object pattern gradients across profiled workload sizes.

    For each object and pattern the gradient is the mean of the pairwise
    difference quotients between consecutive workload sizes.
    """
    if len(sets) < 2:
        raise ScalingError("need at least two profile sets to derive gradients")
    for s in sets:
        if s.workload_size is None:
            raise ScalingError(
                f"profile set {s.workload_label!r} has no workload_size")
    for a, b in zip(sets, sets[1:]):
        if not b.workload_size > a.workload_size:
            raise ScalingError(
                "workload sizes must be strictly increasing "
                f"({a.workload_size} then {b.workload_size})")
    ids = sets[0].ids()
    if any(s.index.keys() != sets[0].index.keys() for s in sets[1:]):
        universe = set().union(*(s.index for s in sets))
        for object_id in sorted(universe):
            for s in sets:
                if object_id not in s.index:
                    raise ScalingError(
                        f"object {object_id!r} missing from set "
                        f"{s.workload_label!r}")

    # One row per pattern, one column per object in the first set's order.
    patterns = [_patterns(s)[:, [s.index[i] for i in ids]]
                if s.ids() != ids else _patterns(s) for s in sets]
    quotients = [(b - a) / (sb.workload_size - sa.workload_size)
                 for a, b, sa, sb in zip(patterns, patterns[1:], sets, sets[1:])]
    gradients = sum(quotients) / len(quotients)
    return ScalingVector({object_id: dict(zip(PATTERNS, row)) for object_id, row
                          in zip(ids, gradients.T.tolist())})


def _patterns(profiles: ProfileSet) -> np.ndarray:
    return np.array([getattr(profiles, name) for name in PATTERNS])


@np.errstate(over="ignore")  # the record rules reject an overflow
def extrapolate(profiles: ProfileSet, vector: ScalingVector,
                target_workload_size: float) -> ProfileSet:
    """Project a profiled workload to a new workload size along the gradients.

    Each pattern moves linearly from its value in `profiles` (the anchor,
    normally the largest profiled workload); negative projections clamp to 0.
    Allocation times are preserved and deallocation times follow the
    extrapolated lifetime.
    """
    if profiles.workload_size is None:
        raise ScalingError("anchor profile set has no workload_size")
    if not math.isfinite(target_workload_size):
        raise ScalingError("target workload size must be finite")
    if target_workload_size <= 0:
        raise ScalingError("target workload size must be positive")
    delta = target_workload_size - profiles.workload_size

    ids = profiles.ids()
    grads = [vector.gradients.get(object_id) for object_id in ids]
    # Objects are projected in profile order up to the first one the vector
    # does not cover; that one fails unless an earlier one degenerates.
    known = next((k for k, g in enumerate(grads) if g is None), len(ids))
    rate = itemgetter(*PATTERNS)
    slopes = np.array([rate(g) for g in grads[:known]], dtype=float)
    slopes = slopes.reshape(known, len(PATTERNS)).T
    moved = _patterns(profiles)[:, :known] + slopes * delta
    size, volume, misses, dirty, lifetime = np.where(moved > 0.0, moved, 0.0)
    alloc = profiles.alloc_time[:known]
    table = np.array([size, alloc, alloc + lifetime, volume, misses, dirty])
    mpki = profiles.llc_mpki[:known]
    bad = _first_bad(_columns(ids[:known], table, mpki), _VALUE_CHECKS)
    if bad:
        raise ScalingError(f"object {ids[bad[0]]!r} degenerates at workload "
                           f"{target_workload_size}: {bad[1]}")
    if known < len(ids):
        vector.for_object(ids[known])
    return ProfileSet._of(ids, table, mpki, profiles.workload_label,
                          target_workload_size)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for the synthetic profile generator.

    With ``skew_count`` > 0, that many objects are sized so that together
    they hold exactly ``skew_share`` of the set's total size (mirroring the
    few-large-objects shape of real scientific workloads); the remaining
    objects draw their sizes from ``size_range``.
    """

    count: int
    skew_count: int = 0
    skew_share: float | None = None
    size_range: tuple[float, float] = (64 << 10, 4 << 20)
    access_factor_range: tuple[float, float] = (1.0, 16.0)
    miss_rate_range: tuple[float, float] = (0.01, 0.3)
    dirty_fraction_range: tuple[float, float] = (0.05, 0.6)
    alloc_range: tuple[float, float] = (0.0, 5.0)
    lifetime_range: tuple[float, float] = (0.5, 10.0)
    with_mpki: bool = False
    mpki_range: tuple[float, float] = (0.001, 0.1)
    label: str = "synthetic"
    workload_size: float | None = 1.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise GeneratorError("count must be at least 1")
        if not 0 <= self.skew_count < self.count:
            raise GeneratorError(
                "skew_count must be in [0, count): at least one small object")
        if self.skew_count > 0:
            if self.skew_share is None or not 0 < self.skew_share < 1:
                raise GeneratorError("skew_share must be in (0, 1)")
        elif self.skew_share is not None:
            raise GeneratorError("skew_share given without skew_count")
        for name in ("size_range", "access_factor_range", "miss_rate_range",
                     "dirty_fraction_range", "lifetime_range", "mpki_range"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < math.inf:
                raise GeneratorError(f"{name} must satisfy 0 < lo <= hi < inf")
        lo, hi = self.alloc_range
        if not 0 <= lo <= hi < math.inf:
            raise GeneratorError(
                "alloc_range must satisfy 0 <= lo <= hi < inf")


@np.errstate(over="ignore")  # large draws can overflow: see the checks below
def generate_synthetic(spec: GeneratorSpec, seed: int) -> ProfileSet:
    """Deterministically generate a ProfileSet matching the generator spec."""
    rng = np.random.default_rng(seed)
    n = spec.count
    small_n = n - spec.skew_count

    sizes = np.ceil(rng.uniform(*spec.size_range, size=small_n)).astype(float)
    if spec.skew_count > 0:
        small_total = float(sizes.sum())
        big_total = spec.skew_share / (1.0 - spec.skew_share) * small_total
        weights = rng.uniform(0.5, 1.0, size=spec.skew_count)
        weights /= weights.sum()
        # Rounding up can only push the dominant share above its target.
        big = np.ceil(big_total * weights)
        if big.min() < sizes.max():
            raise GeneratorError(
                "skew_share too small for the dominant objects to dominate; "
                "raise skew_share or shrink size_range")
        sizes = np.concatenate([big, sizes])

    factors = rng.uniform(*spec.access_factor_range, size=n)
    volumes = np.ceil(sizes * factors)
    miss_rates = rng.uniform(*spec.miss_rate_range, size=n)
    misses = np.ceil(volumes / 64.0 * miss_rates)
    dirty = np.ceil(misses * rng.uniform(*spec.dirty_fraction_range, size=n))
    allocs = rng.uniform(*spec.alloc_range, size=n)
    deallocs = allocs + rng.uniform(*spec.lifetime_range, size=n)
    for column, ranges, name in (
            (sizes, "size_range and skew_share", "size"),
            (volumes, "size_range and access_factor_range", "accessed_volume"),
            (misses, "miss_rate_range", "llc_misses"),
            (dirty, "dirty_fraction_range", "dirty_blocks"),
            (deallocs, "alloc_range and lifetime_range", "dealloc_time")):
        if not np.isfinite(column).all():
            raise GeneratorError(f"{ranges} too large: {name} overflows")
    if not (deallocs > allocs).all():
        raise GeneratorError("lifetime_range too short: a dealloc_time "
                             "rounds to its alloc_time")
    mpki = rng.uniform(*spec.mpki_range, size=n) if spec.with_mpki else None

    width = max(4, len(str(n - 1)))
    return ProfileSet.from_columns(
        [f"obj{i:0{width}d}" for i in range(n)], size=sizes,
        alloc_time=allocs, dealloc_time=deallocs,
        accessed_volume=volumes, llc_misses=misses, dirty_blocks=dirty,
        llc_mpki=mpki, workload_label=spec.label,
        workload_size=spec.workload_size)
