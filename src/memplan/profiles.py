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
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter
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
        if not _keeps_all(self):
            raise ProfileError(_first_bad(self)[1])

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


def _id_ok(object_id) -> bool | np.ndarray:
    # A profile file splits on commas and line breaks, strips each field
    # and skips lines that start with '#'. Columns hold ids as objects.
    if isinstance(object_id, str):
        return ("," not in object_id and object_id.splitlines() == [object_id]
                and object_id == object_id.strip() and object_id[:1] != "#")
    if isinstance(object_id, np.ndarray):
        return np.fromiter(map(_id_ok, object_id), bool, len(object_id))
    return False


# The rules every record keeps, in the order a broken one is reported: a
# test of the record r and the message of a record that fails it,
# formatted from its fields. r is an ObjectProfile or columns of records
# (see _columns); the numeric tests use comparisons only (finiteness is
# x - x == 0), so they give a bool for one record and a mask for columns.
_RULES = (
    ("(r.id != '') & (r.id != None)", "object id must be a non-empty string"),
    ("_id_ok(r.id)", "object id {id!r} contains a separator character, "
     "surrounding whitespace or a leading '#'"),
    *((f"r.{name} - r.{name} == 0", f"object {{id!r}}: {name} must be finite")
      for name in _NUMERIC),
    ("r.size > 0", "object {id!r}: size must be positive"),
    *((f"r.{name} >= 0", f"object {{id!r}}: {name} must be >= 0")
      for name in ("accessed_volume", "llc_misses", "dirty_blocks")),
    ("r.dealloc_time > r.alloc_time", "object {id!r}: dealloc_time "
     "{dealloc_time} must be after alloc_time {alloc_time}"),
    ("r.llc_mpki is None"
     " or (r.llc_mpki - r.llc_mpki == 0) & (r.llc_mpki >= 0)",
     "object {id!r}: llc_mpki must be >= 0"),
)


def _passes(*tests: str):
    """The function of a record r that is true if r passes every test. The
    tests are source text so that ObjectProfile can run all of them in one
    call; a call per rule would double the cost of building one."""
    return eval("lambda r: " + " and ".join(f"({test})" for test in tests))


_CHECKS = tuple((_passes(test), message) for test, message in _RULES)
_VALUE_CHECKS = _CHECKS[2:]  # the rules that do not read the id
# The rules a record read from a file can break: split and stripped fields
# cannot hold a comma, a line break, surrounding whitespace or a leading
# '#', so only an empty id is possible.
_READ_CHECKS = _CHECKS[:1] + _VALUE_CHECKS
_keeps_all = _passes(*(test for test, _ in _RULES))


def _columns(ids: Sequence[str], table: np.ndarray, mpki: np.ndarray,
             mpki_given: np.ndarray | None = None) -> SimpleNamespace:
    """Records as columns for the rules. ``mpki`` is NaN where a record has
    none; ``mpki_given`` marks those that spelled one out (a file can spell
    NaN), by default those not NaN. A record without one passes as 0."""
    if mpki_given is None:
        mpki_given = ~np.isnan(mpki)
    return SimpleNamespace(id=np.array(ids, dtype=object),
                           **dict(zip(_NUMERIC, table)),
                           llc_mpki=np.where(mpki_given, mpki, 0.0))


def _broken(columns: SimpleNamespace, checks) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return ~np.logical_and.reduce([test(columns) for test, _ in checks])


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
        record = SimpleNamespace(**{name: column.tolist()[k] for name, column
                                    in vars(record).items()})
    for test, message in checks:
        if not test(record):
            return k, message.format_map(vars(record))
    return None


def _rejected(table: np.ndarray, mpki: np.ndarray,
              mpki_given: np.ndarray | None = None) -> np.ndarray:
    """Mask of the records whose numbers ObjectProfile rejects."""
    return _broken(_columns((), table, mpki, mpki_given), _VALUE_CHECKS)


class ProfileSet:
    """Ordered collection of object profiles for one profiled workload.

    The set is stored as columns in profile order: the ids, one read-only
    float array per numeric field of ObjectProfile (``size``,
    ``alloc_time``, ..., and the derived ``lifetime``) and ``llc_mpki``,
    which is NaN where an object has none. The pricing formulas take a set
    in place of one object and price every object elementwise, giving the
    same doubles as one call per object. The id ``index`` and the
    ObjectProfile tuple (``objects``, iteration, ``get``) are built on
    first use and kept.
    """

    def __init__(self, objects: Iterable[ObjectProfile] = (),
                 workload_label: str = "",
                 workload_size: float | None = None) -> None:
        objects = tuple(objects)
        table = np.array([[getattr(o, name) for name in _NUMERIC]
                          for o in objects], dtype=float)
        self._fill(tuple(o.id for o in objects),
                   table.reshape(-1, len(_NUMERIC)).T,
                   np.array([o.llc_mpki for o in objects], dtype=float),
                   workload_label, workload_size)

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
        table = np.array(table, dtype=float)
        mpki = np.array(mpki, dtype=float)
        lifetime = table[2] - table[1]
        for array in (table, mpki, lifetime):
            array.flags.writeable = False
        self.__dict__.update(zip(_NUMERIC, table))
        self.__dict__.update(
            _ids=ids, _table=table, lifetime=lifetime,
            llc_mpki=mpki, workload_label=workload_label,
            workload_size=workload_size)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"ProfileSet is read-only ({name!r})")

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each object id in profile order."""
        return dict(zip(self._ids, range(len(self._ids))))

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
        return sum(self.size.tolist())

    def live_at(self, t: float) -> np.ndarray:
        """Mask of the objects allocated and not yet freed at time t."""
        return (self.alloc_time <= t) & (t < self.dealloc_time)

    def take(self, mask: Sequence[bool] | np.ndarray) -> "ProfileSet":
        """The objects where ``mask`` is true, in profile order, with this
        set's label and workload size."""
        mask = np.asarray(mask, dtype=bool)
        return ProfileSet._of(tuple(compress(self._ids, mask.tolist())),
                              self._table[:, mask], self.llc_mpki[mask],
                              self.workload_label, self.workload_size)


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


def _format_number(x: float) -> str:
    # Integral values print as integers so generated files stay tidy; repr
    # keeps full round-trip precision for everything else.
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


@contextmanager
def open_text(target: str | os.PathLike | IO[str], mode: str = "r"
              ) -> Iterator[IO[str]]:
    """Yield a stream as is, or the UTF-8 file a path names (written with
    Unix line endings)."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
        return
    with open(target, mode, encoding="utf-8",
              newline=None if mode == "r" else "\n") as handle:
        yield handle


def load_profiles(source: str | os.PathLike | IO[str],
                  workload_label: str = "",
                  workload_size: float | None = None) -> ProfileSet:
    """Read one profile file (path or open text stream) into a ProfileSet.

    Raises ProfileError naming the offending line for malformed records and
    for records violating object invariants; the first bad line wins.
    Duplicate ids are reported once every record has passed.

    A file of the shape write_profiles writes is read a column at a time:
    the column header exactly as written on line 2, at least one record,
    every record with the same number of fields (7 or 8), ``llc_mpki``
    given in all records or blank in all, no blank or comment line and no
    '#' or unit separator anywhere. Any other file, and any such file
    holding a value numpy does not parse or a record that breaks a rule,
    is read line by line, which names the first bad line.
    """
    with open_text(source) as stream:
        text = stream.read()
    lines = text.splitlines()
    if not lines or lines[0].strip() != PROFILE_FORMAT_VERSION:
        raise ProfileError(
            f"line 1: expected format header {PROFILE_FORMAT_VERSION!r}")
    profiles = _read_columns(text, lines, workload_label, workload_size)
    if profiles is not None:
        return profiles

    header_cols: tuple[str, ...] | None = None
    ids: list[str] = []
    values = array("d")  # the numeric fields then llc_mpki, record by record
    mpki_given: list[bool] = []
    line_nos: list[int] = []
    stop = None  # the first record that cannot be read ends the read
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split(",")
        # float() skips the whitespace around a number that str.strip()
        # does, except the unit separator (the other C0 separators end a
        # line), so only such lines need their fields stripped.
        if "\x1f" in line or header_cols is None:
            fields = [f.strip() for f in fields]
        if header_cols is None:
            expected = list(_COLUMNS)
            if fields == expected or fields == expected + [_OPTIONAL_COLUMN]:
                header_cols = tuple(fields)
                continue
            raise ProfileError(
                f"line {line_no}: expected column header "
                f"{','.join(_COLUMNS)}[,{_OPTIONAL_COLUMN}]")
        if len(fields) in (len(_COLUMNS), len(_COLUMNS) + 1):
            mpki = fields[7].strip() if len(fields) > len(_COLUMNS) else ""
            try:
                row = (float(fields[1]), float(fields[2]), float(fields[3]),
                       float(fields[4]), float(fields[5]), float(fields[6]),
                       float(mpki) if mpki else math.nan)
            except ValueError:
                pass
            else:
                ids.append(fields[0].strip())
                values.extend(row)
                mpki_given.append(mpki != "")
                line_nos.append(line_no)
                continue
        stop = line_no, fields
        break
    if header_cols is None:
        raise ProfileError("line 2: missing column header")

    columns = np.frombuffer(values).reshape(len(ids), len(_NUMERIC) + 1).T
    bad = _first_bad(_columns(ids, columns[:-1], columns[-1],
                              np.array(mpki_given, bool)), _READ_CHECKS)
    if bad:
        raise ProfileError(f"line {line_nos[bad[0]]}: {bad[1]}")
    if stop is not None:
        line_no, fields = stop
        if len(fields) not in (len(_COLUMNS), len(_COLUMNS) + 1):
            raise ProfileError(
                f"line {line_no}: expected {len(header_cols)} fields, "
                f"got {len(fields)}")
        named = list(zip([f.strip() for f in fields[1:]],
                         _COLUMNS[1:] + (_OPTIONAL_COLUMN,)))
        # A given llc_mpki is read first, then the columns in order.
        for text, column in [n for n in named[6:] if n[0]] + named[:6]:
            try:
                float(text)
            except ValueError:
                raise ProfileError(f"line {line_no}: field {column!r} is "
                                   f"not a number: {text!r}") from None
    return ProfileSet._of(tuple(ids), columns[:-1], columns[-1],
                          workload_label, workload_size)


def _read_columns(text: str, lines: list[str], workload_label: str,
                  workload_size: float | None) -> ProfileSet | None:
    """The set in a profile file of the shape write_profiles writes (see
    load_profiles), read a column at a time; None for any other file."""
    records = lines[2:]
    # A '#' can start a comment line; a unit separator around a number is
    # stripped by numpy but not by float(), so the loop, which strips such
    # fields itself, keeps those files too.
    if not records or lines[1] not in _HEADERS or "#" in text \
            or "\x1f" in text:
        return None
    widths = set(map(str.count, records, repeat(",")))
    if widths != {len(_COLUMNS) - 1} and widths != {len(_COLUMNS)}:
        return None
    ids = list(map(str.strip, map(itemgetter(0),
                                  map(str.partition, records, repeat(",")))))
    given = False
    if widths == {len(_COLUMNS)}:
        mpki_fields = list(map(str.strip, map(itemgetter(2), map(
            str.rpartition, records, repeat(",")))))
        given = all(mpki_fields)
        if not given and any(mpki_fields):
            return None
    try:  # the numeric columns, and llc_mpki where every record gives one
        values = np.loadtxt(records, delimiter=",", comments=None, ndmin=2,
                            usecols=range(1, len(_COLUMNS) + given))
    except ValueError:
        return None
    table = values.T[:len(_NUMERIC)]
    mpki = values[:, -1] if given else np.full(len(ids), math.nan)
    if _first_bad(_columns(ids, table, mpki, np.full(len(ids), given)),
                  _READ_CHECKS):
        return None
    return ProfileSet._of(tuple(ids), table, mpki, workload_label,
                          workload_size)


def write_profiles(profiles: ProfileSet, dest: str | os.PathLike | IO[str]) -> None:
    """Write a ProfileSet in the profile file format (see load_profiles)."""
    columns = [map(_format_number, row) for row in profiles._table.tolist()]
    mpki = ("" if math.isnan(m) else _format_number(m)
            for m in profiles.llc_mpki.tolist())
    with open_text(dest, "w") as stream:
        stream.write(PROFILE_FORMAT_VERSION + "\n")
        stream.write(_HEADERS[-1] + "\n")
        stream.writelines(",".join(row) + "\n" for row in zip(
            profiles.ids(), *columns, mpki))


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
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
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
        if not isinstance(name, str):
            raise ProfileError(f"{manifest_path}: workloads[{i}]: "
                               f"file must be a string, got {name!r}")
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
                                      workload_label=entry.get("label", name),
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
    with open_text(os.path.join(path, MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def filter_major(profiles: ProfileSet,
                 threshold: float = DEFAULT_MAJOR_THRESHOLD
                 ) -> tuple[ProfileSet, ProfileSet]:
    """Split into placement candidates and the small objects pinned to DRAM.

    Major objects are those whose accessed volume exceeds the threshold;
    everything else is minor and later forced onto DRAM by the planners.
    """
    if not threshold >= 0:  # NaN fails too: no volume is above or below it
        raise ValueError("major-object threshold must be >= 0")
    volume = profiles.accessed_volume
    return profiles.take(volume > threshold), profiles.take(volume <= threshold)


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
            if not 0 < lo <= hi:
                raise GeneratorError(f"{name} must satisfy 0 < lo <= hi")
        lo, hi = self.alloc_range
        if not 0 <= lo <= hi:
            raise GeneratorError("alloc_range must satisfy 0 <= lo <= hi")


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
