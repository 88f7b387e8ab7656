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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from typing import IO, Iterator, Sequence

import numpy as np

PROFILE_FORMAT_VERSION = "hmms-profile-v1"
MANIFEST_FORMAT_VERSION = "hmms-profile-manifest-v1"
MANIFEST_NAME = "manifest.json"

# Column order of a profile record; llc_mpki is optional and may be blank.
_COLUMNS = ("id", "size_bytes", "alloc_s", "dealloc_s", "accessed_bytes",
            "llc_misses", "dirty_blocks")
_OPTIONAL_COLUMN = "llc_mpki"

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
        if not self.id:
            raise ProfileError("object id must be a non-empty string")
        # A profile file splits on commas and line breaks, strips each field
        # and skips lines that start with '#'.
        if "," in self.id or self.id.splitlines() != [self.id] \
                or self.id != self.id.strip() or self.id.startswith("#"):
            raise ProfileError(
                f"object id {self.id!r} contains a separator character, "
                "surrounding whitespace or a leading '#'")
        for name in ("size", "alloc_time", "dealloc_time", "accessed_volume",
                     "llc_misses", "dirty_blocks"):
            if not math.isfinite(getattr(self, name)):
                raise ProfileError(f"object {self.id!r}: {name} must be finite")
        if self.size <= 0:
            raise ProfileError(f"object {self.id!r}: size must be positive")
        if self.accessed_volume < 0:
            raise ProfileError(f"object {self.id!r}: accessed_volume must be >= 0")
        if self.llc_misses < 0:
            raise ProfileError(f"object {self.id!r}: llc_misses must be >= 0")
        if self.dirty_blocks < 0:
            raise ProfileError(f"object {self.id!r}: dirty_blocks must be >= 0")
        if not self.dealloc_time > self.alloc_time:
            raise ProfileError(
                f"object {self.id!r}: dealloc_time {self.dealloc_time} must be "
                f"after alloc_time {self.alloc_time}")
        if self.llc_mpki is not None and (not math.isfinite(self.llc_mpki)
                                          or self.llc_mpki < 0):
            raise ProfileError(f"object {self.id!r}: llc_mpki must be >= 0")

    @property
    def lifetime(self) -> float:
        return self.dealloc_time - self.alloc_time

    def pattern(self, name: str) -> float:
        """Value of one scalable access pattern (see PATTERNS)."""
        if name == "lifetime":
            return self.lifetime
        if name == "size":
            return self.size
        if name in ("accessed_volume", "llc_misses", "dirty_blocks"):
            return getattr(self, name)
        raise KeyError(name)

    def live_at(self, t: float) -> bool:
        """True if the object is allocated and not yet freed at time t."""
        return self.alloc_time <= t < self.dealloc_time


def _column(name: str) -> cached_property:
    def column(self: "ProfileSet") -> np.ndarray:
        return np.fromiter((getattr(o, name) for o in self.objects), float,
                           len(self.objects))
    return cached_property(column)


@dataclass(frozen=True)
class ProfileSet:
    """Ordered collection of object profiles for one profiled workload.

    Each numeric field of ObjectProfile is also a float array over the
    set (``size``, ``lifetime``, ...), in profile order. The pricing
    formulas take a set in place of one object and price every object
    elementwise, giving the same doubles as one call per object.
    """

    objects: tuple[ObjectProfile, ...]
    workload_label: str = ""
    workload_size: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        seen: set[str] = set()
        for obj in self.objects:
            if obj.id in seen:
                raise ProfileError(f"duplicate object id {obj.id!r}")
            seen.add(obj.id)
        if self.workload_size is not None and not math.isfinite(self.workload_size):
            raise ProfileError("workload_size must be finite")

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[ObjectProfile]:
        return iter(self.objects)

    size = _column("size")
    alloc_time = _column("alloc_time")
    dealloc_time = _column("dealloc_time")
    accessed_volume = _column("accessed_volume")
    llc_misses = _column("llc_misses")
    dirty_blocks = _column("dirty_blocks")
    lifetime = _column("lifetime")

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each object id in profile order."""
        return {obj.id: i for i, obj in enumerate(self.objects)}

    def ids(self) -> tuple[str, ...]:
        return tuple(obj.id for obj in self.objects)

    def get(self, object_id: str) -> ObjectProfile:
        return self.objects[self.index[object_id]]

    def total_size(self) -> float:
        return sum(obj.size for obj in self.objects)


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


def _parse_float(text: str, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ProfileError(
            f"field {column!r} is not a number: {text!r}") from None


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
    for records violating object invariants.
    """
    with open_text(source) as stream:
        lines = stream.read().splitlines()
    if not lines or lines[0].strip() != PROFILE_FORMAT_VERSION:
        raise ProfileError(
            f"line 1: expected format header {PROFILE_FORMAT_VERSION!r}")

    header_cols: tuple[str, ...] | None = None
    objects: list[ObjectProfile] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if header_cols is None:
            expected = list(_COLUMNS)
            if fields == expected or fields == expected + [_OPTIONAL_COLUMN]:
                header_cols = tuple(fields)
                continue
            raise ProfileError(
                f"line {line_no}: expected column header "
                f"{','.join(_COLUMNS)}[,{_OPTIONAL_COLUMN}]")
        if len(fields) not in (len(_COLUMNS), len(_COLUMNS) + 1):
            raise ProfileError(
                f"line {line_no}: expected {len(header_cols)} fields, "
                f"got {len(fields)}")
        try:
            mpki = _parse_float(fields[-1], _OPTIONAL_COLUMN) \
                if len(fields) > len(_COLUMNS) and fields[-1] else None
            objects.append(ObjectProfile(
                id=fields[0],
                size=_parse_float(fields[1], "size_bytes"),
                alloc_time=_parse_float(fields[2], "alloc_s"),
                dealloc_time=_parse_float(fields[3], "dealloc_s"),
                accessed_volume=_parse_float(fields[4], "accessed_bytes"),
                llc_misses=_parse_float(fields[5], "llc_misses"),
                dirty_blocks=_parse_float(fields[6], "dirty_blocks"),
                llc_mpki=mpki,
            ))
        except ProfileError as exc:
            raise ProfileError(f"line {line_no}: {exc}") from None
    if header_cols is None:
        raise ProfileError("line 2: missing column header")
    return ProfileSet(tuple(objects), workload_label, workload_size)


def write_profiles(profiles: ProfileSet, dest: str | os.PathLike | IO[str]) -> None:
    """Write a ProfileSet in the profile file format (see load_profiles)."""
    with open_text(dest, "w") as stream:
        stream.write(PROFILE_FORMAT_VERSION + "\n")
        stream.write(",".join(_COLUMNS + (_OPTIONAL_COLUMN,)) + "\n")
        for obj in profiles:
            mpki = "" if obj.llc_mpki is None else _format_number(obj.llc_mpki)
            stream.write(",".join((
                obj.id,
                _format_number(obj.size),
                _format_number(obj.alloc_time),
                _format_number(obj.dealloc_time),
                _format_number(obj.accessed_volume),
                _format_number(obj.llc_misses),
                _format_number(obj.dirty_blocks),
                mpki,
            )) + "\n")


def load_profile_dir(path: str | os.PathLike) -> list[ProfileSet]:
    """Read a directory of profile files described by a manifest.json.

    The manifest lists one entry per workload:
    ``{"format": "hmms-profile-manifest-v1", "workloads":
    [{"file": ..., "workload_size": ..., "label": ...}, ...]}``.
    Sets are returned in manifest order.
    """
    manifest_path = os.path.join(os.fspath(path), MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise ProfileError(f"no {MANIFEST_NAME} in {os.fspath(path)!r}") from None
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{manifest_path}: {exc}") from None
    if manifest.get("format") != MANIFEST_FORMAT_VERSION:
        raise ProfileError(
            f"{manifest_path}: expected format {MANIFEST_FORMAT_VERSION!r}")
    sets = []
    for entry in manifest.get("workloads", []):
        sets.append(load_profiles(
            os.path.join(os.fspath(path), entry["file"]),
            workload_label=entry.get("label", entry["file"]),
            workload_size=entry.get("workload_size"),
        ))
    return sets


def write_profile_dir(sets: Sequence[ProfileSet], path: str | os.PathLike,
                      filenames: Sequence[str] | None = None) -> None:
    """Write several ProfileSets plus a manifest.json into a directory."""
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    if filenames is None:
        filenames = [f"workload{i}.prof" for i in range(len(sets))]
    if len(filenames) != len(sets):
        raise ValueError("one filename per profile set required")
    entries = []
    for profiles, name in zip(sets, filenames):
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
    if threshold < 0:
        raise ValueError("major-object threshold must be >= 0")
    major = tuple(o for o in profiles if o.accessed_volume > threshold)
    minor = tuple(o for o in profiles if o.accessed_volume <= threshold)
    return (ProfileSet(major, profiles.workload_label, profiles.workload_size),
            ProfileSet(minor, profiles.workload_label, profiles.workload_size))


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
    universe = set().union(*(s.index for s in sets))
    for object_id in sorted(universe):
        for s in sets:
            if object_id not in s.index:
                raise ScalingError(
                    f"object {object_id!r} missing from set {s.workload_label!r}")

    gradients: dict[str, dict[str, float]] = {}
    for object_id in ids:
        per_pattern: dict[str, float] = {}
        for name in PATTERNS:
            quotients = []
            for a, b in zip(sets, sets[1:]):
                dp = b.get(object_id).pattern(name) - a.get(object_id).pattern(name)
                dw = b.workload_size - a.workload_size
                quotients.append(dp / dw)
            per_pattern[name] = sum(quotients) / len(quotients)
        gradients[object_id] = per_pattern
    return ScalingVector(gradients)


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
    delta = target_workload_size - profiles.workload_size

    objects = []
    for obj in profiles:
        grads = vector.for_object(obj.id)
        scaled = {name: max(0.0, obj.pattern(name) + grads[name] * delta)
                  for name in PATTERNS}
        try:
            objects.append(replace(
                obj,
                size=scaled["size"],
                accessed_volume=scaled["accessed_volume"],
                llc_misses=scaled["llc_misses"],
                dirty_blocks=scaled["dirty_blocks"],
                dealloc_time=obj.alloc_time + scaled["lifetime"],
            ))
        except ProfileError as exc:
            raise ScalingError(
                f"object {obj.id!r} degenerates at workload "
                f"{target_workload_size}: {exc}") from None
    return ProfileSet(tuple(objects), profiles.workload_label,
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
    lifetimes = rng.uniform(*spec.lifetime_range, size=n)
    mpki = rng.uniform(*spec.mpki_range, size=n) if spec.with_mpki else None

    width = max(4, len(str(n - 1)))
    objects = tuple(
        ObjectProfile(
            id=f"obj{i:0{width}d}",
            size=float(sizes[i]),
            alloc_time=float(allocs[i]),
            dealloc_time=float(allocs[i] + lifetimes[i]),
            accessed_volume=float(volumes[i]),
            llc_misses=float(misses[i]),
            dirty_blocks=float(dirty[i]),
            llc_mpki=float(mpki[i]) if mpki is not None else None,
        )
        for i in range(n))
    return ProfileSet(objects, spec.label, spec.workload_size)
