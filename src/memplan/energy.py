"""Per-object energy model for a DRAM + STT-RAM hybrid memory.

Energy is charged per byte of memory-command traffic. An object living in
DRAM pays activate/precharge and read/write energy on every accessed byte
plus refresh energy on its footprint for as long as it is allocated. The
same object in STT-RAM pays activate/precharge and row-buffer-access energy
on accessed bytes plus write-back energy for the dirty cache blocks flushed
on row-buffer conflicts; there is no idle or refresh term.

The refresh constant is specified per refresh event, so the model converts
it to a rate by dividing by the refresh period (64 ms by default). Setting
``refresh_period`` to 1.0 recovers the raw per-second reading of the
formula.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass
from numbers import Real
from typing import IO, Sequence

import numpy as np

from .profiles import ObjectProfile, ProfileSet, read_text, write_text

GIB = 1 << 30

DEVICE_FORMAT_VERSION = "hmms-device-v1"


@dataclass(frozen=True)
class DeviceSpec:
    """Energy constants, latencies, and capacities of the two devices.

    Energies are nJ per byte, latencies ns per LLC-miss access, capacities
    bytes, the refresh period seconds. ``dram_latency`` and ``nvm_latency``
    are the effective (read) per-access latencies; the optional write
    latencies are used only when whole objects are copied between devices.
    """

    dram_act_pre: float = 3.07
    dram_rw: float = 1.19
    dram_ref: float = 0.35
    nvm_act_pre: float = 2.68
    nvm_rba: float = 1.00
    nvm_wb: float = 2.83
    refresh_period: float = 0.064
    cache_block_size: float = 64.0
    dram_latency: float = 200.0
    nvm_latency: float = 640.0
    dram_write_latency: float | None = None
    nvm_write_latency: float | None = None
    dram_capacity: float = 16 * GIB
    nvm_capacity: float = 16 * GIB

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is None and name.endswith("_write_latency"):
                continue  # the read latency stands in
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not math.isfinite(value)):
                raise ValueError(
                    f"{name} must be a finite number, got {value!r}")
            if name in ("refresh_period", "cache_block_size"):
                if not value > 0:
                    raise ValueError(f"{name} must be positive")
            elif value < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.dram_latency > self.nvm_latency:
            warnings.warn(
                "dram_latency exceeds nvm_latency; placement objectives will "
                "favor NVM", stacklevel=2)

    @property
    def effective_dram_write_latency(self) -> float:
        return self.dram_latency if self.dram_write_latency is None \
            else self.dram_write_latency

    @property
    def effective_nvm_write_latency(self) -> float:
        return self.nvm_latency if self.nvm_write_latency is None \
            else self.nvm_write_latency

    @property
    def refresh_rate(self) -> float:
        """Refresh energy in nJ per byte per second of residency."""
        return self.dram_ref / self.refresh_period


def testbed1(dram_capacity: float = 16 * GIB,
             nvm_capacity: float = 16 * GIB) -> DeviceSpec:
    """IBM-server-like preset: DRAM 200 ns, STT-RAM 640 ns read / 1440 ns write."""
    return DeviceSpec(dram_latency=200.0, nvm_latency=640.0,
                      dram_write_latency=200.0, nvm_write_latency=1440.0,
                      dram_capacity=dram_capacity, nvm_capacity=nvm_capacity)


def testbed2(dram_capacity: float = 8 * GIB,
             nvm_capacity: float = 16 * GIB) -> DeviceSpec:
    """NUMA-server-like preset: DRAM 400 ns, STT-RAM 840 ns read / 1640 ns write."""
    return DeviceSpec(dram_latency=400.0, nvm_latency=840.0,
                      dram_write_latency=400.0, nvm_write_latency=1640.0,
                      dram_capacity=dram_capacity, nvm_capacity=nvm_capacity)


PRESETS = {"testbed1": testbed1, "testbed2": testbed2}


def load_device_spec(source: str | os.PathLike | IO[str]) -> DeviceSpec:
    """Read a DeviceSpec from a JSON config whose keys mirror the fields."""
    data = json.loads(read_text(source))
    if not isinstance(data, dict):
        raise ValueError("device spec file must contain a JSON object")
    if data.pop("format", DEVICE_FORMAT_VERSION) != DEVICE_FORMAT_VERSION:
        raise ValueError(
            f"device spec: expected format {DEVICE_FORMAT_VERSION!r}")
    known = set(DeviceSpec.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown device spec fields: {sorted(unknown)}")
    return DeviceSpec(**data)


def write_device_spec(dev: DeviceSpec, dest: str | os.PathLike | IO[str]) -> None:
    payload = {"format": DEVICE_FORMAT_VERSION, **asdict(dev)}
    write_text(dest, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# Each formula takes one ObjectProfile or a whole ProfileSet; given a set it
# returns one float per object, in profile order.
Priceable = ObjectProfile | ProfileSet


def dram_energy(obj: Priceable, dev: DeviceSpec) -> float | np.ndarray:
    """nJ consumed over the object's lifetime if it lives in DRAM."""
    traffic = (dev.dram_act_pre + dev.dram_rw) * obj.accessed_volume
    refresh = dev.refresh_rate * obj.size * obj.lifetime
    return traffic + refresh


def nvm_energy(obj: Priceable, dev: DeviceSpec) -> float | np.ndarray:
    """nJ consumed over the object's lifetime if it lives in STT-RAM."""
    traffic = (dev.nvm_act_pre + dev.nvm_rba) * obj.accessed_volume
    writeback = dev.nvm_wb * obj.dirty_blocks * dev.cache_block_size
    return traffic + writeback


def dram_latency(obj: Priceable, dev: DeviceSpec) -> float | np.ndarray:
    """ns spent on the object's LLC misses if it lives in DRAM."""
    return dev.dram_latency * obj.llc_misses


def nvm_latency(obj: Priceable, dev: DeviceSpec) -> float | np.ndarray:
    """ns spent on the object's LLC misses if it lives in STT-RAM."""
    return dev.nvm_latency * obj.llc_misses


def prices(obj: Priceable, dev: DeviceSpec) -> tuple:
    """(DRAM energy, NVM energy, DRAM latency, NVM latency) of the object; a
    set's are kept on it, read-only, per the constants the formulas read."""
    kept = obj._prices if isinstance(obj, ProfileSet) else {}
    key = (dev.dram_act_pre, dev.dram_rw, dev.refresh_rate, dev.nvm_act_pre,
           dev.nvm_rba, dev.nvm_wb, dev.cache_block_size, dev.dram_latency,
           dev.nvm_latency)
    if key not in kept:
        kept[key] = (dram_energy(obj, dev), nvm_energy(obj, dev),
                     dram_latency(obj, dev), nvm_latency(obj, dev))
        for column in kept[key]:
            np.asarray(column).flags.writeable = False  # a float's is a copy
    return kept[key]


def price_placement(profiles: ProfileSet, dev: DeviceSpec,
                    on_dram: Sequence[int] | np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(latency ns, energy nJ) of each object on the device it is placed on.

    ``on_dram`` is true for objects in DRAM and false for those in STT-RAM.
    """
    de, ne, dl, nl = prices(profiles, dev)
    on = np.asarray(on_dram, dtype=bool)
    return np.where(on, dl, nl), np.where(on, de, ne)

