import io
import json

import numpy as np
import pytest

from memplan.energy import (DeviceSpec, dram_energy, load_device_spec,
                            nvm_energy, write_device_spec)
from memplan.energy import testbed1 as make_testbed1
from memplan.energy import testbed2 as make_testbed2
from memplan.profiles import GeneratorSpec, ObjectProfile, generate_synthetic

TABLE_CONSTANTS = {
    "dram_act_pre": 3.07,
    "dram_rw": 1.19,
    "dram_ref": 0.35,
    "nvm_act_pre": 2.68,
    "nvm_rba": 1.00,
    "nvm_wb": 2.83,
}


def obj(size=4096.0, alloc=0.0, dealloc=1.0, av=1024.0, misses=10.0,
        dirty=2.0, object_id="o"):
    return ObjectProfile(object_id, size, alloc, dealloc, av, misses, dirty)


class TestDeviceSpec:
    def test_default_carries_table_constants(self):
        dev = DeviceSpec()
        for name, value in TABLE_CONSTANTS.items():
            assert getattr(dev, name) == value

    def test_serializes_constants_bit_exactly(self):
        buf = io.StringIO()
        write_device_spec(DeviceSpec(), buf)
        data = json.loads(buf.getvalue())
        for name, value in TABLE_CONSTANTS.items():
            assert data[name] == value
        text = buf.getvalue()
        for token in ('"dram_act_pre": 3.07', '"dram_rw": 1.19',
                      '"dram_ref": 0.35', '"nvm_act_pre": 2.68',
                      '"nvm_rba": 1.0', '"nvm_wb": 2.83'):
            assert token in text

    def test_roundtrip(self):
        dev = make_testbed2(dram_capacity=4.0 * (1 << 30))
        buf = io.StringIO()
        write_device_spec(dev, buf)
        assert load_device_spec(io.StringIO(buf.getvalue())) == dev

    def test_presets_latencies(self):
        t1 = make_testbed1()
        assert (t1.dram_latency, t1.nvm_latency) == (200.0, 640.0)
        assert (t1.dram_write_latency, t1.nvm_write_latency) == (200.0, 1440.0)
        t2 = make_testbed2()
        assert (t2.dram_latency, t2.nvm_latency) == (400.0, 840.0)
        assert (t2.dram_write_latency, t2.nvm_write_latency) == (400.0, 1640.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            load_device_spec(io.StringIO('{"nonsense": 1}'))

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(dram_rw=-1.0)

    def test_zero_refresh_period_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(refresh_period=0.0)

    def test_inverted_latencies_warn_but_build(self):
        with pytest.warns(UserWarning):
            dev = DeviceSpec(dram_latency=800.0, nvm_latency=640.0)
        assert dev.dram_latency == 800.0


class TestDramEnergy:
    def test_worked_example(self):
        # 1024 accessed bytes, 4096-byte object alive 1 s, 64 ms refresh:
        # 3.07*1024 + 1.19*1024 + (0.35/0.064)*4096*1 = 26762.24 nJ.
        got = dram_energy(obj(), DeviceSpec())
        assert got == pytest.approx(26762.24, rel=1e-12)

    def test_zero_traffic_zero_footprint(self):
        tiny = ObjectProfile("z", 1e-300, 0.0, 1.0, 0.0, 0.0, 0.0)
        assert dram_energy(tiny, DeviceSpec()) == pytest.approx(0.0, abs=1e-280)

    def test_doubling_traffic_doubles_nonrefresh_part(self):
        # With the refresh term silenced the traffic part doubles exactly.
        dev = DeviceSpec(dram_ref=0.0)
        assert dram_energy(obj(av=2048.0), dev) \
            == 2 * dram_energy(obj(av=1024.0), dev)
        full = DeviceSpec()
        refresh = full.refresh_rate * 4096.0 * 1.0
        assert dram_energy(obj(av=2048.0), full) - refresh == pytest.approx(
            2 * (dram_energy(obj(av=1024.0), full) - refresh), rel=1e-12)

    def test_refresh_period_one_recovers_raw_formula(self):
        dev = DeviceSpec(refresh_period=1.0)
        got = dram_energy(obj(), dev)
        assert got == pytest.approx(3.07 * 1024 + 1.19 * 1024 + 0.35 * 4096,
                                    rel=1e-12)


class TestNvmEnergy:
    def test_worked_example(self):
        # 2.68*1024 + 1.00*1024 + 2.83*2*64 = 4130.56 nJ.
        got = nvm_energy(obj(), DeviceSpec())
        assert got == pytest.approx(4130.56, rel=1e-12)

    def test_zero_case(self):
        quiet = obj(av=0.0, dirty=0.0)
        assert nvm_energy(quiet, DeviceSpec()) == 0.0

    def test_independent_of_lifetime(self):
        short = obj(dealloc=0.5)
        long = obj(dealloc=50.0)
        dev = DeviceSpec()
        assert nvm_energy(short, dev) == nvm_energy(long, dev)


class TestEstimateAll:
    """Set-wide totals: each formula priced over a whole ProfileSet."""

    def test_totals_match_independent_summation(self):
        dev = make_testbed1()
        ps = generate_synthetic(GeneratorSpec(count=20), 77)
        total_dram = sum(dram_energy(ps, dev).tolist())
        total_nvm = sum(nvm_energy(ps, dev).tolist())
        # Re-derive every term from the raw constants, separately.
        expect_dram = 0.0
        expect_nvm = 0.0
        for o in ps:
            expect_dram += (3.07 + 1.19) * o.accessed_volume \
                + 0.35 / 0.064 * o.size * (o.dealloc_time - o.alloc_time)
            expect_nvm += (2.68 + 1.00) * o.accessed_volume \
                + 2.83 * o.dirty_blocks * 64.0
        assert total_dram == pytest.approx(expect_dram, rel=1e-12)
        assert total_nvm == pytest.approx(expect_nvm, rel=1e-12)


def test_energies_nonnegative_and_linear_random():
    rng = np.random.default_rng(123)
    dev = DeviceSpec()
    for _ in range(200):
        o = ObjectProfile("r", float(rng.uniform(1, 1e9)),
                          0.0, float(rng.uniform(0.01, 100)),
                          float(rng.uniform(0, 1e9)),
                          float(rng.integers(0, 10**6)),
                          float(rng.integers(0, 10**4)))
        de = dram_energy(o, dev)
        ne = nvm_energy(o, dev)
        assert de >= 0.0
        assert ne >= 0.0
        # Scaling dirty blocks alone scales only the write-back term.
        bigger = ObjectProfile("r", o.size, 0.0, o.dealloc_time,
                               o.accessed_volume, o.llc_misses,
                               2 * o.dirty_blocks)
        assert nvm_energy(bigger, dev) - ne \
            == pytest.approx(2.83 * o.dirty_blocks * 64.0, rel=1e-9)
