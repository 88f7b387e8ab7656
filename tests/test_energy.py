import io
import json
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from memplan.cli import EXIT_OK, main
from memplan.energy import (DeviceSpec, dram_energy, dram_latency,
                            load_device_spec, nvm_energy, nvm_latency, prices,
                            write_device_spec)
from memplan.energy import testbed1 as make_testbed1
from memplan.energy import testbed2 as make_testbed2
from memplan.profiles import (GeneratorSpec, ObjectProfile, generate_synthetic,
                              write_profiles)

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


FORMULAS = (dram_energy, nvm_energy, dram_latency, nvm_latency)


def test_a_set_keeps_its_prices_per_device_constants():
    ps = generate_synthetic(GeneratorSpec(count=50), 3)
    dev = make_testbed1()
    kept = prices(ps, dev)
    assert prices(ps, dev) is kept
    for column, formula in zip(kept, FORMULAS):
        fresh = formula(ps, dev)
        assert not column.flags.writeable
        assert np.array_equal(column, fresh)
        assert column.tobytes() == fresh.tobytes()
    # Capacities are not read by the formulas: every capacity shares them.
    assert prices(ps, replace(dev, dram_capacity=1.0, nvm_capacity=2.0)) \
        is kept
    for name in ("dram_act_pre", "dram_rw", "dram_ref", "refresh_period",
                 "nvm_act_pre", "nvm_rba", "nvm_wb", "cache_block_size",
                 "dram_latency", "nvm_latency"):
        other = replace(dev, **{name: getattr(dev, name) * 1.5})
        priced = prices(ps, other)
        assert priced is not kept and prices(ps, other) is priced
        assert [column.tobytes() for column in priced] \
            == [formula(ps, other).tobytes() for formula in FORMULAS]
    one = ps.objects[7]
    assert prices(one, dev) == tuple(formula(one, dev) for formula in FORMULAS)


def _count_pricings(monkeypatch) -> Counter:
    """Wrap the four formulas wherever a memplan module looks them up and
    count their calls per (formula, id of the priced set)."""
    counts, priced = Counter(), []
    modules = [module for key, module in sys.modules.items()
               if key == "memplan" or key.startswith("memplan.")]
    for formula in FORMULAS:
        def counted(obj, dev, formula=formula):
            priced.append(obj)  # kept alive, so no later set reuses its id
            counts[formula.__name__, id(obj)] += 1
            return formula(obj, dev)
        for module in modules:
            if vars(module).get(formula.__name__) is formula:
                monkeypatch.setattr(module, formula.__name__, counted)
    return counts


def test_each_command_prices_each_set_once(tmp_path, monkeypatch):
    profiles = generate_synthetic(GeneratorSpec(count=40, with_mpki=True), 5)
    workload, plan = tmp_path / "w.prof", tmp_path / "p.plan"
    write_profiles(profiles, workload)
    t = float(np.median(profiles.alloc_time))
    counts = _count_pricings(monkeypatch)
    device = ["--preset", "testbed1", "--dram-capacity-gib", 0.02,
              "--nvm-capacity-gib", 1]
    migrate = ["migrate", "--profiles", workload, "--current", plan,
               "--time", t, "--new-ratio", 0.7, *device,
               "--out", tmp_path / "m.txt",
               "--future-out", tmp_path / "f.plan"]
    commands = [
        ["plan", "--profiles", workload, "--ratio", 0.9, *device,
         "--include-minor-energy", "--out", plan],
        ["sweep", "--profiles", workload, "--ratios", "1.0,0.9,0.8,0.6",
         "--capacities", "0.02:1,0.01:0.5", "--preset", "testbed1",
         "--out", tmp_path / "s.csv"],
        ["compare", "--profiles", workload, "--plan", f"opt={plan}",
         "--all-dram", "--all-nvm", "--mpki-thresholds", "0.01,0.05",
         "--random-seeds", "1,2", "--matched-optimal", *device,
         "--out", tmp_path / "c.csv"],
        migrate, migrate + ["--best-effort"],
        migrate + ["--transient-capacity"],
        ["evaluate", "--profiles", workload, "--plan", plan, *device,
         "--out", tmp_path / "e.csv"],
    ]
    for command in commands:
        counts.clear()
        assert main(list(map(str, command))) == EXIT_OK
        assert counts and max(counts.values()) == 1, (command, counts)
