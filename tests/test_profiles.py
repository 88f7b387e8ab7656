import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from memplan.profiles import (DEFAULT_MAJOR_THRESHOLD, PATTERNS,
                              GeneratorError, GeneratorSpec, ObjectProfile,
                              ProfileError,
                              ProfileSet, ScalingError, ScalingVector,
                              derive_scaling_vector, extrapolate, filter_major,
                              generate_synthetic, load_profile_dir,
                              load_profiles, write_profile_dir, write_profiles)

MB = 1 << 20


def make_obj(object_id="a", size=MB, alloc=0.0, dealloc=1.0, av=MB,
             misses=100.0, dirty=10.0, mpki=None):
    return ObjectProfile(object_id, size, alloc, dealloc, av, misses, dirty,
                         mpki)


def profile_text(rows):
    lines = ["hmms-profile-v1",
             "id,size_bytes,alloc_s,dealloc_s,accessed_bytes,llc_misses,"
             "dirty_blocks,llc_mpki"]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


class TestLoad:
    def test_single_record(self):
        text = profile_text(["a,1048576,0.0,1.0,1048576,100,10,"])
        ps = load_profiles(io.StringIO(text))
        assert len(ps) == 1
        obj = ps.objects[0]
        assert obj.id == "a"
        assert obj.size == 1048576
        assert obj.lifetime == 1.0
        assert obj.llc_mpki is None

    def test_mpki_field_parsed(self):
        text = profile_text(["a,1048576,0.0,1.0,1048576,100,10,0.025"])
        assert load_profiles(io.StringIO(text)).objects[0].llc_mpki == 0.025

    def test_dealloc_before_alloc_rejected(self):
        text = profile_text(["a,4096,1.0,0.5,4096,1,0,"])
        with pytest.raises(ProfileError, match="line 3"):
            load_profiles(io.StringIO(text))

    def test_duplicate_id_rejected(self):
        text = profile_text(["a,4096,0.0,1.0,4096,1,0,",
                             "a,4096,0.0,1.0,4096,1,0,"])
        with pytest.raises(ProfileError, match="duplicate"):
            load_profiles(io.StringIO(text))

    def test_malformed_number_names_line(self):
        text = profile_text(["a,4096,0.0,1.0,4096,1,0,",
                             "b,oops,0.0,1.0,4096,1,0,"])
        with pytest.raises(ProfileError, match="line 4"):
            load_profiles(io.StringIO(text))

    def test_missing_version_header(self):
        with pytest.raises(ProfileError, match="line 1"):
            load_profiles(io.StringIO("id,size_bytes\n"))

    def test_header_only_file_is_an_empty_set(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(load_profiles(io.StringIO(profile_text([])))) == 0

    def test_comment_and_blank_lines_ignored(self):
        text = profile_text(["# a comment", "", "a,4096,0.0,1.0,4096,1,0,"])
        assert len(load_profiles(io.StringIO(text))) == 1

    def test_roundtrip_field_equality(self):
        ps = generate_synthetic(GeneratorSpec(count=8, with_mpki=True), 3)
        buf = io.StringIO()
        write_profiles(ps, buf)
        again = load_profiles(io.StringIO(buf.getvalue()),
                              ps.workload_label, ps.workload_size)
        assert again.objects == ps.objects

    def test_cg_like_skew_file(self):
        # 14 objects where 5 hold 99% of the bytes, read back in order.
        ps = generate_synthetic(
            GeneratorSpec(count=14, skew_count=5, skew_share=0.99), 11)
        buf = io.StringIO()
        write_profiles(ps, buf)
        again = load_profiles(io.StringIO(buf.getvalue()))
        assert again.ids() == ps.ids()
        sizes = sorted((o.size for o in again), reverse=True)
        assert sum(sizes[:5]) / sum(sizes) >= 0.99


class TestInvariants:
    def test_size_must_be_positive(self):
        with pytest.raises(ProfileError):
            make_obj(size=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ProfileError):
            make_obj(misses=-1)
        with pytest.raises(ProfileError):
            make_obj(dirty=-1)
        with pytest.raises(ProfileError):
            make_obj(av=-1)

    def test_lifetime_positive(self):
        with pytest.raises(ProfileError):
            make_obj(alloc=1.0, dealloc=1.0)

    def test_unique_ids_in_set(self):
        with pytest.raises(ProfileError):
            ProfileSet((make_obj("a"), make_obj("a")))

    def test_live_at_half_open(self):
        obj = make_obj(alloc=1.0, dealloc=2.0)
        assert obj.live_at(1.0)
        assert obj.live_at(1.5)
        assert not obj.live_at(2.0)
        assert not obj.live_at(0.5)


class TestFilterMajor:
    def test_simple_split(self):
        big = make_obj("big", av=2 * MB)
        small = make_obj("small", av=MB // 2)
        major, minor = filter_major(ProfileSet((big, small)), MB)
        assert major.ids() == ("big",)
        assert minor.ids() == ("small",)

    def test_threshold_zero_every_accessed_object_major(self):
        ps = ProfileSet((make_obj("a", av=1), make_obj("b", av=2)))
        major, minor = filter_major(ps, 0)
        assert major.ids() == ("a", "b")
        assert len(minor) == 0

    def test_median_threshold_splits_in_half(self):
        rng = np.random.default_rng(5)
        avs = rng.uniform(1, 100 * MB, 10)
        ps = ProfileSet(tuple(make_obj(f"o{i}", av=float(avs[i]))
                              for i in range(10)))
        major, minor = filter_major(ps, float(np.median(avs)))
        assert len(major) == 5
        assert len(minor) == 5

    def test_partition_property(self):
        ps = generate_synthetic(GeneratorSpec(count=20), 9)
        major, minor = filter_major(ps, DEFAULT_MAJOR_THRESHOLD)
        assert set(major.ids()) | set(minor.ids()) == set(ps.ids())
        assert set(major.ids()) & set(minor.ids()) == set()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            filter_major(ProfileSet((make_obj(),)), -1)


def linear_family(base, grads, workloads):
    """Exactly-linear profile sets for integer-valued patterns."""
    sets = []
    for w in workloads:
        objects = []
        for obj in base:
            g = grads[obj.id]
            delta = w - workloads[0]
            objects.append(ObjectProfile(
                obj.id,
                obj.size + g["size"] * delta,
                obj.alloc_time,
                obj.alloc_time + obj.lifetime + g["lifetime"] * delta,
                obj.accessed_volume + g["accessed_volume"] * delta,
                obj.llc_misses + g["llc_misses"] * delta,
                obj.dirty_blocks + g["dirty_blocks"] * delta,
            ))
        sets.append(ProfileSet(tuple(objects), f"w{w}", float(w)))
    return sets


class TestScalingVector:
    def test_worked_example_unit_spacing(self):
        # Sizes 10, 19, 25 MB at workloads 1, 2, 3: mean gradient 7.5 MB.
        sets = []
        for w, size_mb in ((1, 10), (2, 19), (3, 25)):
            sets.append(ProfileSet(
                (make_obj("s", size=size_mb * MB),), f"w{w}", float(w)))
        vector = derive_scaling_vector(sets)
        assert vector.for_object("s")["size"] == 7.5 * MB

    def test_fixed_object_has_zero_gradient(self):
        sets = [ProfileSet((make_obj("s"),), f"w{w}", float(w))
                for w in (1, 2, 3)]
        grads = derive_scaling_vector(sets).for_object("s")
        assert all(g == 0.0 for g in grads.values())

    def test_requires_two_sets(self):
        with pytest.raises(ScalingError):
            derive_scaling_vector([ProfileSet((make_obj(),), "w", 1.0)])

    def test_missing_id_named(self):
        s1 = ProfileSet((make_obj("a"), make_obj("b")), "w1", 1.0)
        s2 = ProfileSet((make_obj("a"),), "w2", 2.0)
        with pytest.raises(ScalingError, match="'b'"):
            derive_scaling_vector([s1, s2])

    def test_workloads_must_increase(self):
        s1 = ProfileSet((make_obj(),), "w1", 2.0)
        s2 = ProfileSet((make_obj(),), "w2", 1.0)
        with pytest.raises(ScalingError, match="increasing"):
            derive_scaling_vector([s1, s2])

    def test_missing_workload_size_rejected(self):
        s1 = ProfileSet((make_obj(),), "w1", None)
        s2 = ProfileSet((make_obj(),), "w2", 2.0)
        with pytest.raises(ScalingError):
            derive_scaling_vector([s1, s2])

    def test_random_monotone_matches_bruteforce(self):
        rng = np.random.default_rng(17)
        workloads = [1.0, 2.5, 4.0]
        base = [make_obj(f"o{i}", size=float(rng.integers(MB, 64 * MB)),
                         av=float(rng.integers(MB, 64 * MB)),
                         misses=float(rng.integers(1, 10000)),
                         dirty=float(rng.integers(0, 500)))
                for i in range(6)]
        grads = {o.id: {"size": float(rng.integers(0, MB)),
                        "accessed_volume": float(rng.integers(0, MB)),
                        "llc_misses": float(rng.integers(0, 100)),
                        "dirty_blocks": float(rng.integers(0, 10)),
                        "lifetime": float(rng.integers(0, 4))}
                 for o in base}
        sets = linear_family(base, grads, workloads)
        vector = derive_scaling_vector(sets)
        # Independent re-evaluation of the mean difference quotient.
        for obj in base:
            for name in ("size", "accessed_volume", "llc_misses",
                         "dirty_blocks", "lifetime"):
                quotients = []
                for a, b in zip(sets, sets[1:]):
                    num = getattr(b.get(obj.id), name) \
                        - getattr(a.get(obj.id), name)
                    quotients.append(num / (b.workload_size - a.workload_size))
                expected = sum(quotients) / len(quotients)
                assert vector.for_object(obj.id)[name] == pytest.approx(
                    expected, rel=0, abs=0)


class TestExtrapolate:
    def test_linear_projection(self):
        sets = []
        for w, size_mb in ((1, 10), (2, 19), (3, 25)):
            sets.append(ProfileSet(
                (make_obj("s", size=size_mb * MB),), f"w{w}", float(w)))
        vector = derive_scaling_vector(sets)
        out = extrapolate(sets[-1], vector, 4.0)
        assert out.objects[0].size == 32.5 * MB
        assert out.workload_size == 4.0

    def test_identity_at_anchor(self):
        ps = generate_synthetic(GeneratorSpec(count=5), 2)
        vector = ScalingVector({o.id: {p: 1.0 for p in
                                       ("size", "accessed_volume",
                                        "llc_misses", "dirty_blocks",
                                        "lifetime")} for o in ps})
        assert extrapolate(ps, vector, ps.workload_size) == ps

    def test_negative_projection_clamps_to_zero(self):
        ps = ProfileSet((make_obj("s", av=100.0),), "w", 1.0)
        vector = ScalingVector({"s": {"size": 0.0, "accessed_volume": -500.0,
                                      "llc_misses": 0.0, "dirty_blocks": 0.0,
                                      "lifetime": 0.0}})
        out = extrapolate(ps, vector, 2.0)
        assert out.objects[0].accessed_volume == 0.0

    def test_size_collapse_is_an_error(self):
        ps = ProfileSet((make_obj("s", size=100.0),), "w", 1.0)
        vector = ScalingVector({"s": {"size": -500.0, "accessed_volume": 0.0,
                                      "llc_misses": 0.0, "dirty_blocks": 0.0,
                                      "lifetime": 0.0}})
        with pytest.raises(ScalingError, match="'s'"):
            extrapolate(ps, vector, 2.0)

    def test_missing_vector_entry(self):
        ps = ProfileSet((make_obj("s"),), "w", 1.0)
        with pytest.raises(ScalingError, match="'s'"):
            extrapolate(ps, ScalingVector({}), 2.0)

    def test_fixed_point_recovers_gradients(self):
        # derive(extrapolate-family) gives back the gradients exactly.
        base = ProfileSet((make_obj("a", size=8 * MB, av=4 * MB, misses=1000,
                                    dirty=64),
                           make_obj("b", size=2 * MB, av=6 * MB, misses=300,
                                    dirty=16)), "w1", 1.0)
        grads = {"a": {"size": 2 * MB, "accessed_volume": MB,
                       "llc_misses": 128.0, "dirty_blocks": 8.0,
                       "lifetime": 0.5},
                 "b": {"size": MB, "accessed_volume": 0.0,
                       "llc_misses": 0.0, "dirty_blocks": 2.0,
                       "lifetime": 0.25}}
        vector = ScalingVector(grads)
        family = [base,
                  extrapolate(base, vector, 2.0),
                  extrapolate(base, vector, 3.0)]
        recovered = derive_scaling_vector(family)
        for object_id, expected in grads.items():
            assert recovered.for_object(object_id) == expected


class TestGenerator:
    def test_deterministic_per_seed(self):
        spec = GeneratorSpec(count=9, skew_count=2, skew_share=0.8,
                             with_mpki=True)
        assert generate_synthetic(spec, 7) == generate_synthetic(spec, 7)

    def test_byte_identical_output(self):
        spec = GeneratorSpec(count=9)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_profiles(generate_synthetic(spec, 7), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_skew_share_reached(self):
        ps = generate_synthetic(
            GeneratorSpec(count=6, skew_count=4, skew_share=0.997), 1)
        sizes = sorted((o.size for o in ps), reverse=True)
        assert sum(sizes[:4]) / sum(sizes) >= 0.997

    def test_invariants_hold(self):
        ps = generate_synthetic(GeneratorSpec(count=32, skew_count=3,
                                              skew_share=0.9), 23)
        for obj in ps:
            assert obj.size > 0
            assert obj.lifetime > 0
            assert obj.accessed_volume >= 0

    def test_count_zero_rejected(self):
        with pytest.raises(GeneratorError):
            GeneratorSpec(count=0)

    def test_skew_without_share_rejected(self):
        with pytest.raises(GeneratorError):
            GeneratorSpec(count=4, skew_count=2)

    def test_unreachable_skew_share_rejected(self):
        with pytest.raises(GeneratorError):
            generate_synthetic(
                GeneratorSpec(count=10, skew_count=4, skew_share=0.01), 3)

    def test_skew_count_must_leave_small_objects(self):
        with pytest.raises(GeneratorError):
            GeneratorSpec(count=4, skew_count=4, skew_share=0.9)


def test_profile_dir_roundtrip(tmp_path):
    sets = [generate_synthetic(GeneratorSpec(count=4, label=f"w{w}",
                                             workload_size=float(w)), w)
            for w in (1, 2, 3)]
    write_profile_dir(sets, tmp_path / "family")
    again = load_profile_dir(tmp_path / "family")
    assert [s.workload_size for s in again] == [1.0, 2.0, 3.0]
    assert [s.objects for s in again] == [s.objects for s in sets]


@pytest.mark.parametrize("label", [["x", 1], None, 3])
def test_a_manifest_label_that_is_not_a_string_is_rejected(tmp_path, label):
    write_profile_dir([generate_synthetic(GeneratorSpec(count=4), 1)],
                      tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["workloads"][0]["label"] = label
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ProfileError) as err:
        load_profile_dir(tmp_path)
    assert str(err.value) == (f"{tmp_path / 'manifest.json'}: workloads[0]: "
                              f"label must be a string, got {label!r}")


def test_profile_dir_missing_manifest(tmp_path):
    with pytest.raises(ProfileError, match="manifest"):
        load_profile_dir(tmp_path)


def test_columns_and_index_follow_profile_order():
    ps = generate_synthetic(GeneratorSpec(count=30), 4)
    for name in ("size", "alloc_time", "dealloc_time", "lifetime",
                 "accessed_volume", "llc_misses", "dirty_blocks"):
        assert getattr(ps, name).tolist() == [getattr(o, name) for o in ps]
    assert ProfileSet(()).lifetime.shape == (0,)
    for i, obj in enumerate(ps):
        assert ps.index[obj.id] == i
        assert ps.get(obj.id) is obj
    with pytest.raises(KeyError):
        ps.get("missing")


def _tied_set(seed, count=40):
    # Few distinct times and sizes, so events tie on time and on size.
    rng = np.random.default_rng(seed)
    alloc = rng.choice([0.0, 1.0, 2.0], count)
    return ProfileSet.from_columns(
        [f"o{i}" for i in range(count)], size=rng.choice([1.0, 2.0], count),
        alloc_time=alloc, dealloc_time=alloc + rng.choice([1.0, 2.0], count),
        accessed_volume=rng.uniform(0, 10, count),
        llc_misses=rng.uniform(0, 10, count),
        dirty_blocks=rng.uniform(0, 10, count),
        llc_mpki=np.where(rng.random(count) < 0.3, np.nan,
                          rng.uniform(0, 1, count)),
        workload_label="w", workload_size=4.0)


def test_a_set_is_unequal_to_another_type():
    ps = generate_synthetic(GeneratorSpec(count=3), 1)
    assert ps.__eq__(3) is NotImplemented
    assert not ps == 3
    assert ps != "x"


def test_take_equals_a_set_built_from_the_same_columns():
    ps = _tied_set(5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        mask = rng.random(len(ps)) < 0.5
        sub = ps.take(mask)
        want = ProfileSet.from_columns(
            [i for i, keep in zip(ps.ids(), mask) if keep],
            **{name: getattr(ps, name)[mask] for name in (
                "size", "alloc_time", "dealloc_time", "accessed_volume",
                "llc_misses", "dirty_blocks", "llc_mpki")},
            workload_label="w", workload_size=4.0)
        assert sub == want
        assert sub.ids() == want.ids()
        assert sub._table.tobytes() == want._table.tobytes()
        assert sub.llc_mpki.tobytes() == want.llc_mpki.tobytes()
        assert sub.lifetime.tobytes() == want.lifetime.tobytes()
        assert (sub.workload_label, sub.workload_size) == ("w", 4.0)
        again = ps.take(mask)
        for name in ("_table", "size", "llc_mpki", "lifetime"):
            array = getattr(sub, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0
            assert not np.shares_memory(array, getattr(again, name))
    assert ps == _tied_set(5)


def test_the_events_of_a_subset_are_its_sets_events_in_order():
    ps = _tied_set(7)
    owners, deltas = ps.events
    assert sorted(owners.tolist()) == sorted(2 * list(range(len(ps))))
    for mask in (np.ones(len(ps), bool), np.arange(len(ps)) % 3 == 0,
                 np.random.default_rng(8).random(len(ps)) < 0.5):
        sub_owners, sub_deltas = ps.take(mask).events
        kept = mask[owners]
        assert np.flatnonzero(mask)[sub_owners].tolist() \
            == owners[kept].tolist()
        assert sub_deltas.tobytes() == deltas[kept].tobytes()
    assert ProfileSet(()).events[0].shape == (0,)


def test_numpy_scalar_fields_survive_a_write_and_read():
    obj = make_obj(size=np.float64(1000.5), misses=np.float64(7.25),
                   mpki=np.float64(0.125))
    stream = io.StringIO()
    write_profiles(ProfileSet((obj,)), stream)
    assert "np." not in stream.getvalue()
    stream.seek(0)
    assert load_profiles(stream).objects == (obj,)


@pytest.mark.parametrize("object_id", [
    "#a", "# a", " a", "a ", "\ta", "a\n", "a\rb", "a\x0bb", "a\x1cb",
    "a\u2028b"])
def test_ids_a_profile_file_cannot_hold_are_rejected(object_id):
    with pytest.raises(ProfileError, match="object id"):
        make_obj(object_id)


def _spelled(x: float | None) -> str:
    # The file's spelling of one value, one value at a time: the reference
    # for write_profiles' column formatter.
    if x is None:
        return ""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def test_write_profiles_spells_each_value_as_pinned(tmp_path):
    header = profile_text([])
    path = tmp_path / "empty.prof"
    write_profiles(ProfileSet(()), path)
    assert path.read_bytes() == header.encode()
    ps = ProfileSet((
        make_obj("a", 9999999999999998.0, -3.0, -0.0, 1e16, 0.1, 5e-324),
        make_obj("b", 1.5, 0.0, 2.0, 0.0, 7.0, 1.0, mpki=2.0)))
    path = tmp_path / "edges.prof"
    write_profiles(ps, path)
    assert path.read_bytes() == (
        header + "a,9999999999999998,-3,0,1e+16,0.1,5e-324,\n"
        "b,1.5,0,2,0,7,1,2\n").encode()


def test_write_profiles_spells_records_across_a_block_boundary():
    from memplan.profiles import _WRITE_BLOCK
    n = _WRITE_BLOCK + 2
    objects = [make_obj(f"o{i}", i + 1.0, i / 7, i / 7 + 1.5, i * 0.5,
                        1e16 + 2.0 * i, 0.0, None if i % 2 else i / 3)
               for i in range(n)]
    stream = io.StringIO()
    write_profiles(ProfileSet(objects), stream)
    fields = ("size", "alloc_time", "dealloc_time", "accessed_volume",
              "llc_misses", "dirty_blocks", "llc_mpki")
    expected = profile_text(
        [",".join([o.id] + [_spelled(getattr(o, name)) for name in fields])
         for o in objects]).splitlines()
    lines = stream.getvalue().splitlines()
    # The first differing line, not a diff of some 4000 lines.
    assert [(k, line) for k, (line, want) in enumerate(zip(lines, expected))
            if line != want][:1] == []
    assert len(lines) == len(expected)
    assert stream.getvalue().endswith("\n")


def test_ids_with_inner_space_or_hash_round_trip():
    ps = ProfileSet((make_obj("a b"), make_obj("a#b")))
    stream = io.StringIO()
    write_profiles(ps, stream)
    stream.seek(0)
    assert load_profiles(stream).objects == ps.objects


def test_parse_error_names_its_line_once():
    text = profile_text(["a,4096,0.0,1.0,4096,1,0,",
                         "b,oops,0.0,1.0,4096,1,0,"])
    with pytest.raises(ProfileError) as err:
        load_profiles(io.StringIO(text))
    assert str(err.value) == "line 4: field 'size_bytes' is not a number: 'oops'"


def _reference_load(text):
    """The per-record loader the columnar one replaced, kept as the oracle
    of its messages: one ObjectProfile per record, in file order."""
    def number(field, column):
        try:
            return float(field)
        except ValueError:
            raise ProfileError(
                f"field {column!r} is not a number: {field!r}") from None

    columns = ("size_bytes", "alloc_s", "dealloc_s", "accessed_bytes",
               "llc_misses", "dirty_blocks")
    header = None
    objects = []
    for line_no, raw in enumerate(text.splitlines()[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            header = fields
            continue
        if len(fields) not in (7, 8):
            raise ProfileError(f"line {line_no}: expected {len(header)} "
                               f"fields, got {len(fields)}")
        try:
            mpki = number(fields[-1], "llc_mpki") \
                if len(fields) > 7 and fields[-1] else None
            objects.append(ObjectProfile(
                fields[0], *(number(f, c) for f, c in zip(fields[1:], columns)),
                llc_mpki=mpki))
        except ProfileError as exc:
            raise ProfileError(f"line {line_no}: {exc}") from None
    return ProfileSet(tuple(objects))


def _outcome(load, text):
    try:
        return load(io.StringIO(text) if load is load_profiles else text).objects
    except ProfileError as exc:
        return str(exc)


# A full-width digit, like "1_0", is a number to float() but not to numpy.
_BREAKS = ("oops", "", "nan", "inf", "-inf", "-1", "0", "-0.0", "1_0",
           "\uff11")


def _broken_file(rng):
    # Each file draws how often a record leaves llc_mpki blank and how often
    # it has 7 fields, so some files have the shape write_profiles writes.
    blank, short = (rng.choice([0.0, 0.3, 1.0]) for _ in range(2))
    rows = []
    for i in range(int(rng.integers(1, 10))):
        alloc = float(rng.uniform(0, 5))
        fields = [f"o{i}", repr(float(rng.uniform(1, 1e6))), repr(alloc),
                  repr(alloc + float(rng.uniform(0.1, 5))),
                  repr(float(rng.uniform(0, 1e7))), str(int(rng.integers(0, 1e4))),
                  repr(float(rng.uniform(0, 100))),
                  "" if rng.random() < blank else repr(float(rng.uniform(0, 1)))]
        if rng.random() < short:
            fields = fields[:7]
        rows.append(fields)
    for _ in range(int(rng.integers(0, 4))):
        fields = rows[int(rng.integers(len(rows)))]
        kind = rng.random()
        if kind < 0.5:
            fields[int(rng.integers(len(fields)))] = str(rng.choice(_BREAKS))
        elif kind < 0.6:
            fields.append("1")
        elif kind < 0.7:
            del fields[-2:]
        elif kind < 0.75:
            fields[0] = rows[int(rng.integers(len(rows)))][0]
        elif kind < 0.8 and len(fields) > 3:
            fields[3] = fields[2]
        elif kind < 0.9:
            k = int(rng.integers(len(fields)))
            fields[k] = f"\x1f{fields[k]}\x1f"
        else:  # an inner '#' is part of the id, a leading one a comment
            fields[0] = str(rng.choice(["a#", "#"])) + fields[0]
    lines = [" , ".join(f) if rng.random() < 0.2 else ",".join(f)
             for f in rows]
    # Lines the reader skips: a comment, an empty line, whitespace and a
    # full-width space, which str.strip() drops too.
    for extra in ("# note", "", " \t ", "\u3000"):
        if rng.random() < 0.25:
            lines.insert(int(rng.integers(len(lines) + 1)), extra)
    text = profile_text(lines)
    if rng.random() < 0.1:
        text = text.replace("\n", "\n# before the header\n", 1)
    return text


def test_loader_reports_what_a_per_record_loader_reports():
    rng = np.random.default_rng(2024)
    kinds = set()
    for _ in range(600):
        text = _broken_file(rng)
        want = _outcome(_reference_load, text)
        assert _outcome(load_profiles, text) == want, text
        kinds.add(want.split(": ")[-1][:20] if isinstance(want, str)
                  else "loaded")
        if not isinstance(want, str):
            got, ref = load_profiles(io.StringIO(text)), _reference_load(text)
            assert got._table.tobytes() == ref._table.tobytes(), text
            assert got.llc_mpki.tobytes() == ref.llc_mpki.tobytes(), text
    # The draws cover loads, parse errors, field counts, each invariant,
    # and empty and duplicate ids.
    assert len(kinds) >= 10


@pytest.mark.parametrize("rows,message", [
    (["a,0,0,1,1,1,1,", "b,oops,0,1,1,1,1,"],
     "line 3: object 'a': size must be positive"),
    (["a,oops,0,1,1,1,1,", "b,0,0,1,1,1,1,"],
     "line 3: field 'size_bytes' is not a number: 'oops'"),
    (["a,1,0,1,-1,1,1,", "b,1,2"],
     "line 3: object 'a': accessed_volume must be >= 0"),
    (["a,1,2", "b,1,0,1,-1,1,1,"], "line 3: expected 8 fields, got 3"),
    (["a,1,0,1,1,1,1,", "a,1,0,1,1,1,1,", "c,1,0,1,1,1,-1,"],
     "line 5: object 'c': dirty_blocks must be >= 0"),
    (["a,1,0,1,1,1,1,", "a,1,0,1,1,1,1,"], "duplicate object id 'a'"),
    (["a,-1,5,1,-1,-1,-1,-1"], "line 3: object 'a': size must be positive"),
    (["a,oops,0,1,1,1,1,zz"],
     "line 3: field 'llc_mpki' is not a number: 'zz'"),
    (["a,1,0,1,1,1,1,nan"], "line 3: object 'a': llc_mpki must be >= 0"),
    ([",x,0,1,1,1,1,"], "line 3: field 'size_bytes' is not a number: 'x'"),
    ([",1,0,1,1,1,1,"], "line 3: object id must be a non-empty string"),
])
def test_the_first_bad_line_wins_whatever_its_kind(rows, message):
    text = profile_text(rows)
    assert _outcome(_reference_load, text) == message
    assert _outcome(load_profiles, text) == message


def test_a_set_from_columns_equals_the_set_from_its_objects():
    rng = np.random.default_rng(8)
    n = 50
    alloc = rng.uniform(0, 5, n)
    columns = dict(size=rng.uniform(1, 1e6, n), alloc_time=alloc,
                   dealloc_time=alloc + rng.uniform(0.1, 5, n),
                   accessed_volume=rng.uniform(0, 1e7, n),
                   llc_misses=rng.uniform(0, 1e4, n),
                   dirty_blocks=rng.uniform(0, 1e3, n))
    mpki = np.where(rng.random(n) < 0.3, np.nan, rng.uniform(0, 1, n))
    ids = [f"o{i}" for i in range(n)]
    from_columns = ProfileSet.from_columns(
        ids, **columns, llc_mpki=mpki, workload_label="w", workload_size=2.0)
    from_objects = ProfileSet(tuple(
        ObjectProfile(ids[i], *(float(c[i]) for c in columns.values()),
                      None if np.isnan(mpki[i]) else float(mpki[i]))
        for i in range(n)), "w", 2.0)
    assert "objects" not in vars(from_columns)  # built on first use
    assert from_columns == from_objects
    assert from_columns.objects == from_objects.objects
    for name in ("size", "alloc_time", "dealloc_time", "accessed_volume",
                 "llc_misses", "dirty_blocks", "lifetime", "llc_mpki"):
        a, b = getattr(from_columns, name), getattr(from_objects, name)
        assert a.tobytes() == b.tobytes()
        for column in (a, b):
            with pytest.raises(ValueError):
                column[0] = 1.0
    with pytest.raises(AttributeError):
        from_columns.size = columns["size"]
    assert ProfileSet.from_columns(ids, **columns) != from_columns


def test_from_columns_raises_what_object_profile_raises():
    columns = dict(size=[1.0, 0.0, -1.0], alloc_time=[0.0, 0.0, 0.0],
                   dealloc_time=[1.0, 1.0, 1.0],
                   accessed_volume=[1.0, 1.0, 1.0], llc_misses=[1.0, 1.0, 1.0],
                   dirty_blocks=[1.0, 1.0, 1.0])
    with pytest.raises(ProfileError) as err:
        ProfileSet.from_columns(["a", "b", "c"], **columns)
    assert str(err.value) == "object 'b': size must be positive"
    columns["size"] = [1.0, 1.0, 1.0]
    with pytest.raises(ProfileError, match="object id"):
        ProfileSet.from_columns(["a", "#b", "c"], **columns)
    with pytest.raises(ProfileError, match="duplicate object id 'a'"):
        ProfileSet.from_columns(["a", "b", "a"], **columns)


def test_take_and_live_at_select_rows_in_profile_order():
    ps = ProfileSet((make_obj("a", alloc=0.0, dealloc=1.0),
                     make_obj("b", alloc=1.0, dealloc=2.0),
                     make_obj("c", alloc=0.5, dealloc=3.0)), "w", 1.0)
    live = ps.take(ps.live_at(1.0))
    assert live.ids() == ("b", "c")
    assert live.objects == (ps.get("b"), ps.get("c"))
    assert (live.workload_label, live.workload_size) == ("w", 1.0)
    assert len(ps.take([False] * 3)) == 0


def test_generating_and_writing_a_set_builds_no_objects():
    ps = generate_synthetic(GeneratorSpec(count=50, with_mpki=True), 3)
    stream = io.StringIO()
    write_profiles(ps, stream)
    assert "objects" not in vars(ps)
    stream.seek(0)
    assert load_profiles(stream, ps.workload_label, ps.workload_size) == ps


def test_gradients_do_not_depend_on_the_order_of_each_set():
    sets = linear_family(
        [make_obj(f"o{i}", size=(i + 1) * MB, av=(i + 2) * MB,
                  misses=7.0 * i, dirty=3.0 * i) for i in range(5)],
        {f"o{i}": {"size": 0.3 * MB * i, "accessed_volume": 0.7 * MB,
                   "llc_misses": 1.5 * i, "dirty_blocks": 0.25,
                   "lifetime": 0.125 * i} for i in range(5)},
        [1.0, 2.5, 4.0])
    shuffled = [ProfileSet(s.objects[::-1] if k % 2 else s.objects,
                           s.workload_label, s.workload_size)
                for k, s in enumerate(sets)]
    assert derive_scaling_vector(shuffled) == derive_scaling_vector(sets)


def test_extrapolate_names_the_first_bad_object_in_profile_order():
    ps = ProfileSet((make_obj("a"), make_obj("b", size=100.0),
                     make_obj("c")), "w", 1.0)
    shrink = {"size": -500.0, "accessed_volume": 0.0, "llc_misses": 0.0,
              "dirty_blocks": 0.0, "lifetime": 0.0}
    keep = dict(shrink, size=0.0)
    with pytest.raises(ScalingError, match="'b' degenerates"):
        extrapolate(ps, ScalingVector({"a": keep, "b": shrink}), 2.0)
    with pytest.raises(ScalingError, match="no scaling entry for object 'b'"):
        extrapolate(ps, ScalingVector({"a": keep, "c": shrink}), 2.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("record,message", [
    (("", 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, None),
     "object id must be a non-empty string"),
    (("", NAN, 0.0, 1.0, 1.0, 1.0, 1.0, None),
     "object id must be a non-empty string"),
    ((None, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, None),
     "object id must be a non-empty string"),
    (("a,b", 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, None),
     "object id 'a,b' contains a separator character, surrounding "
     "whitespace or a leading '#'"),
    (("a", NAN, 0.0, 1.0, 1.0, 1.0, 1.0, None),
     "object 'a': size must be finite"),
    (("a", -INF, 0.0, 1.0, 1.0, 1.0, 1.0, None),
     "object 'a': size must be finite"),
    (("a", 1.0, INF, 1.0, 1.0, 1.0, 1.0, None),
     "object 'a': alloc_time must be finite"),
    (("a", 1.0, NAN, -INF, 1.0, 1.0, 1.0, None),
     "object 'a': alloc_time must be finite"),
    (("a", 1.0, 0.0, -INF, 1.0, 1.0, 1.0, None),
     "object 'a': dealloc_time must be finite"),
    (("a", 1.0, 0.0, 1.0, NAN, 1.0, INF, None),
     "object 'a': accessed_volume must be finite"),
    (("a", 1.0, 0.0, 1.0, 1.0, INF, 1.0, None),
     "object 'a': llc_misses must be finite"),
    (("a", 1.0, 0.0, 1.0, 1.0, 1.0, -INF, None),
     "object 'a': dirty_blocks must be finite"),
    (("a", 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, None),
     "object 'a': size must be positive"),
    (("a", -1.0, 5.0, 1.0, -1.0, 1.0, 1.0, None),
     "object 'a': size must be positive"),
    (("a", 1.0, 5.0, 1.0, -1.0, 1.0, 1.0, NAN),
     "object 'a': accessed_volume must be >= 0"),
    (("a", 1.0, 0.0, 1.0, 1.0, -1.0, 1.0, None),
     "object 'a': llc_misses must be >= 0"),
    (("a", 1.0, 0.0, 1.0, 1.0, 1.0, -0.5, None),
     "object 'a': dirty_blocks must be >= 0"),
    (("a", 1, 5, 5, 1, 1, 1, -1),
     "object 'a': dealloc_time 5 must be after alloc_time 5"),
    (("a", 1.0, 2.5, 0.5, 1.0, 1.0, 1.0, None),
     "object 'a': dealloc_time 0.5 must be after alloc_time 2.5"),
    (("a", 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, NAN),
     "object 'a': llc_mpki must be >= 0"),
    (("a", 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, -0.01),
     "object 'a': llc_mpki must be >= 0"),
    (("a", 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, INF),
     "object 'a': llc_mpki must be >= 0"),
])
def test_each_rule_reports_its_own_message(record, message):
    with pytest.raises(ProfileError) as err:
        ObjectProfile(*record)
    assert str(err.value) == message
    # Columns hold floats, and NaN there means no llc_mpki.
    floats = (record[0], *map(float, record[1:7]), record[7])
    with pytest.raises(ProfileError) as from_object:
        ObjectProfile(*floats)
    columns = dict(zip(("size", "alloc_time", "dealloc_time",
                        "accessed_volume", "llc_misses", "dirty_blocks"),
                       ([value] for value in floats[1:7])))
    mpki = [NAN if record[7] is None else record[7]]
    if message.endswith("llc_mpki must be >= 0") and np.isnan(mpki[0]):
        ProfileSet.from_columns([record[0]], **columns, llc_mpki=mpki)
        return
    with pytest.raises(ProfileError) as from_columns:
        ProfileSet.from_columns(["ok", record[0]], **{
            name: [1.0 if name != "dealloc_time" else 2.0] + value
            for name, value in columns.items()}, llc_mpki=[NAN] + mpki)
    assert str(from_columns.value) == str(from_object.value)
    if all(type(value) is float for value in record[1:7]):
        assert str(from_columns.value) == message


def test_generator_rejects_lifetimes_too_short_to_move_dealloc():
    spec = GeneratorSpec(count=10, size_range=(1.0, 2.0),
                         lifetime_range=(1e-20, 1e-19))
    with pytest.raises(GeneratorError, match="lifetime_range"):
        generate_synthetic(spec, 4)


@pytest.mark.parametrize("target", [0.0, -30.0, -0.0])
def test_extrapolate_rejects_a_non_positive_target(target):
    ps = ProfileSet((make_obj("a"),), "w", 1.0)
    keep = {"size": 0.0, "accessed_volume": 0.0, "llc_misses": 0.0,
            "dirty_blocks": 0.0, "lifetime": 0.0}
    with pytest.raises(ScalingError, match="must be positive"):
        extrapolate(ps, ScalingVector({"a": keep}), target)


@pytest.mark.parametrize("ranges,named", [
    (dict(size_range=(1e308, 1.7e308)), "size_range and access_factor_range"),
    (dict(skew_count=2, skew_share=0.99, size_range=(1e307, 1.7e307)),
     "size_range and skew_share"),
    (dict(size_range=(1e305, 1e305), miss_rate_range=(1e10, 1e10)),
     "miss_rate_range"),
    (dict(size_range=(1e300, 1e300), miss_rate_range=(1.0, 1.0),
          dirty_fraction_range=(1e10, 1e10)), "dirty_fraction_range"),
    (dict(alloc_range=(1e308, 1.7e308), lifetime_range=(1e308, 1.7e308)),
     "alloc_range and lifetime_range"),
])
def test_generator_names_the_ranges_whose_draws_overflow(ranges, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GeneratorError, match=f"^{named} too large"):
            generate_synthetic(GeneratorSpec(count=10, **ranges), 4)


def test_scaling_rejects_an_overflow_without_a_warning():
    ps = ProfileSet((make_obj("a"),), "w", 1.0)
    vector = ScalingVector({"a": dict.fromkeys(PATTERNS, 1e300)})
    # Workload sizes 1e-310 apart turn a size step of 1e300 into an
    # infinite gradient.
    sets = [ProfileSet((make_obj("a", size=size),), label, workload)
            for size, label, workload in ((MB, "w1", 1e-310),
                                          (1e300, "w2", 2e-310))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ScalingError, match="size must be finite"):
            extrapolate(ps, vector, 1e10)
        with pytest.raises(ScalingError, match="size not finite"):
            derive_scaling_vector(sets)


@pytest.mark.parametrize("name", [
    "size_range", "access_factor_range", "miss_rate_range",
    "dirty_fraction_range", "alloc_range", "lifetime_range", "mpki_range"])
def test_generator_rejects_an_infinite_range_bound(name):
    with pytest.raises(GeneratorError, match=f"^{name} must satisfy"):
        generate_synthetic(GeneratorSpec(count=5, with_mpki=True,
                                         **{name: (1.0, float("inf"))}), 1)


@pytest.mark.parametrize("text, message", [
    ("hmms-profile-v1\n", "line 2: missing column header"),
    ("hmms-profile-v1\n# no records\n\n", "line 2: missing column header"),
    ("hmms-profile-v1\nid,size_bytes\na,1\n", "line 2: expected column "
     "header id,size_bytes,alloc_s,dealloc_s,accessed_bytes,llc_misses,"
     "dirty_blocks[,llc_mpki]"),
    ("hmms-profile-v1\n# header next\nid\n", "line 3: expected column "
     "header id,size_bytes,alloc_s,dealloc_s,accessed_bytes,llc_misses,"
     "dirty_blocks[,llc_mpki]"),
], ids=["no-header", "comments-only", "short-header", "header-after-comment"])
def test_a_missing_or_wrong_column_header_names_its_line(text, message):
    with pytest.raises(ProfileError) as err:
        load_profiles(io.StringIO(text))
    assert str(err.value) == message


@pytest.mark.parametrize("manifest, message", [
    ('{"format": ', "Expecting value: line 1 column 12"),
    ('{"format": "hmms-profile-manifest-v0", "workloads": []}',
     "expected format 'hmms-profile-manifest-v1'"),
    ('{"workloads": []}', "expected format 'hmms-profile-manifest-v1'"),
], ids=["malformed-json", "wrong-format", "no-format"])
def test_a_manifest_that_is_not_the_manifest_format_is_rejected(
        tmp_path, manifest, message):
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(ProfileError) as err:
        load_profile_dir(tmp_path)
    # json's own message goes on with the character offset.
    assert str(err.value).startswith(
        f"{tmp_path / 'manifest.json'}: {message}")


def _written_then_broken(rng):
    """A file exactly as write_profiles writes it, with one field or record
    broken (or left readable, as some draws do). Some draws also give
    llc_mpki for only some objects, add a line the reader skips, pad an id
    or end the lines with \\r\\n."""
    profiles = generate_synthetic(GeneratorSpec(
        count=int(rng.integers(1, 9)), with_mpki=bool(rng.random() < 0.5)),
        int(rng.integers(1000)))
    if rng.random() < 0.15:
        profiles = ProfileSet(replace(o, llc_mpki=None if rng.random() < 0.5
                                      else 0.5) for o in profiles)
    buf = io.StringIO()
    write_profiles(profiles, buf)
    lines = buf.getvalue().splitlines()
    k = int(rng.integers(2, len(lines)))
    fields = lines[k].split(",")
    kind = rng.random()
    if kind < 0.6:
        fields[int(rng.integers(len(fields)))] = str(rng.choice(_BREAKS))
    elif kind < 0.7:
        fields.append("1")
    elif kind < 0.8:
        del fields[-2:]
    elif kind < 0.9:
        fields[0] = lines[int(rng.integers(2, len(lines)))].split(",")[0]
    else:
        fields[3] = fields[2]
    lines[k] = ",".join(fields)
    layout = rng.random()
    if layout < 0.15:  # a blank, whitespace-only or comment line
        lines.insert(int(rng.integers(1, len(lines) + 1)),
                     str(rng.choice(["", " \t ", "# note", " # note"])))
    elif layout < 0.25:  # whitespace the reader strips from an id
        k = int(rng.integers(2, len(lines)))
        pad = str(rng.choice([" ", "\t", "\x1f", "\u3000"]))
        lines[k] = pad + lines[k] if rng.random() < 0.5 \
            else lines[k].replace(",", pad + ",", 1)
    newline = "\r\n" if 0.25 <= layout < 0.35 else "\n"
    return newline.join(lines) + newline


def test_the_one_pass_reader_refuses_every_broken_written_file():
    # One typed np.loadtxt, its row count and the id rule decide whether a
    # file skips the per-line passes, so each fault and each layout must
    # still give the per-record outcome.
    rng = np.random.default_rng(19)
    kinds = set()
    for _ in range(600):
        text = _written_then_broken(rng)
        want = _outcome(_reference_load, text)
        assert _outcome(load_profiles, text) == want, text
        if isinstance(want, str):
            kinds.add(want.split(": ")[-1][:20])
    # Parse errors, field counts, each invariant and duplicate ids.
    assert len(kinds) >= 12


@pytest.mark.parametrize("fault", [None, "1_0 field", "padded id",
                                   "no llc_mpki"])
def test_a_written_file_is_parsed_by_numpy_at_most_once(monkeypatch, fault):
    profiles = generate_synthetic(GeneratorSpec(
        count=20, with_mpki=fault != "no llc_mpki"), 7)
    buf = io.StringIO()
    write_profiles(profiles, buf)
    lines, want = buf.getvalue().splitlines(), list(profiles)
    if fault == "1_0 field":  # float() reads it, numpy does not
        lines[8] = lines[8].rsplit(",", 1)[0] + ",1_0"
        want[6] = replace(want[6], llc_mpki=10.0)
    elif fault == "padded id":
        lines[8] = " " + lines[8]
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr("memplan.profiles.np.loadtxt",
                        lambda *args, **kwargs: calls.append(args)
                        or loadtxt(*args, **kwargs))
    loaded = load_profiles(io.StringIO("\n".join(lines) + "\n"))
    assert list(loaded) == want
    assert len(calls) == 1


@pytest.mark.parametrize("fault", [None, "size", "duplicate id"])
def test_an_empty_line_among_written_records_reads_as_per_record(monkeypatch,
                                                                  fault):
    # numpy skips the empty line without a word, so only its row count
    # sends the file to the per-line passes, which reuse numpy's numbers.
    profiles = generate_synthetic(GeneratorSpec(count=12), 3)
    buf = io.StringIO()
    write_profiles(profiles, buf)
    lines = buf.getvalue().splitlines()
    lines.insert(6, "")
    message = None
    if fault == "size":  # obj0005 on line 9
        lines[8] = lines[8].replace(",", ",-", 1)
        message = "line 9: object 'obj0005': size must be positive"
    elif fault == "duplicate id":
        lines[10] = "obj0001" + lines[10][len("obj0007"):]
        message = "duplicate object id 'obj0001'"
    text = "\n".join(lines) + "\n"
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr("memplan.profiles.np.loadtxt",
                        lambda *args, **kwargs: calls.append(args)
                        or loadtxt(*args, **kwargs))
    want = _outcome(_reference_load, text)
    assert _outcome(load_profiles, text) == want
    assert len(calls) == 1
    if message:
        assert want == message
    else:
        loaded = load_profiles(io.StringIO(text))
        assert loaded.objects == profiles.objects
        assert loaded._table.tobytes() == profiles._table.tobytes()


_SEVEN_COLUMNS = ("id,size_bytes,alloc_s,dealloc_s,accessed_bytes,llc_misses,"
                  "dirty_blocks")
# Hand-written pieces of a profile file: each column header, padded or not,
# the lines the reader skips, each spelling of an id, of a number and of
# llc_mpki (None: a 7-field record), and the faults a record can carry.
_HAND_HEADERS = {"7": _SEVEN_COLUMNS, "8": _SEVEN_COLUMNS + ",llc_mpki",
                 "padded": " id , size_bytes,alloc_s ,dealloc_s,"
                           "accessed_bytes,llc_misses,\tdirty_blocks , llc_mpki"}
_HAND_SKIPPED = ("# note", "", " \t ", "  # note,1,2")
_HAND_IDS = ("{}", " {}", "{}\t", "\u3000{} ")
_HAND_NUMBERS = ("{}", " {} ", "\t{}")
_HAND_MPKI = (None, "", " ", "0.25", " 1.5 ")
_HAND_FAULTS = ("1_0", "x", "nan", "", "-1")


def _hand_written(rng):
    """A profile file put together from the pieces above: one header, one
    to five records whose llc_mpki is spelled alike or drawn per record,
    skipped lines anywhere after the version line, LF or CRLF endings, and
    now and then a bad number or a bad id."""
    def pick(pieces):
        return pieces[int(rng.integers(len(pieces)))]

    header = pick(list(_HAND_HEADERS))
    alike, mpki = rng.random() < 0.6, pick(_HAND_MPKI)
    lines = [_HAND_HEADERS[header]]
    for i in range(int(rng.integers(1, 6))):
        numbers = [4096 * (i + 1), i / 2, i / 2 + 1, 100 * i, 3, i]
        fields = [pick(_HAND_IDS).format(f"o{i}")] + [
            pick(_HAND_NUMBERS).format(n) for n in numbers]
        if not alike:
            mpki = pick(_HAND_MPKI)
        fields += [] if mpki is None else [mpki]
        fault = rng.random()
        if fault < 0.15:
            fields[int(rng.integers(1, len(fields)))] = pick(_HAND_FAULTS)
        elif fault < 0.2:  # empty, blank or a duplicate id
            fields[0] = pick(["", "  ", lines[-1].split(",")[0]])
        lines.append(",".join(fields))
    for _ in range(int(rng.integers(0, 3))):
        lines.insert(int(rng.integers(len(lines) + 1)), pick(_HAND_SKIPPED))
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    return header, newline.join(["hmms-profile-v1"] + lines) + newline


def test_hand_written_layouts_load_as_a_per_record_loader_loads_them():
    rng = np.random.default_rng(42)
    kinds = set()
    for _ in range(400):
        header, text = _hand_written(rng)
        want = _outcome(_reference_load, text)
        assert _outcome(load_profiles, text) == want, text
        if isinstance(want, str):  # the message without its line number
            kinds.add(want.split(": ", want.startswith("line "))[-1][:20])
            continue
        kinds.add(f"{header} loaded")
        got, ref = load_profiles(io.StringIO(text)), _reference_load(text)
        assert got._table.tobytes() == ref._table.tobytes(), text
        assert got.llc_mpki.tobytes() == ref.llc_mpki.tobytes(), text
    assert {"7 loaded", "8 loaded", "padded loaded", "field 'size_bytes' i",
            "object id must be a ", "duplicate object id "} <= kinds
    assert len(kinds) >= 10


def _counted(monkeypatch, target, function):
    """The list of the argument tuples of each call to ``function``, which
    ``target`` names and which still runs."""
    calls = []
    monkeypatch.setattr(target, lambda *args, **kwargs: calls.append(args)
                        or function(*args, **kwargs))
    return calls


@pytest.mark.parametrize("records", [
    ["a,4096,0,1,100,3,1", "b,8192,0.5,2,0,0,0"],
    ["a,4096,0,1,100,3,1,0.5", "b,8192,0.5,2,0,0,0,0.25"],
    ["a,4096,0,1,100,3,1", "b,8192,0.5,2,0,0,0,0.25", "c,1,0,1,1,1,1,"],
], ids=["7 fields", "llc_mpki given", "mixed"])
def test_a_seven_column_header_file_is_read_without_numpy(monkeypatch,
                                                          records):
    text = "\n".join(["hmms-profile-v1", _SEVEN_COLUMNS, *records]) + "\n"
    calls = _counted(monkeypatch, "memplan.profiles.np.loadtxt", np.loadtxt)
    loaded = load_profiles(io.StringIO(text))
    assert loaded.objects == _reference_load(text).objects
    assert calls == []


@pytest.mark.parametrize("with_mpki", [True, False])
@pytest.mark.parametrize("layout", ["padded id", "empty line"])
def test_numpy_reads_a_written_file_the_passes_strip(monkeypatch, layout,
                                                     with_mpki):
    # The typed read does not vouch for the file whole, so the per-line
    # passes strip the id or skip the line and float() reads every record.
    from memplan.profiles import _numbers
    profiles = generate_synthetic(GeneratorSpec(count=20, with_mpki=with_mpki),
                                  5)
    buf = io.StringIO()
    write_profiles(profiles, buf)
    lines = buf.getvalue().splitlines()
    if layout == "padded id":
        lines[8] = " " + lines[8]
    else:
        lines.insert(8, "")
    loadtxt = _counted(monkeypatch, "memplan.profiles.np.loadtxt", np.loadtxt)
    numbers = _counted(monkeypatch, "memplan.profiles._numbers", _numbers)
    loaded = load_profiles(io.StringIO("\n".join(lines) + "\n"))
    assert loaded.objects == profiles.objects
    assert loaded._table.tobytes() == profiles._table.tobytes()
    assert loaded.llc_mpki.tobytes() == profiles.llc_mpki.tobytes()
    assert (len(loadtxt), len(numbers)) == (1, len(profiles))


def test_a_written_file_runs_the_column_id_rule_once(monkeypatch):
    # The typed read tests the id column by its joined text once and tests
    # no id on its own.
    profiles = generate_synthetic(GeneratorSpec(count=30, with_mpki=True), 8)
    buf = io.StringIO()
    write_profiles(profiles, buf)
    from memplan.profiles import _id_ok, _ids_ok
    columns = _counted(monkeypatch, "memplan.profiles._ids_ok", _ids_ok)
    single = _counted(monkeypatch, "memplan.profiles._id_ok", _id_ok)
    loaded = load_profiles(io.StringIO(buf.getvalue()), "synthetic", 1.0)
    assert loaded == profiles
    assert len(columns) == 1 and len(columns[0][0]) == 30
    assert single == []


def test_the_column_id_rule_agrees_with_the_per_id_rule():
    from memplan.profiles import _id_ok
    breaks = ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
    pads = ["\t", "\x1f", "\u3000"]
    rng = np.random.default_rng(20)
    seen = set()
    for _ in range(3000):
        ids = []
        for i in range(int(rng.integers(0, 6))):
            object_id, kind = f"o{i}", rng.random()
            if kind < 0.05:
                object_id = [None, 5, ""][int(rng.integers(3))]
            elif kind < 0.1:
                object_id = str(rng.choice(breaks)).join([object_id, "x"])
            elif kind < 0.13:
                object_id += ","
            elif kind < 0.16:
                object_id = str(rng.choice(pads)) + object_id
            elif kind < 0.19:
                object_id += str(rng.choice(pads))
            elif kind < 0.22:
                object_id = "#" + object_id
            elif kind < 0.25:
                object_id = "a#" + object_id
            ids.append(object_id)
        column = _id_ok(np.array(ids, dtype=object))
        mask = [_id_ok(object_id) for object_id in ids]
        assert column.dtype == bool and column.tolist() == mask, ids
        seen.add((all(mask), len(ids) > 1))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_a_written_file_round_trips():
    sets = [generate_synthetic(GeneratorSpec(count=n, with_mpki=mpki), n)
            for n, mpki in ((1, False), (24, True), (300, False))]
    # Inner whitespace and an inner '#' keep the id rules.
    sets.append(ProfileSet.from_columns(
        ["heap 1", "a#b", "x\x1fy"], size=[1, 2, 3], alloc_time=[0, 0, 1],
        dealloc_time=[1, 2, 3], accessed_volume=[0, 5, 6],
        llc_misses=[1, 0, 2], dirty_blocks=[0, 0, 0],
        workload_label="synthetic", workload_size=1.0))
    for profiles in sets:
        buf = io.StringIO()
        write_profiles(profiles, buf)
        loaded = load_profiles(io.StringIO(buf.getvalue()), "synthetic", 1.0)
        assert loaded == profiles


def test_a_set_is_split_once_per_threshold(monkeypatch):
    from memplan.baselines import (place_all_dram, place_all_nvm,
                                   place_mpki_threshold)
    from memplan.energy import testbed1
    from memplan.planner import plan_static
    profiles = generate_synthetic(GeneratorSpec(count=30, with_mpki=True), 4)
    threshold = float(np.median(profiles.accessed_volume))
    mask = profiles.accessed_volume > threshold
    fresh = (profiles.take(mask), profiles.take(~mask))
    takes = []
    take = ProfileSet.take
    monkeypatch.setattr(ProfileSet, "take",
                        lambda self, m: takes.append(1) or take(self, m))
    dev = testbed1()
    place_all_dram(profiles, dev, threshold)
    place_all_nvm(profiles, dev, threshold)
    place_mpki_threshold(profiles, dev, 0.05, threshold)
    plan_static(profiles, dev, 0.9, threshold)
    assert len(takes) == 2
    assert filter_major(profiles, threshold) == fresh
    assert filter_major(profiles, 0.0) != fresh and len(takes) == 4
    for _ in range(2):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            filter_major(profiles, float("nan"))


def test_sum_in_order_adds_left_to_right_as_a_loop_does():
    # The loop is what sum(list, 0.0) adds on Python 3.11; from 3.12 on
    # builtin sum compensates, so the loop is the oracle on every Python.
    from functools import reduce
    from operator import add

    from memplan.profiles import _sum_in_order

    def same(got, want):
        # repr round-trips a float, so equal reprs are equal bits (the
        # sign of zero included), and every total is a float.
        return type(got) is float and repr(got) == repr(want)

    rng = np.random.default_rng(35)
    uncompensated = 0
    for n in [*range(1, 26), 100, 2000]:
        for _ in range(20):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 17, n)
            want = reduce(add, values.tolist(), 0.0)
            assert same(_sum_in_order(values), want), n
            uncompensated += want != math.fsum(values.tolist())
    assert uncompensated  # the inputs tell a compensated sum apart

    for pad in (0, 24):  # short and long inputs alike
        values = np.array([1e16, 1.0, -1e16] + [0.0] * pad)
        assert same(_sum_in_order(values), 0.0)
        assert same(_sum_in_order(np.full(3 + pad, -0.0)), 0.0)
    assert same(_sum_in_order(np.array([])), 0.0)
