"""Reading and writing artifact text: a failed write leaves its destination
as it was, and a file with CRLF or lone-CR line ends reads as a text-mode
stream of it reads."""

import io
import json
import os
import shutil
from fractions import Fraction

import pytest

from memplan import cli
from memplan.baselines import place_mpki_threshold
from memplan.energy import DeviceSpec, load_device_spec, write_device_spec
from memplan.energy import testbed1 as make_testbed1
from memplan.migration import (MigrationRequest, plan_migration,
                               write_migration_plan)
from memplan.planner import PlacementPlan, load_plan, write_plan
from memplan.profiles import (GeneratorSpec, ProfileError, ProfileSet,
                              generate_synthetic, load_profile_dir,
                              load_profiles, write_profile_dir,
                              write_profiles)

OLD = b"old artifact\n"
BAD_ID = "b\ud800"  # a lone surrogate, which UTF-8 cannot encode


def _set(ids=("a", "b"), **named):
    return ProfileSet.from_columns(
        ids, size=[4096] * len(ids), alloc_time=[0.0] * len(ids),
        dealloc_time=[2.0] * len(ids), accessed_volume=[8 << 20] * len(ids),
        llc_misses=[10] * len(ids), dirty_blocks=[1] * len(ids),
        llc_mpki=[0.5] * len(ids), **named)


def _migration_plan(ids):
    profiles = _set(ids)
    dev = make_testbed1()
    current = place_mpki_threshold(profiles, dev, 0.05, 0.0)
    return plan_migration(profiles, dev, current, MigrationRequest(1.0, 0.9),
                          plan_future=False)


def _same_error(got: BaseException, want: BaseException) -> bool:
    """The same kind of error about the same text: for an encoding error,
    the same reason and offending characters."""
    if type(got) is not type(want):
        return False
    if isinstance(got, UnicodeEncodeError):
        return (got.reason == want.reason and got.object[got.start:got.end]
                == want.object[want.start:want.end])
    return str(got) == str(want)


# Each writer, with an artifact it cannot write as UTF-8 text.
WRITERS = {
    "write_profiles": lambda dest: write_profiles(_set(("a", BAD_ID)), dest),
    "write_plan": lambda dest: write_plan(PlacementPlan(
        {"a": "dram", BAD_ID: "nvm"}, (BAD_ID,), "optimal", 1.0, 0.0, 0.0,
        0.0, 0.0), dest),
    "write_migration_plan": lambda dest: write_migration_plan(
        _migration_plan(("a", BAD_ID)), dest),
    # A Fraction is a finite Real, which json cannot spell.
    "write_device_spec": lambda dest: write_device_spec(
        DeviceSpec(dram_act_pre=Fraction(3, 1)), dest),
    "cli._write_text": lambda dest: cli._write_text(dest, f"x,{BAD_ID}\n"),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_failed_write_leaves_its_destination_as_it_was(tmp_path, name):
    # What the writer raises through a text-mode UTF-8 stream.
    with open(tmp_path / "stream", "w", encoding="utf-8") as stream, \
            pytest.raises((ValueError, TypeError)) as streamed:
        WRITERS[name](stream)
    dest = tmp_path / "artifact"
    dest.write_bytes(OLD)
    with pytest.raises((ValueError, TypeError)) as written:
        WRITERS[name](str(dest))
    assert _same_error(written.value, streamed.value), (written, streamed)
    assert dest.read_bytes() == OLD


def test_a_failed_manifest_write_leaves_the_manifest_as_it_was(tmp_path):
    write_profile_dir([_set(workload_size=1.0)], tmp_path)
    manifest = tmp_path / "manifest.json"
    before = manifest.read_bytes()
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        write_profile_dir([_set(workload_size=Fraction(1, 2))], tmp_path)
    assert manifest.read_bytes() == before


def test_a_command_that_cannot_write_its_table_keeps_the_old_one(tmp_path,
                                                                capsys):
    profiles, plan = tmp_path / "w.prof", tmp_path / "p.plan"
    write_profiles(_set(), profiles)
    write_plan(place_mpki_threshold(_set(), make_testbed1(), 0.05, 0.0), plan)
    out = tmp_path / "compare.csv"
    out.write_bytes(OLD)
    # A name the command line decoded with surrogateescape.
    code = cli.main(["compare", "--profiles", str(profiles), "--plan",
                     f"n\udcff={plan}", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert "surrogates not allowed" in capsys.readouterr().err
    assert out.read_bytes() == OLD


def _line_ends(text: str) -> dict[str, bytes]:
    return {end: text.replace("\n", end).encode() for end in
            ("\n", "\r\n", "\r")}


def _outcome(load, source):
    """What loading gives: the object, or the error's type and message."""
    try:
        return load(source)
    except (ValueError, ProfileError) as exc:
        return type(exc).__name__, str(exc)


def _same_as_a_text_stream(tmp_path, load, text: str, compare=None):
    """Each line-end spelling of ``text`` loads from its path as the
    text-mode stream of the same file loads; returns the outcomes."""
    outcomes = []
    for end, data in _line_ends(text).items():
        path = tmp_path / f"file{len(outcomes)}"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as stream:
            want = _outcome(load, stream)
        got = _outcome(load, str(path))
        if isinstance(want, tuple):  # the file's name stands for "plan"
            got = (got[0], got[1].replace(str(path), "plan"))
            want = (want[0], want[1].replace(str(path), "plan"))
        assert (compare or (lambda a, b: a == b))(got, want), (end, got, want)
        outcomes.append(got)
    return outcomes


def _profile_text(seven_columns: bool, broken: bool) -> str:
    buf = io.StringIO()
    write_profiles(generate_synthetic(GeneratorSpec(count=12, with_mpki=True),
                                      3), buf)
    lines = buf.getvalue().splitlines()
    if seven_columns:  # the per-line passes: another header, a comment
        lines = [lines[0], lines[1].rpartition(",")[0], "# a comment"] + [
            line.rpartition(",")[0] for line in lines[2:]]
    if broken:
        lines[6] = lines[6].replace(",", ",-", 1)  # a negative size
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("broken", [False, True], ids=["loads", "broken"])
@pytest.mark.parametrize("seven_columns", [False, True],
                         ids=["typed read", "per-line passes"])
def test_a_profile_reads_the_same_with_any_line_end(tmp_path, seven_columns,
                                                   broken):
    outcomes = _same_as_a_text_stream(
        tmp_path, load_profiles, _profile_text(seven_columns, broken))
    if broken:
        assert outcomes[0][1].startswith("line 7: ")
        assert "size must be positive" in outcomes[0][1]
    else:
        assert len(outcomes[0]) == 12


def _plan_equal(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return (a == b and a._rows[0] == b._rows[0]
            and a._rows[1].tolist() == b._rows[1].tolist()
            and a._rows[2].tolist() == b._rows[2].tolist())


@pytest.mark.parametrize("table", [
    "a,dram,0\nb,nvm,1\nc,unassigned,1\n",
    "a,dram,0\n\n b,nvm,1 \n",
    "a,dram,0\nb,hbm,1\n",
    "a,dram,0\na,nvm,1\n",
], ids=["written", "padded", "unknown device", "duplicate id"])
def test_a_plan_reads_the_same_with_any_line_end(tmp_path, table):
    head = ("hmms-plan-v1\nstatus=optimal\nratio=0.9\n"
            "major_threshold_bytes=0.0\nobjective_ns=1.0\n"
            "planned_energy_nj=1.0\nenergy_budget_nj=2.0\nbinding=\n"
            "id,device,major\n")
    outcomes = _same_as_a_text_stream(tmp_path, load_plan, head + table,
                                      _plan_equal)
    if "hbm" in table or table.count("a,") == 2:
        assert isinstance(outcomes[0], tuple)
    else:
        assert outcomes[0].major_ids == ("b",) + ("c",) * ("c," in table)


def test_a_device_spec_reads_the_same_with_any_line_end(tmp_path):
    buf = io.StringIO()
    write_device_spec(make_testbed1(dram_capacity=3.0), buf)
    outcomes = _same_as_a_text_stream(tmp_path, load_device_spec,
                                      buf.getvalue())
    assert outcomes[0] == make_testbed1(dram_capacity=3.0)
    broken = buf.getvalue().replace('"nvm_wb"', '"nvm_wx"')
    outcomes = _same_as_a_text_stream(tmp_path, load_device_spec, broken)
    assert "unknown device spec fields" in outcomes[0][1]


@pytest.mark.parametrize("broken", [False, True], ids=["loads", "broken"])
def test_a_manifest_reads_the_same_with_any_line_end(tmp_path, broken):
    sets = [_set(workload_size=float(size), workload_label=f"w{size}")
            for size in (1, 2)]
    write_profile_dir(sets, tmp_path / "lf")
    text = (tmp_path / "lf" / "manifest.json").read_text()
    if broken:
        text = text.replace('"workloads"', '"workloads" 1')
    outcomes = []
    for end, data in _line_ends(text).items():
        directory = tmp_path / f"dir{len(outcomes)}"
        shutil.copytree(tmp_path / "lf", directory)
        (directory / "manifest.json").write_bytes(data)
        # What json gives the text a text-mode stream reads.
        with open(directory / "manifest.json", encoding="utf-8") as stream:
            want = None if not broken else _outcome(json.load, stream)
        got = _outcome(load_profile_dir, str(directory))
        if broken:
            assert got[1] == f"{directory / 'manifest.json'}: {want[1]}"
        else:
            assert got == sets
        outcomes.append(got)
    assert len(outcomes) == 3


def test_read_text_turns_crlf_and_lone_cr_into_lf_and_passes_streams(
        tmp_path):
    from memplan.profiles import read_text, write_text
    path = tmp_path / "t"
    path.write_bytes(b"a\r\nb\rc\n\r\n")
    assert read_text(str(path)) == "a\nb\nc\n\n"
    assert read_text(io.StringIO("a\r\nb")) == "a\r\nb"
    stream = io.StringIO()
    write_text(stream, "x\r\n")
    assert stream.getvalue() == "x\r\n"
    write_text(os.fspath(path), "é\n")
    assert path.read_bytes() == "é\n".encode()
