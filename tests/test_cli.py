import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from cyclewall import cli, davis, walls
from cyclewall.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_RESOURCE,
    load_presentation,
    main,
    run_suite,
    walls_suite,
)
from cyclewall.errors import ResourceLimitError, ValidationError
from cyclewall.reports import Report
from cyclewall.words import parse_word

from conftest import (
    DAVIS_CLASSES,
    classes_defined_in,
    inner_aut,
    presentation_c5_mixed,
    presentation_c5_z2,
)
from oracles import build_parser


def write_presentation(tmp_path, n=5, groups=None, name="p.json"):
    doc = {"schema": "cyclewall/1", "n": n,
           "groups": groups if groups is not None else ["Z/2"] * n}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- presentation loading ------------------------------------------------------


def test_load_presentation_strings(tmp_path):
    path = write_presentation(tmp_path, 5, ["Z/2", "Z/3", "S3", "Z/2", "Z/3"])
    p = load_presentation(path)
    assert p.n == 5
    assert [g.size for g in p.groups] == [2, 3, 6, 2, 3]


def test_load_presentation_table(tmp_path):
    table = [[0, 1], [1, 0]]
    path = write_presentation(tmp_path, 5, [
        {"kind": "table", "table": table, "name": "T"}] + ["Z/2"] * 4)
    assert load_presentation(path).group(0).size == 2


def test_load_rejects_mismatched_count(tmp_path):
    path = write_presentation(tmp_path, 6, ["Z/2"] * 5)
    with pytest.raises(ValidationError):
        load_presentation(path)


def test_load_rejects_unknown_group(tmp_path):
    path = write_presentation(tmp_path, 5, ["Z/2"] * 4 + ["Q8"])
    with pytest.raises(ValidationError) as err:
        load_presentation(path)
    assert "groups[4]" in str(err.value)


def test_load_rejects_malformed_group_objects(tmp_path):
    for spec in ({"kind": "cyclic"}, {"kind": "cyclic", "order": "x"},
                 {"kind": "table"}, {"kind": "table", "table": 5}):
        path = write_presentation(tmp_path, 5, [spec] + ["Z/2"] * 4)
        with pytest.raises(ValidationError) as err:
            load_presentation(path)
        assert "groups[0]" in str(err.value)


def test_load_rejects_a_boolean_n(tmp_path, capsys):
    """A JSON boolean is not an integer n, though Python's bool is an int."""
    path = write_presentation(tmp_path, True, [])
    with pytest.raises(ValidationError, match=r"required fields: n \(int\)"):
        load_presentation(path)
    assert main(["verify", "--suite", "words", "--presentation", path]) == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("names", ["ab", [1, 2]], ids=["a-string", "not-strings"])
def test_load_rejects_table_names_that_are_not_a_list_of_strings(names, tmp_path, capsys):
    path = write_presentation(tmp_path, 5, [
        {"kind": "table", "table": [[0, 1], [1, 0]], "names": names}] + ["Z/2"] * 4)
    with pytest.raises(ValidationError, match=r"groups\[0\]: table names must be"):
        load_presentation(path)
    assert main(["verify", "--suite", "words", "--presentation", path]) == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("error:")


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_presentation(str(path))


# -- reduce -----------------------------------------------------------------------


def test_reduce_command(tmp_path, capsys):
    path = write_presentation(tmp_path)
    rc = main(["reduce", "--presentation", path, "v1:1 v2:1 v1:1", ""])
    assert rc == EXIT_PASS
    out = capsys.readouterr().out.splitlines()
    assert out == ["v2:1", ""]


def test_reduce_rejects_bad_word(tmp_path, capsys):
    path = write_presentation(tmp_path)
    rc = main(["reduce", "--presentation", path, "v9:1"])
    assert rc == EXIT_RESOURCE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [True, 1.0], ids=["bool", "float"])
def test_reduce_refuses_a_table_group_with_entries_that_are_not_ints(entry, tmp_path, capsys):
    """JSON ``true`` entries passed the table's range check, as a bool is an
    int, and ``reduce`` printed ``v0:True``, which does not parse; ``1.0``
    entries ended in a TypeError's text.  Both are the table error now."""
    table = [[0, entry, 2], [entry, 2, 0], [2, 0, entry]]
    path = write_presentation(tmp_path, 5, [{"kind": "table", "table": table}] + ["Z/2"] * 4)
    assert main(["reduce", "--presentation", path, "v0:2 v0:2", "v0:1"]) == EXIT_RESOURCE
    assert capsys.readouterr() == (
        "", f"error: {path}: groups[0]: group table is not a square table of element ids\n")


@pytest.mark.parametrize("at,group,message", [
    (1, {"kind": "cyclic", "order": 1}, "cyclic group needs order >= 2"),
    (1, "Z/1", "cyclic group needs order >= 2"),
    (0, {"kind": "table", "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]},
     "table is not associative at (1,1,1)"),
    (2, "Z/x", "bad cyclic order in 'Z/x'"),
], ids=["order-1", "Z/1", "not-associative", "loader"])
def test_a_group_error_names_its_group_once(at, group, message, tmp_path, capsys):
    """A group error names the file and the group, with one prefix, whether
    ``cyclic_group`` or ``table_group`` raises it or the loader does."""
    groups = ["Z/2"] * 5
    groups[at] = group
    path = write_presentation(tmp_path, 5, groups)
    assert main(["reduce", "--presentation", path, "v0:1"]) == EXIT_RESOURCE
    assert capsys.readouterr() == ("", f"error: {path}: groups[{at}]: {message}\n")


# -- ball -------------------------------------------------------------------------


def test_ball_json_export(tmp_path, capsys):
    path = write_presentation(tmp_path)
    rc = main(["ball", "--presentation", path, "--radius", "1"])
    assert rc == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "cyclewall/1"
    assert len(doc["polygons"]) == 6


def test_ball_dot_export(tmp_path, capsys):
    path = write_presentation(tmp_path)
    rc = main(["ball", "--presentation", path, "--radius", "1",
               "--format", "dot", "--subdivide"])
    assert rc == EXIT_PASS
    assert capsys.readouterr().out.startswith("graph")


@pytest.mark.parametrize("argv", [[], ["--subdivide"], ["--format", "dot", "--subdivide"]],
                         ids=["json", "json-square", "dot-square"])
def test_ball_writes_the_same_bytes_to_stdout_and_to_output(argv, tmp_path):
    """The streamed export, newline included, is the same through a pipe
    and through a file."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "cyclewall.cli", "ball", "--radius", "2", *argv,
               "--presentation", str(root / "perfbench" / "presentations" / "c5_mixed.json")]
    out = tmp_path / "ball.out"
    piped = subprocess.run(command, env=env, capture_output=True)
    written = subprocess.run(command + ["--output", str(out)], env=env, capture_output=True)
    assert (piped.returncode, written.returncode) == (EXIT_PASS, EXIT_PASS)
    assert piped.stderr == written.stderr == written.stdout == b""
    assert piped.stdout.endswith(b"\n") and piped.stdout == out.read_bytes()


def test_ball_resource_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYCLEWALL_MEM_MB", "0")
    path = write_presentation(tmp_path)
    rc = main(["ball", "--presentation", path, "--radius", "2"])
    assert rc == EXIT_RESOURCE


@pytest.mark.parametrize("argv", [[], ["--subdivide"], ["--format", "dot"],
                                  ["--format", "dot", "--subdivide"]],
                         ids=["json", "json-square", "dot", "dot-square"])
def test_ball_command_makes_no_cell_object(argv, capsys, monkeypatch):
    """``cyclewall ball`` writes the export of the built ball from the
    ball's integer table alone: ``davis`` defines no cell type, the command
    writes the export's text, and a zero memory budget still ends it with
    exit 2 and build_ball's error line."""
    path = str(Path(__file__).resolve().parent.parent / "perfbench" / "presentations"
               / "c6_mixed.json")
    square = "--subdivide" in argv
    export = davis.iter_ball_dot if "dot" in argv else davis.iter_ball_json
    want = "".join(export(davis.build_ball(load_presentation(path), 2).table, square)) + "\n"
    monkeypatch.setenv("CYCLEWALL_MEM_MB", "0")
    with pytest.raises(ResourceLimitError) as budget:
        davis.build_ball(load_presentation(path), 2)
    monkeypatch.delenv("CYCLEWALL_MEM_MB")
    assert classes_defined_in(davis) == DAVIS_CLASSES
    capsys.readouterr()
    assert main(["ball", "--presentation", path, "--radius", "2", *argv]) == EXIT_PASS
    assert capsys.readouterr() == (want, "")
    monkeypatch.setenv("CYCLEWALL_MEM_MB", "0")
    assert main(["ball", "--presentation", path, "--radius", "2", *argv]) == EXIT_RESOURCE
    assert capsys.readouterr() == ("", f"error: {budget.value}\n")


# -- verify -----------------------------------------------------------------------


def test_verify_words_suite(tmp_path, capsys):
    path = write_presentation(tmp_path)
    rc = main(["verify", "--presentation", path, "--suite", "words"])
    assert rc == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 0
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_words_suite_with_an_infinite_vertex_group(tmp_path, capsys):
    """The words suite draws values for a Z vertex below 5 instead of asking
    Z for its size; the other suites still need finite groups."""
    path = write_presentation(tmp_path, 5, ["Z"] + ["Z/2"] * 4)
    rc = main(["verify", "--presentation", path, "--suite", "words"])
    assert rc == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 0
    assert doc["checks"] and all(c["status"] == "pass" for c in doc["checks"])
    rc = main(["verify", "--presentation", path])
    assert rc == EXIT_RESOURCE
    assert capsys.readouterr().err == \
        "error: operation requires finite vertex groups\n"


def test_verify_davis_suite(tmp_path, capsys):
    path = write_presentation(tmp_path)
    rc = main(["verify", "--presentation", path, "--suite", "davis",
               "--radius", "1"])
    assert rc == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 0


def test_verify_deterministic_output(tmp_path):
    path = write_presentation(tmp_path, 5, ["Z/2", "Z/3", "Z/2", "Z/3", "Z/2"])
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--presentation", path, "--suite", "aut",
                 "--seed", "7", "--output", str(out1)]) == EXIT_PASS
    assert main(["verify", "--presentation", path, "--suite", "aut",
                 "--seed", "7", "--output", str(out2)]) == EXIT_PASS
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_report_is_canonically_ordered(tmp_path, capsys):
    path = write_presentation(tmp_path)
    main(["verify", "--presentation", path, "--suite", "words"])
    doc = json.loads(capsys.readouterr().out)
    keys = [(c["check"], c["instance"]) for c in doc["checks"]]
    assert keys == sorted(keys)


def test_run_suite_builds_ball_subdivision_and_stabilizers_once(monkeypatch):
    calls = Counter()

    def counted(name, fn, key=lambda *args: None):
        def wrapper(*args):
            calls[name, key(*args)] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(davis, "build_ball", counted("ball", davis.build_ball))
    monkeypatch.setattr(davis, "_subdivision", counted("subdivision", davis._subdivision))
    monkeypatch.setattr(davis, "_read_links", counted("links", davis._read_links))
    monkeypatch.setattr(davis, "_faults", counted("record scan", davis._faults))
    monkeypatch.setattr(walls, "_wall_stabilizer", counted(
        "stabilizer", walls._wall_stabilizer, key=lambda b, T, L: (T.label, T.key_rep)))
    assert run_suite(presentation_c5_mixed(), "all", 2, 3, 0).ok
    assert calls["ball", None] == 1
    assert calls["subdivision", None] == 1
    assert calls["links", None] == 1
    assert calls["record scan", None] == 1
    per_wall = [n for (name, _), n in calls.items() if name == "stabilizer"]
    assert per_wall and max(per_wall) == 1


def test_walls_suite_alone_fails_the_classes_row_on_a_broken_record(monkeypatch):
    """With no davis audit run before it, the walls suite's hyperplane audit
    scans the square records itself: square 0 with its second side listed as
    its first fails the ``classes`` row with the scan's witness."""
    build = davis._subdivision

    def broken(b):
        x = build(b)
        x.squares[5] = x.squares[4]
        return x
    monkeypatch.setattr(davis, "_subdivision", broken)
    p = presentation_c5_mixed()
    report = run_suite(p, "walls", 2, 3, 0)
    rows = [r for r in report.failures if r.check_id == "walls.hyperplane-side-is-wall"]
    x = davis.subdivision(davis.build_ball(p, 2))
    assert [(r.instance, r.witness) for r in rows] == [
        ("classes", {"error": "a 2-cell meets its corner in other than two sides",
                     "at": [x.square_name(0), x.vertex_key(x.squares[2]), 1]})]


@pytest.mark.parametrize("seed", range(4))
def test_walls_suite_samples_the_pairs_a_shuffled_pair_list_gives(seed, monkeypatch):
    """The walls suite classifies the first 25 pairs that shuffling the
    list of all wall pairs with ``Random(seed)`` would give, in that order,
    though it shuffles their ranks and never lists the pairs."""
    b = davis.build_ball(presentation_c5_mixed(), 2)
    cg = walls.crossing_graph(b)
    pairs = list(itertools.combinations(range(len(cg.walls)), 2))
    random.Random(seed).shuffle(pairs)
    classified = []

    def record(b, cg, k1, k2, depth):
        classified.append((k1, k2))
        return Report()
    monkeypatch.setattr(walls, "classify_pair", record)
    walls_suite(b, 2, seed)
    assert len(pairs) > 25 and classified == pairs[:25]


def test_run_suite_diagrams_direct():
    p = presentation_c5_mixed()
    report = run_suite(p, "diagrams", radius=2, depth=3, seed=0)
    assert report.ok
    assert any(r.check_id == "diagrams.gauss-bonnet-sum-is-eight"
               for r in report.results)


# -- aut --------------------------------------------------------------------------


def test_aut_witness_degenerate(tmp_path, capsys):
    path = write_presentation(tmp_path)  # all Z/2: no witness exists
    rc = main(["aut", "--presentation", path, "witness"])
    assert rc == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is True


def test_aut_witness_and_fixator_z3(tmp_path, capsys):
    path = write_presentation(tmp_path, 5, ["Z/3"] * 5)
    rc = main(["aut", "--presentation", path, "witness"])
    assert rc == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is False
    assert len(doc["vertex_sequence"]) == 10

    rc = main(["aut", "--presentation", path, "fixator"])
    assert rc == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["pass"] == 1


def test_aut_fixator_of_generator_is_nontrivial(tmp_path, capsys):
    path = write_presentation(tmp_path, 5, ["Z/3"] * 5)
    rc = main(["aut", "--presentation", path, "fixator", "--element", "v1:1"])
    assert rc == EXIT_FAIL  # the fixator of one syllable is a bigger subgroup
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 1


def test_aut_decompose_roundtrip_via_files(tmp_path, capsys):
    pres = write_presentation(tmp_path, 5, ["Z/2", "Z/3", "Z/2", "Z/3", "Z/2"])
    # images of the inner automorphism by v0:1
    from cyclewall.autgroup import generator_images
    from cyclewall.words import format_word, parse_word
    p = load_presentation(pres)
    a = inner_aut(parse_word(p, "v0:1"))
    images = [[format_word(h) for h in per] for per in generator_images(a)]
    img_path = tmp_path / "images.json"
    img_path.write_text(json.dumps({"images": images}))
    rc = main(["aut", "--presentation", pres, "decompose",
               "--images", str(img_path)])
    assert rc == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["inner"] == "v0:1"
    assert doc["sigma"] == [0, 1, 2, 3, 4]


def test_aut_decompose_reports_failure(tmp_path, capsys):
    pres = write_presentation(tmp_path)
    images = [["v0:1 v2:1"]] + [[f"v{i}:1"] for i in range(1, 5)]
    img_path = tmp_path / "images.json"
    img_path.write_text(json.dumps({"images": images}))
    rc = main(["aut", "--presentation", pres, "decompose",
               "--images", str(img_path)])
    assert rc == EXIT_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert "error" in doc


# -- exit-code contract -------------------------------------------------------------


_ERROR_CASES = {
    "cyclic-without-order": ([{"kind": "cyclic"}] + ["Z/2"] * 4,
                             ["verify", "--suite", "words"]),
    "non-integer-order": ([{"kind": "cyclic", "order": "x"}] + ["Z/2"] * 4,
                          ["verify", "--suite", "words"]),
    "non-integral-order": ([{"kind": "cyclic", "order": 2.5}] + ["Z/2"] * 4,
                           ["reduce", "v0:1"]),
    "infinite-group-in-verify": (["Z"] + ["Z/2"] * 4, ["verify"]),
    # Z/2 x Z/8 as a table: two generators, so the search's order cap holds
    "aut-group-above-cap": ([{"kind": "table", "table": [
        [(a // 8 + b // 8) % 2 * 8 + (a + b) % 8 for b in range(16)] for a in range(16)]}]
        + ["Z/2"] * 4, ["aut", "witness"]),
    "missing-images-file": (["Z/2"] * 5,
                            ["aut", "decompose", "--images", "absent.json"]),
    "broken-images-file": (["Z/2"] * 5,
                           ["aut", "decompose", "--images", "broken.json"]),
    "images-not-a-list": (["Z/2"] * 5,
                          ["aut", "decompose", "--images", "images-int.json"]),
    "images-row-of-ints": (["Z/2"] * 5,
                           ["aut", "decompose", "--images", "images-ints.json"]),
    "negative-depth": (["Z/2"] * 5, ["verify", "--suite", "words", "--depth", "-5"]),
    "negative-radius-without-ball": (["Z/2"] * 5,
                                     ["verify", "--suite", "words", "--radius", "-5"]),
    "images-file-not-utf8": (["Z/2"] * 5,
                             ["aut", "decompose", "--images", "latin1.json"]),
    "images-nested-too-deeply": (["Z/2"] * 5,
                                 ["aut", "decompose", "--images", "deep.json"]),
    "name-not-a-string": ([{"kind": "cyclic", "order": 3, "name": [1]}]
                          + ["Z/2"] * 4, ["reduce", "v0:1"]),
    "cyclic-order-with-space": (["Z/ 3"] + ["Z/2"] * 4, ["reduce", "v0:1"]),
}


def test_aut_witness_on_a_z13_vertex_exits_0(tmp_path, capsys):
    """Aut(Z/13) is the units mod 13, with no search and no order cap."""
    path = write_presentation(tmp_path, 5, ["Z/13"] + ["Z/2"] * 4)
    assert main(["aut", "--presentation", path, "witness"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["degenerate"] is False


def test_aut_witness_on_a_cyclic_table_next_to_z13_exits_0(tmp_path, capsys):
    """Z/13 next to Z/13 given by its table: the table's generating
    sequence is one element, so the isomorphisms between the two are found
    by a search of at most 13 closures, with no order cap."""
    table = {"kind": "table", "table": [[(a + b) % 13 for b in range(13)] for a in range(13)]}
    path = write_presentation(tmp_path, 5, ["Z/13", table, "Z/2", "Z/2", "Z/2"])
    assert main(["aut", "--presentation", path, "witness"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["degenerate"] is False


@pytest.mark.parametrize("case", sorted(_ERROR_CASES))
def test_bad_input_exits_2_without_traceback(case, tmp_path, capsys):
    groups, (command, *rest) = _ERROR_CASES[case]
    path = write_presentation(tmp_path, 5, groups)
    (tmp_path / "broken.json").write_text("{\"images\": [")
    (tmp_path / "images-int.json").write_text("{\"images\": 5}")
    (tmp_path / "images-ints.json").write_text("{\"images\": [[1]]}")
    (tmp_path / "latin1.json").write_bytes(b'{"images": [["v\xe9"]]}')
    (tmp_path / "deep.json").write_text("[" * 100000)
    rest = [str(tmp_path / a) if a.endswith(".json") else a for a in rest]
    rc = main([command, "--presentation", path] + rest)
    err = capsys.readouterr().err
    assert rc == EXIT_RESOURCE
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["ball", "--radius", "1"],
                                     ["verify", "--suite", "words"],
                                     ["aut", "witness"]], ids=lambda c: c[0])
@pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
def test_unwritable_output_exits_2_without_traceback(command, target, tmp_path, capsys):
    path = write_presentation(tmp_path)
    output = tmp_path / "absent" / "x.json" if target == "missing-directory" else tmp_path
    rc = main(command + ["--presentation", path, "--output", str(output)])
    err = capsys.readouterr().err
    assert rc == EXIT_RESOURCE
    assert err.startswith("error: cannot write output file:")
    assert err.count("\n") == 1


def _exhausted(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command, owner, name", [
    (["verify", "--suite", "davis"], davis, "ball_table"),
    (["ball", "--radius", "1"], davis, "ball_table"),
    (["aut", "witness"], cli, "witness_details"),
], ids=["verify", "ball", "aut"])
def test_running_out_of_memory_exits_2_without_traceback(command, owner, name, tmp_path,
                                                         capsys, monkeypatch):
    """A ``MemoryError`` on the run's path ends the run with one error line
    and exit 2, not a traceback and the audit-failure code."""
    monkeypatch.setattr(owner, name, _exhausted)
    path = write_presentation(tmp_path)
    assert main(command + ["--presentation", path]) == EXIT_RESOURCE
    assert capsys.readouterr() == ("", "error: out of memory\n")


_WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None   # any import of networkx now raises ImportError
import cyclewall
from cyclewall.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_verify_all_runs_without_networkx(tmp_path):
    """The package needs nothing beyond the standard library."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = tmp_path / "report.json"
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX, "verify", "--suite", "all",
         "--radius", "2", "--depth", "3", "--seed", "0", "--output", str(out),
         "--presentation", str(root / "perfbench" / "presentations" / "c5_z2.json")],
        env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_PASS, run.stderr
    assert json.loads(out.read_text())["summary"]["fail"] == 0


def test_closed_stdout_exits_2_without_traceback():
    """A reader that stops early (``| head -c 10``) gets one error line and
    exit code 2, not a BrokenPipeError traceback."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclewall.cli", "ball", "--radius", "3", "--subdivide",
         "--presentation", str(root / "perfbench" / "presentations" / "c6_mixed.json")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_RESOURCE
    assert len(head) == 10
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


# -- exit-code fuzz ---------------------------------------------------------------

_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 7),
                          st.floats(allow_nan=False, width=16), st.text(max_size=6))
_json = st.recursive(_json_scalars,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                     max_leaves=8)
_good_group = st.sampled_from(
    ["Z/2", "Z/3", "Z/4", "S3", "s3", " Z/2 ", {"kind": "cyclic", "order": 2},
     {"kind": "table", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}])
_bad_group = st.one_of(
    st.sampled_from(["Z", "Z/1", "Z/0", "Z/-2", "Z/ 3", "Z/x", "Q8", "", "Z/13"]),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["cyclic", "integers", "table", "free"])},
        optional={"order": st.one_of(st.integers(-1, 4), st.just(2.5), st.text(max_size=2)),
                  "table": st.one_of(
                      st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3),
                      _json),
                  "names": _json,
                  "name": st.one_of(st.text(max_size=3), st.integers())}),
    _json)
# mostly well-formed groups, so that most presentations load
_group = st.sampled_from([True] * 12 + [False]).flatmap(
    lambda good: _good_group if good else _bad_group)
_presentation = st.sampled_from([True] * 6 + [False]).flatmap(
    lambda good: st.builds(
        lambda groups, shift: {"n": len(groups) + shift, "groups": groups},
        st.sampled_from([5, 5, 5, 6, 6, 4]).flatmap(
            lambda n: st.lists(_group, min_size=n, max_size=n)),
        st.sampled_from([0] * 6 + [1])) if good else _json)
_token = st.one_of(
    st.builds("v{}:{}".format, st.integers(-1, 7), st.integers(-2, 5)),
    st.text(alphabet="v0123456789:-x ", max_size=5))
_word = st.lists(_token, max_size=6).map(" ".join)
_images = st.one_of(
    st.fixed_dictionaries({"images": st.lists(st.lists(_word, max_size=3), max_size=7)}),
    _json)


@st.composite
def _cli_case(draw):
    """A presentation document, an images document and the rest of an argv."""
    command = draw(st.sampled_from(["reduce", "ball", "verify", "aut"]))
    rest = ["--radius", str(draw(st.sampled_from([-1, 0, 1, 1]))),
            "--depth", str(draw(st.sampled_from([-1, 0, 1, 2, 2]))), "--seed", "0"]
    if command == "reduce":
        rest.append(draw(_word))
    elif command == "ball":
        rest += ["--format", draw(st.sampled_from(["json", "dot"]))]
        rest += ["--subdivide"] if draw(st.booleans()) else []
    elif command == "verify":
        rest += ["--suite", draw(st.sampled_from(
            ["words", "davis", "walls", "algebraic", "aut", "diagrams", "all"]))]
    else:
        action = draw(st.sampled_from(["witness", "fixator", "decompose"]))
        rest.append(action)
        if action == "fixator" and draw(st.booleans()):
            rest += ["--element", draw(_word)]
        if action == "decompose" and draw(st.booleans()):
            rest += ["--images", "IMAGES"]
    rest += draw(st.sampled_from([[]] * len(_TAILS) + _TAILS))
    return draw(_presentation), draw(_images), command, rest


# tails that make most commands a usage error (and a few that are none):
# an unknown option, a missing value, a bad int or choice, an ambiguous or
# attached spelling, a flag given a value, a stray positional and ``--``;
# none names ``--output``, so that no run writes outside its folder
_TAILS = [["--bogus"], ["-x"], ["--radius"], ["--radius", "two"], ["--depth", "--seed"],
          ["--suite", "bogus"], ["--format", "svg"], ["--s", "1"], ["--se=1"],
          ["--subdivide=yes"], ["--images", "-i"], ["extra"], ["--"], ["fixator"]]


@settings(max_examples=200, deadline=None)
@given(case=_cli_case())
def test_any_input_exits_with_a_documented_code(case, tmp_path_factory):
    """Presentation documents, words, image documents and usage errors drawn
    at random, run in process: every run returns 0, 1, 2 or 3, and no
    exception escapes ``main``, ``SystemExit`` included."""
    doc, images, command, rest = case
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "p.json").write_text(json.dumps(doc))
    (folder / "images.json").write_text(json.dumps(images))
    rest = [str(folder / "images.json") if a == "IMAGES" else a for a in rest]
    out, err = io.StringIO(), io.StringIO()
    # a reduce with no word (its word drawn as "--") reads an empty stdin
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO()):
        rc = main([command, "--presentation", str(folder / "p.json"), *rest])
    event(f"{command} exit {rc}")
    assert rc in (0, 1, 2, 3), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()


# -- argument parsing against the argparse oracle ------------------------------------

# texts drawn for each valued option: good ones, bad ones, and ones that
# look like an option (as their own argument, argparse took them for a
# missing value) or do not (a negative number, a space inside)
_VALUES = {
    "presentation": ["p.json", "", "-p"],
    "radius": ["2", "-1", " 3 ", "two", "2.5"],
    "depth": ["3", "0", "-2", "x"],
    "seed": ["0", "+7", "s"],
    "output": ["out.json", "-", "-1", "-1.5", "-o", "--seed", "-o x"],
    "suite": [*cli._SUITES, "bogus", "ALL"],
    "format": ["json", "dot", "svg"],
    "images": ["i.json", "-i"],
    "element": ["v1:1", "", "-x", "v0:1 v2:1"],
}
_POSITIONALS = ["v1:1", "v0:1 v2:1", "", "-", "witness", "fixator", "decompose", "bogus"]


@st.composite
def _spelled_option(draw):
    """A valued option, the flag or a stray token, as a list of arguments:
    the name in full or cut to any prefix (unique, ambiguous or another
    command's), the value as its own argument or after ``=``."""
    kind = draw(st.sampled_from(["value"] * 6 + ["flag", "stray"]))
    if kind == "stray":
        return [draw(st.sampled_from(["--bogus", "-x", "-p", "--subdivide=yes"]))]
    name = "subdivide" if kind == "flag" else draw(st.sampled_from(sorted(_VALUES)))
    spelled = "--" + name[:draw(st.integers(1, len(name)))] if draw(st.booleans()) \
        else "--" + name
    if kind == "flag":
        return [spelled]
    text = draw(st.sampled_from(_VALUES[name]))
    return [f"{spelled}={text}"] if draw(st.booleans()) else [spelled, text]


@st.composite
def _usage_case(draw):
    """An argv: a command, an unknown one or none; options in any spelling
    and order, repeated or left out, ``--presentation`` too; a run of
    positionals at any place, or after ``--`` at the end, and maybe a
    second run; and maybe an option missing its value at the very end."""
    command = draw(st.sampled_from(["reduce", "ball", "verify", "aut", "bogus", None]))
    items = draw(st.lists(_spelled_option(), max_size=5))
    if draw(st.sampled_from([True] * 4 + [False])):
        items.insert(draw(st.integers(0, len(items))), ["--presentation", "p.json"])
    dashes = False   # one ``--`` at most
    for run in draw(st.lists(st.lists(st.sampled_from(_POSITIONALS), min_size=1, max_size=2),
                             max_size=draw(st.sampled_from([1] * 4 + [2])))):
        if command and not dashes and draw(st.booleans()):
            items.append(["--", *run])
            dashes = True
        else:
            items.insert(draw(st.integers(0, len(items))), run)
    items.append(draw(st.sampled_from([[]] * 6 + [["--radius"], ["--output"], ["--suite"]])))
    return [command] * bool(command) + [a for item in items for a in item]


def _oracle(argv):
    """argparse's namespace for argv as a dict, or its exit code, with
    what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(build_parser().parse_args(argv)), ""
        except SystemExit as exc:
            return exc.code, err.getvalue()


def _gathered(args) -> list[str]:
    """An argv that gives ``args``: its command, each option set as
    ``--name=value``, each flag set, then ``--`` and its positionals, if
    it has any."""
    fields = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    words = [fields.pop("action")] if "action" in fields else fields.pop("word", [])
    return [args.command, *(f"--{k}" if v is True else f"--{k}={v}"
                            for k, v in fields.items() if v is not None and v is not False),
            *(["--", *words] if words else [])]


def _agrees_with_the_oracle(argv):
    """Where the argparse parser the CLI used to build accepts argv,
    ``_parse_args`` gives the same command, handler and value for every
    field; where it exits 2, ``_parse_args`` raises ``ValidationError`` and
    ``main`` returns 2 with one ``error:`` line and no traceback.

    Two differences are by design.  ``getopt`` takes positionals, and
    ``--``, anywhere among the options; argparse took them from one run of
    arguments only and refused the others as unrecognized arguments, where
    gathering the positionals after the options gives the same values.  argparse took an argument that starts with
    ``-`` but names no option and is a negative number or holds a space as
    a positional; ``getopt`` reads it as an option and refuses it.  No word
    and no ``aut`` action starts with ``-``, so such a run exited 2 before
    too."""
    want, message = _oracle(argv)
    try:
        got = cli._parse_args(argv)
    except ValidationError:
        got = None
    if isinstance(want, dict) and got is None:
        dashed = [w for w in want.get("word", []) if w[:1] == "-"]
        assert dashed, argv
        with pytest.raises(ValidationError):
            parse_word(presentation_c5_z2(), dashed[0])
    elif isinstance(want, dict):
        assert vars(got) == want, argv
    elif got is not None:
        assert want == 2 and "unrecognized arguments" in message, (argv, message)
        assert _oracle(_gathered(got)) == (vars(got), "")
    else:
        assert want == 2, argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == EXIT_RESOURCE
        out, err = out.getvalue(), err.getvalue()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err


@settings(max_examples=400, deadline=None)
@given(argv=st.one_of(_usage_case(), _cli_case().map(
    lambda case: [case[2], "--presentation", "p.json", *case[3]])))
def test_parse_args_agrees_with_the_argparse_oracle(argv):
    """Argvs drawn from the exit-code fuzz cases and from usage cases agree
    with the argparse oracle (``_agrees_with_the_oracle``)."""
    want, _ = _oracle(argv)
    event("oracle accepts" if isinstance(want, dict) else f"oracle exits {want}")
    _agrees_with_the_oracle(argv)


@pytest.mark.parametrize("command", [["reduce"], ["reduce", "v1:1"], ["ball"], ["verify"],
                                     ["aut", "witness"], ["aut", "fixator"], ["aut", "decompose"]],
                         ids=" ".join)
def test_every_option_value_agrees_with_the_oracle(command):
    """Each command, given only ``--presentation`` (and its positional), and
    then any one of the texts drawn for any option (or the flag), as its
    own argument or after ``=``, agrees with the argparse oracle: it gets
    the same defaults and values, or is refused."""
    head = [command[0], "--presentation", "p", *command[1:]]
    cases = [head] + [head + ["--subdivide"]] + [
        head + spelled for name, texts in _VALUES.items() for text in texts
        for spelled in ([f"--{name}", text], [f"--{name}={text}"])]
    for argv in cases:
        _agrees_with_the_oracle(argv)


@pytest.mark.parametrize("argv", [
    ["reduce", "--presentation", "P", "--", "-1"],
    ["reduce", "--presentation", "P", "-1"],
    ["reduce", "--presentation", "P", "-x y"],
], ids=["after-dashes", "negative-number", "with-a-space"])
def test_a_word_that_starts_with_a_dash_exits_2(argv, capsys):
    """Read as a word (after ``--``, as argparse read them all) or as an
    option, a word that starts with ``-`` ends the run with exit 2."""
    path = str(Path(__file__).resolve().parent.parent / "perfbench" / "presentations"
               / "c5_z2.json")
    assert main([path if a == "P" else a for a in argv]) == EXIT_RESOURCE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_words_may_come_on_either_side_of_an_option(tmp_path, capsys):
    """``getopt`` takes positionals anywhere among the options, so
    ``reduce`` reads words split by an option (argparse refused the words
    after the option as unrecognized arguments)."""
    path = write_presentation(tmp_path)
    assert main(["reduce", "v1:1 v2:1 v1:1", "--presentation", path, "v2:1 v2:1"]) \
        == EXIT_PASS
    assert capsys.readouterr().out.splitlines() == ["v2:1", ""]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], ["-h", "verify"],
                                  ["verify", "-h"], ["aut", "--help", "--radius", "two"],
                                  ["ball", "--presentation", "p", "--h"]],
                         ids=lambda argv: " ".join(argv))
def test_help_prints_the_usage_and_exits_0(argv, capsys):
    """``-h``, ``--help`` or a prefix of it, before a command or after, is
    read before a later usage error and prints the usage off the command
    table: every command's, or the one it follows."""
    assert main(argv) == EXIT_PASS
    out, err = capsys.readouterr()
    named = argv[:1] if argv[0] in cli._COMMANDS else []
    assert err == "" and out.startswith("usage: cyclewall")
    for command in named or cli._COMMANDS:
        assert f"\n  cyclewall {command} --presentation=PRESENTATION --radius=2 --depth=3 " \
               "--seed=0 --output=OUTPUT" in out
    assert out.count("\n  cyclewall ") == len(named or cli._COMMANDS)
    if "verify" in argv:
        assert " --suite=all|words|davis|walls|algebraic|aut|diagrams\n" in out


@pytest.mark.parametrize("argv, message", [
    ([], "the first argument is a command: reduce, ball, verify, aut"),
    (["bogus"], "the first argument is a command: reduce, ball, verify, aut"),
    (["verify", "--radius", "two", "--presentation", "p"],
     "argument --radius: invalid value: 'two'"),
    (["verify", "--presentation", "p", "--suite", "bogus"],
     "argument --suite: invalid value: 'bogus' (choose from words, davis, walls, "
     "algebraic, aut, diagrams, all)"),
    (["verify", "--presentation", "p", "--s", "1"], "option --s not a unique prefix"),
    (["verify", "--presentation", "p", "--bogus"], "option --bogus not recognized"),
    (["verify", "--presentation", "p", "--radius"], "option --radius requires argument"),
    (["verify", "--presentation", "p", "--output", "--seed"],
     "argument --output: expected one argument"),
    (["verify", "--radius", "1"], "the following arguments are required: --presentation"),
    (["aut", "--presentation", "p"], "the following arguments are required: action"),
    (["aut", "--presentation", "p", "witness", "fixator"], "unrecognized arguments: fixator"),
    (["verify", "--presentation", "p", "--", "x"], "unrecognized arguments: x"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_a_usage_error_is_one_error_line_and_exit_2(argv, message, capsys):
    assert main(argv) == EXIT_RESOURCE
    assert capsys.readouterr() == ("", f"error: {message}\n")
