import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsehom.cli import build_parser, dispatch, load_workspace, main, parse_workspace

FIXTURE = "fixtures/c2_workspace.json"


def run_cli(argv):
    out = io.StringIO()
    parser = build_parser()
    args = parser.parse_args(argv)
    rc = dispatch(args, out)
    return rc, out.getvalue()


def test_fixture_workspace_parses_and_validates():
    ws = load_workspace(FIXTURE)
    assert set(ws.spans) == {"tr", "iota_proj", "iota_collapse"}
    assert set(ws.squares) == {"identity_square"}


def test_empty_document_gives_empty_workspace():
    ws = parse_workspace({"schema": 1})
    assert not ws.spaces and not ws.groups


def test_unknown_reference_names_pointer():
    from coarsehom.errors import ValidationError

    doc = {"schema": 1, "groups": {"g": {"preset": "C2"}}, "gsets": {"a": {"group": "nope", "trivial": 1}}}
    with pytest.raises(ValidationError) as err:
        parse_workspace(doc)
    assert "/gsets/a/group" in str(err.value)


def test_missing_schema_rejected():
    from coarsehom.errors import ValidationError

    with pytest.raises(ValidationError) as err:
        parse_workspace({})
    assert "/schema" in str(err.value)


def test_homology_subcommand_table():
    rc, out = run_cli(["homology", FIXTURE, "--name", "Y"])
    assert rc == 0
    assert "degree" in out and "torsion" in out


def test_homology_subcommand_json():
    rc, out = run_cli(["homology", FIXTURE, "--name", "Y", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["degrees"][0] == {"degree": 0, "rank": 2, "torsion": []}


def test_homology_of_tape_is_out_of_scope():
    rc = main(["homology", FIXTURE, "--name", "T"])
    assert rc == 3


def test_validation_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 1, "spaces": {"X": {"gset": "missing"}}}')
    rc = main(["homology", str(bad)])
    assert rc == 2


def test_json_syntax_error_exit_code(tmp_path):
    bad = tmp_path / "syntax.json"
    bad.write_text("{nope")
    rc = main(["homology", str(bad)])
    assert rc == 2


def test_workspace_not_utf8_exit_code(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff{")
    rc = main(["homology", str(bad)])
    assert rc == 2
    assert "JSON syntax error" in capsys.readouterr().err


def test_check_covering_subcommand():
    rc, out = run_cli(["check-covering", FIXTURE, "--name", "proj", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["ok"] is True
    rc, out = run_cli(["check-covering", FIXTURE, "--name", "tape_proj", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "name, diag",
    [("proj_max", "covering candidate is not controlled"), ("tape_twist", "tape map is not controlled")],
)
def test_uncontrolled_covering_candidate_is_a_fail_row(capsys, name, diag):
    rc = main(["check-covering", "fixtures/c2_failures.json", "--name", name, "--format", "json"])
    out = capsys.readouterr()
    assert rc == 0 and out.err == ""
    report = json.loads(out.out)
    assert report["ok"] is False and report["diagnostic"] == diag
    assert report["rows"][0][3] == "FAIL"


def test_check_square_subcommand():
    rc, out = run_cli(["check-square", FIXTURE, "--format", "json"])
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_compose_subcommand():
    rc, out = run_cli(
        ["compose", FIXTURE, "--left", "tr", "--right", "iota_proj", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["apex_size"] == 4


def test_check_axioms_subcommand():
    rc, out = run_cli(["check-axioms", FIXTURE, "--name", "Y", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_check_axioms_flasque_witness():
    rc, out = run_cli(
        ["check-axioms", FIXTURE, "--name", "T", "--witness", "shift", "--format", "json"]
    )
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_mackey_table_subcommand():
    rc, out = run_cli(["mackey-table", FIXTURE, "--group", "c2", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2


def test_assembly_subcommand():
    rc, out = run_cli(
        ["assembly", FIXTURE, "--group", "c2", "--family", "triv", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["injective"] is True
    assert payload["split"] is False
    assert payload["label"] == "empirical"


def test_fuzz_subcommand_deterministic_summary():
    rc1, out1 = run_cli(["fuzz", "--seed", "3", "--cases", "8", "--format", "json"])
    rc2, out2 = run_cli(["fuzz", "--seed", "3", "--cases", "8", "--format", "json"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert all(r["fail"] == 0 for r in payload["results"])


def test_csv_format():
    rc, out = run_cli(["homology", FIXTURE, "--name", "Y", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,rank,torsion"


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", FIXTURE, "--name", "Y", "--format", "json"],
        ["check-axioms", FIXTURE, "--name", "Y", "--format", "json"],
        ["fuzz", "--seed", "5", "--cases", "6", "--format", "json"],
    ],
)
def test_subprocess_byte_reproducibility(argv):
    cmd = [sys.executable, "-m", "coarsehom.cli"] + argv
    a = subprocess.run(cmd, capture_output=True, cwd=".")
    b = subprocess.run(cmd, capture_output=True, cwd=".")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_run_subcommand_executes_tasks_in_order():
    rc, out = run_cli(["run", FIXTURE])
    assert rc == 0
    assert out.index("task 0: homology") < out.index("task 1: check-covering")
    assert out.index("task 2: check-square") < out.index("task 3: assembly")


def test_family_from_file(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text("[[0]]")  # the trivial subgroup generates the trivial family
    rc, out = run_cli(
        ["assembly", FIXTURE, "--group", "c2", "--family", str(fam), "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["injective"] is True and payload["split"] is False


def test_check_axioms_on_space_with_permuted_components():
    # the free C2 pair has its two components swapped by the action; the
    # auto-built excision pair must still be invariant
    rc, out = run_cli(["check-axioms", FIXTURE, "--name", "X", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_random_space_schema_roundtrip():
    from random import Random

    from coarsehom.homology import homology
    from coarsehom.randgen import FuzzConfig, random_space

    rng = Random(55)
    for _ in range(6):
        X = random_space(rng, FuzzConfig(max_points=6, max_component=3))
        doc = {
            "schema": 1,
            "groups": {"g": {"table": [list(r) for r in X.group.table]}},
            "gsets": {"s": {"group": "g", "action": [list(r) for r in X.carrier.action]}},
            "spaces": {
                "X": {
                    "gset": "s",
                    "coarse": {
                        "generators": [
                            [list(p) for p in sorted(X.coarse.closure_entourage())]
                        ]
                    },
                }
            },
        }
        ws = parse_workspace(doc)
        assert homology(ws.spaces["X"], 2).degrees == homology(X, 2).degrees
        assert ws.spaces["X"].coarse == X.coarse


def test_parse_rejects_bad_action_table():
    from coarsehom.errors import ValidationError

    doc = {
        "schema": 1,
        "groups": {"g": {"preset": "C2"}},
        "gsets": {"s": {"group": "g", "action": [[0, 1], [1, 1]]}},  # not an action
    }
    with pytest.raises(ValidationError) as err:
        parse_workspace(doc)
    assert "/gsets/s" in str(err.value)


def test_check_axioms_on_empty_space(tmp_path):
    doc = {
        "schema": 1,
        "groups": {"g": {"preset": "trivial"}},
        "gsets": {"s": {"group": "g", "trivial": 0}},
        "spaces": {"E": {"gset": "s", "coarse": {"preset": "minimal"}}},
    }
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(doc))
    rc, out = run_cli(["check-axioms", str(p), "--format", "json"])
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_point_homology_task(tmp_path):
    doc = {
        "schema": 1,
        "groups": {"g": {"preset": "trivial"}},
        "gsets": {"s": {"group": "g", "trivial": 1}},
        "spaces": {"pt": {"gset": "s", "coarse": {"preset": "minimal"}}},
        "tasks": [{"op": "homology", "name": "pt", "max_degree": 1}],
    }
    p = tmp_path / "pt.json"
    p.write_text(json.dumps(doc))
    rc, out = run_cli(["run", str(p)])
    assert rc == 0
    assert "0       1     -" in out or "0  1  -" in out.replace("   ", "  ")


@pytest.mark.parametrize(
    "argv",
    [
        ["mackey-table", FIXTURE, "--max-degree", "-1"],
        ["homology", FIXTURE, "--name", "Y", "--max-degree", "-1"],
        ["induced-map", FIXTURE, "--name", "tr", "--max-degree", "-1"],
        ["check-axioms", FIXTURE, "--name", "Y", "--max-degree", "-1"],
        ["assembly", FIXTURE, "--group", "c2", "--degree", "-1"],
    ],
)
def test_negative_degree_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a non-negative integer, got -1" in captured.err


@pytest.mark.parametrize(
    "task",
    [
        {"op": "mackey-table", "group": "c2", "max_degree": -1},
        {"op": "assembly", "group": "c2", "degree": -1},
    ],
)
def test_negative_degree_in_run_task_rejected(tmp_path, task):
    with open(FIXTURE) as fh:
        doc = json.load(fh)
    doc["tasks"] = [doc["tasks"][0], task]
    p = tmp_path / "negative.json"
    p.write_text(json.dumps(doc))
    cmd = [sys.executable, "-m", "coarsehom.cli", "run", str(p)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=".")
    assert proc.returncode == 2
    assert proc.stdout == ""  # rejected before the valid first task runs
    assert "must be a non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stderr


with open(FIXTURE) as _fh:
    FIXTURE_DOC = json.load(_fh)


def _with(path, value):
    """The fixture document with the node at ``path`` replaced by ``value``."""
    doc = copy.deepcopy(FIXTURE_DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "command, doc, pointer",
    [
        ("run", [1, 2], "/: document must be a JSON object"),
        ("homology", [1, 2], "/: document must be a JSON object"),
        ("homology", {"schema": 1, "groups": [1, 2]}, "/groups: must be a JSON object"),
        ("homology", _with(["maps"], "idX"), "/maps: must be a JSON object"),
        ("homology", _with(["gsets", "pts3"], 5), "/gsets/pts3: must be a JSON object"),
        ("run", _with(["tasks"], 5), "/tasks: must be a JSON array"),
        ("run", _with(["tasks"], [5]), "/tasks/0: must be a JSON object"),
        ("run", _with(["tasks", 1], {"name": "Y"}), "/tasks/1: must be a JSON object with a string 'op'"),
        ("run", _with(["tasks", 0, "op"], "run"), "/tasks/0/op: a task cannot run the task list"),
        ("homology", _with(["gsets", "pts3"], {"group": "c2", "cosets_of": [0, 99]}), "/gsets/pts3: coset space"),
        ("homology", _with(["gsets", "pts3", "trivial"], -1), "/gsets/pts3: a G-set cannot have negative size"),
        ("homology", _with(["spaces", "X", "coarse"], "minimal"), "/spaces/X: coarse must be a JSON object"),
        ("homology", _with(["spaces", "T", "tape"], 5), "/spaces/T: tape must be a JSON object"),
        ("homology", _with(["maps", "idX", "images"], [0, 7]), "/maps/idX: map idX is not equivariant"),
        ("homology", _with(["maps", "idX", "dst"], "T"), "/maps/idX/dst: a map from a finite space"),
        ("check-square", _with(["squares", "identity_square", "W"], "T"), "/squares/identity_square"),
        # integer fields take JSON integers only: no booleans, floats or numeric strings
        ("homology", _with(["groups", "c2"], {"table": [[0, 1], [1, False]]}), "/groups/c2/table/1/1: must be a JSON integer, got false"),
        ("homology", _with(["gsets", "pts3", "trivial"], 3.7), "/gsets/pts3/trivial: must be a JSON integer, got 3.7"),
        ("homology", _with(["gsets", "pts3"], {"group": "c2", "cosets_of": [0, True]}), "/gsets/pts3/cosets_of/1: must be a JSON integer, got true"),
        ("homology", _with(["gsets", "free2", "action"], [[0, True], [True, 0]]), "/gsets/free2/action/0/1: must be a JSON integer, got true"),
        ("homology", _with(["spaces", "Y", "coarse", "generators"], [[[0, "1"]]]), '/spaces/Y/coarse/generators/0/0/1: must be a JSON integer, got "1"'),
        ("check-covering", _with(["maps", "proj", "images"], [0, True, 0, True]), "/maps/proj/images/1: must be a JSON integer, got true"),
        ("homology", _with(["maps", "shift", "fiber_images"], [0, 1, 2.0]), "/maps/shift/fiber_images/2: must be a JSON integer, got 2.0"),
        ("homology", _with(["maps", "shift", "shift"], True), "/maps/shift/shift: must be a JSON integer, got true"),
        # task options: integer ones take JSON integers, the others JSON strings
        ("run", _with(["tasks", 0, "max_degree"], "1"), '/tasks/0/max_degree: must be a JSON integer, got "1"'),
        ("run", _with(["tasks", 0, "max_degree"], True), "/tasks/0/max_degree: must be a JSON integer, got true"),
        ("run", _with(["tasks", 0, "max_degree"], 1.5), "/tasks/0/max_degree: must be a JSON integer, got 1.5"),
        ("run", _with(["tasks", 0, "max_degree"], [1]), "/tasks/0/max_degree: must be a JSON integer, got [1]"),
        ("run", _with(["tasks", 3, "degree"], "0"), '/tasks/3/degree: must be a JSON integer, got "0"'),
        ("run", _with(["tasks", 0, "name"], 5), "/tasks/0/name: must be a JSON string, got 5"),
    ],
)
def test_malformed_workspace_exits_2_with_pointer(tmp_path, capsys, command, doc, pointer):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    rc = main([command, str(p)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert pointer in captured.err


@pytest.mark.parametrize("argv", [["run"], ["induced-map", "--name", "tape_tr"]])
def test_tape_apex_span_exits_2_with_pointer(tmp_path, capsys, argv):
    """Spans live on finite carriers: a tape apex is rejected where the
    workspace is read, although its legs are a covering and a proper map."""
    doc = _with(["maps", "tbd_id"], {"src": "Tbd", "dst": "Tbd", "kind": "shift", "shift": 0, "fiber_images": [0, 1, 2]})
    doc["spans"]["tape_tr"] = {"src": "Y", "apex": "Tbd", "dst": "Tbd", "left": "tape_proj", "right": "tbd_id"}
    p = tmp_path / "tape_apex.json"
    p.write_text(json.dumps(doc))
    rc = main([argv[0], str(p), *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "/spans/tape_tr/apex: a span apex must be a finite space" in captured.err


def test_run_parses_the_workspace_once(monkeypatch):
    import coarsehom.cli as cli

    calls = []
    real = cli.parse_workspace
    monkeypatch.setattr(cli, "parse_workspace", lambda doc: calls.append(1) or real(doc))
    rc, out = run_cli(["run", FIXTURE])
    assert rc == 0 and out.count("== task") == 4
    assert len(calls) == 1


_LEAVES = st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(
    ["", "c2", "C2", "X", "Y", "T", "W", "idX", "proj", "minimal", "band", "shift", "homology", "run"]
)
_KEYS = st.sampled_from(
    ["op", "name", "preset", "table", "group", "trivial", "cosets_of", "action", "gset", "coarse",
     "generators", "tape", "fiber", "images", "src", "dst", "apex", "left", "right", "kind",
     "shift", "fiber_images", "max_degree", "W", "f", "tasks", "groups", "spaces"]
)
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_malformed_documents_never_trace_back(data):
    """Replace one node of the fixture (possibly the whole document) by a
    small JSON value: every command exits in {0, 2, 3, 4} without a
    traceback."""
    doc = copy.deepcopy(FIXTURE_DOC)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    value = data.draw(_JSON)
    if parent is None:
        doc = value
    else:
        parent[key] = value
    command = data.draw(st.sampled_from(["run", "homology", "check-square", "compose"]))
    argv = [command] + (["--left", "tr", "--right", "iota_proj"] if command == "compose" else [])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv[:1] + [path] + argv[1:])
            except SystemExit as e:  # argparse rejects a task's arguments
                rc = e.code
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.mark.parametrize("command", ["assembly", "mackey-table"])
@pytest.mark.parametrize("content", ["[1, 2]", "[[0, 99]]", "[[[1]]]", "[[0, 0.5]]", "[[0, true]]", "\udcff["])
def test_malformed_family_file_exits_2(tmp_path, capsys, command, content):
    p = tmp_path / "family.json"
    p.write_bytes(content.encode("utf-8", "surrogateescape"))
    rc = main([command, FIXTURE, "--group", "c2", "--family", str(p)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("validation error:")


@pytest.mark.parametrize("cases", ["-3", "0"])
def test_nonpositive_fuzz_cases_rejected_at_parse_time(capsys, cases):
    with pytest.raises(SystemExit) as err:
        main(["fuzz", "--cases", cases])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"must be a positive integer, got {cases}" in captured.err


_FAMILY = "@family"  # stands for the path of a generated family file
_DEGREES = st.sampled_from(["0", "1", "2"]) | st.sampled_from(["-1", "-7", "1.5", "x", ""])
_FAMILIES = st.just(_FAMILY) | st.sampled_from(["all", "sol", "triv", "none"])
_GROUPS = st.just("c2") | st.sampled_from(["C2", "nope"])
_FAMILY_FILES = st.one_of(
    st.sampled_from(
        ["[1, 2]", "[[0, 99]]", "[[[1]]]", "[[0, 1]]", "[[0]]", "[]", "[[]]", "{}", "[[0, 1.5]]", "nul"]
    ),
    st.recursive(
        st.integers(-2, 3) | st.booleans() | st.none(), lambda kids: st.lists(kids, max_size=3), max_leaves=5
    ).map(json.dumps),
    # raw bytes, kept as surrogate escapes so that invalid UTF-8 survives
    st.binary(max_size=6).map(lambda b: b.decode("utf-8", "surrogateescape")),
)
_NAMES = st.sampled_from(
    ["X", "Y", "W", "T", "Tbd", "tr", "iota_proj", "iota_collapse", "proj", "shift", "identity_square", "nope", ""]
)
_ARGV = st.one_of(
    st.tuples(
        st.just("assembly"),
        st.tuples(st.just("--group"), _GROUPS, st.just("--family"), _FAMILIES, st.just("--degree"), _DEGREES),
    ),
    st.tuples(
        st.just("mackey-table"),
        st.tuples(st.just("--group"), _GROUPS, st.just("--family"), _FAMILIES, st.just("--max-degree"), _DEGREES),
    ),
    st.tuples(st.just("homology"), st.tuples(st.just("--name"), _NAMES, st.just("--max-degree"), _DEGREES)),
    st.tuples(st.just("induced-map"), st.tuples(st.just("--name"), _NAMES, st.just("--max-degree"), _DEGREES)),
    st.tuples(st.just("check-axioms"), st.tuples(st.just("--name"), _NAMES, st.just("--max-degree"), _DEGREES)),
    st.tuples(st.just("check-axioms"), st.tuples(st.just("--name"), _NAMES, st.just("--witness"), _NAMES)),
    st.tuples(st.just("check-covering"), st.tuples(st.just("--name"), _NAMES)),
    st.tuples(st.just("check-square"), st.tuples(st.just("--name"), _NAMES)),
    st.tuples(st.just("compose"), st.tuples(st.just("--left"), _NAMES, st.just("--right"), _NAMES)),
    st.tuples(
        st.just("fuzz"),
        st.tuples(
            st.just("--cases"),
            st.sampled_from(["1", "2", "0", "-3", "x", "1.5"]),
            st.just("--seed"),
            st.sampled_from(["0", "-5", "7", "y"]),
            st.just("--suite"),
            st.sampled_from(["all", "spans", "chains", "axioms", "mackey", "nope"]),
        ),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_ARGV, st.sampled_from(["table", "json", "csv", "xml"]), _FAMILY_FILES)
@example(("assembly", ("--group", "c2", "--family", _FAMILY, "--degree", "0")), "json", "[1, 2]")
@example(("mackey-table", ("--group", "c2", "--family", _FAMILY, "--max-degree", "0")), "table", "[[0, 99]]")
def test_command_lines_never_trace_back(argv, fmt, family_text):
    """Any subcommand with any flag values exits in {0, 2, 3, 4}
    without a traceback; a family file holds arbitrary text."""
    command, flags = argv
    with tempfile.TemporaryDirectory() as tmp:
        family_path = os.path.join(tmp, "family.json")
        with open(family_path, "wb") as fh:
            fh.write(family_text.encode("utf-8", "surrogateescape"))
        flags = [family_path if f == _FAMILY else f for f in flags]
        full = [command] + ([] if command == "fuzz" else [FIXTURE]) + flags + ["--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(full)
            except SystemExit as e:  # argparse rejects the arguments
                rc = e.code
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in out.getvalue() + err.getvalue()
