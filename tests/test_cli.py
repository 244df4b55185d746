import io
import json
import subprocess
import sys

import pytest

from coarsehom.cli import build_parser, load_workspace, main, parse_workspace

FIXTURE = "fixtures/c2_workspace.json"


def run_cli(argv):
    out = io.StringIO()
    parser = build_parser()
    args = parser.parse_args(argv)
    rc = args.fn(args, out)
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


def test_check_covering_subcommand():
    rc, out = run_cli(["check-covering", FIXTURE, "--name", "proj", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["ok"] is True
    rc, out = run_cli(["check-covering", FIXTURE, "--name", "tape_proj", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["ok"] is True


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


def test_threads_do_not_change_output():
    rc1, out1 = run_cli(["fuzz", "--seed", "9", "--cases", "10", "--format", "json", "--threads", "1"])
    rc8, out8 = run_cli(["fuzz", "--seed", "9", "--cases", "10", "--format", "json", "--threads", "8"])
    assert rc1 == rc8 == 0
    assert out1 == out8


def test_run_subcommand_executes_tasks_in_order():
    rc, out = run_cli(["run", FIXTURE])
    assert rc == 0
    assert out.index("task 0: homology") < out.index("task 1: check-covering")
    assert out.index("task 2: check-square") < out.index("task 3: assembly")


def test_run_subcommand_thread_independent():
    rc1, out1 = run_cli(["run", FIXTURE, "--threads", "1"])
    rc8, out8 = run_cli(["run", FIXTURE, "--threads", "8"])
    assert rc1 == rc8 == 0
    assert out1 == out8


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
