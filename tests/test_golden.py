"""Golden CLI reports: each command runs through ``cli.dispatch`` and its
stdout must equal the stored report byte for byte.

The reports in ``tests/golden/`` were captured before the chain layer
moved to canonical tuples; the failed covering and square checks were
captured before the span predicates moved to block labels, apart from
``check_covering_uncontrolled.txt``, which records an uncontrolled
candidate as a FAIL row (it used to exit with a validation error).  A
change that moves one on purpose rewrites it with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import io
import os
import sys

import pytest

from coarsehom.cli import build_parser, dispatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
FIXTURE = os.path.join(ROOT, "fixtures", "c2_workspace.json")
FAILURES = os.path.join(ROOT, "fixtures", "c2_failures.json")

COMMANDS = {
    "run.txt": ["run", FIXTURE],
    "induced_map_tr.json": ["induced-map", FIXTURE, "--name", "tr", "--format", "json"],
    "induced_map_iota_collapse.json": [
        "induced-map", FIXTURE, "--name", "iota_collapse", "--format", "json",
    ],
    "mackey_table.json": ["mackey-table", FIXTURE, "--max-degree", "2", "--format", "json"],
    "assembly_c2_triv.json": [
        "assembly", FIXTURE, "--group", "c2", "--family", "triv", "--format", "json",
    ],
    "homology_Y.txt": ["homology", FIXTURE, "--name", "Y"],
    "check_axioms_Y.txt": ["check-axioms", FIXTURE, "--name", "Y"],
    "check_axioms_T_shift.txt": ["check-axioms", FIXTURE, "--name", "T", "--witness", "shift"],
    "check_covering_collapse.txt": ["check-covering", FIXTURE, "--name", "collapse"],
    "check_square_twisted.txt": ["check-square", FAILURES, "--name", "twisted_square"],
    "check_covering_uncontrolled.txt": ["check-covering", FAILURES, "--name", "proj_max"],
    "fuzz_all.json": ["fuzz", "--suite", "all", "--seed", "0", "--cases", "50", "--format", "json"],
}


def report(argv):
    """(exit code, stdout) of one command."""
    out = io.StringIO()
    rc = dispatch(build_parser().parse_args(argv), out)
    return rc, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_report_is_byte_identical(name):
    rc, text = report(COMMANDS[name])
    assert rc == 0
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        assert text == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in sorted(COMMANDS.items()):
        rc, text = report(argv)
        if rc != 0:
            sys.exit(f"{name}: exit {rc}")
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {name} ({len(text)} bytes)")
