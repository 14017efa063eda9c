"""CLI surface: subcommands, exit codes, NDJSON schema, determinism."""

import argparse
import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from coweights import (
    Family, GroupKind, LeviShape, Sector, SweepConfig, cli, coweight, oracle, sweep,
)
from coweights.oracle import sweep_instances


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "coweights", *args],
        capture_output=True,
        text=True,
    )


def ndjson(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestCheck:
    def test_true_verdict_exits_zero(self):
        proc = run_cli("check", "--family", "B", "--mu", "2,0,0", "--x", "1,1,0")
        assert proc.returncode == 0
        assert "verdict: ok" in proc.stdout

    def test_class_mismatch_exits_one(self):
        proc = run_cli("check", "--family", "A", "--mu", "1,0", "--x", "2,0")
        assert proc.returncode == 1
        assert "MISMATCH" in proc.stdout

    def test_malformed_vector_exits_two(self):
        proc = run_cli("check", "--family", "A", "--mu", "1,a", "--x", "1,0")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_non_dominant_mu_exits_two(self):
        proc = run_cli("check", "--family", "A", "--mu", "0,1", "--x", "1,0")
        assert proc.returncode == 2

    def test_rational_x_skips_class(self):
        proc = run_cli(
            "check", "--family", "B", "--mu", "2,0,0", "--x", "3/2,1/2,0",
            "--format", "json",
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["class_match"] is None
        assert record["leq"] is True
        assert record["in_hull"] is True

    def test_inequality_members_listed(self):
        proc = run_cli(
            "check", "--family", "D", "--mu", "2,0", "--x", "1,1",
            "--format", "json",
        )
        record = json.loads(proc.stdout)
        labels = [m["label"] for m in record["inequalities"]]
        assert labels == ["S_1-x_2", "S_2"]
        assert record["ok"] is True

    @pytest.mark.parametrize("family, mu, x, rows", [
        ("D", "3,2,1,-1", "2,2,1,1/2", [
            ("S_1", 2, 3, "<=", True), ("S_2", 4, 5, "<=", True),
            ("S_3-x_4", "9/2", 7, "<=", True), ("S_4", "11/2", 5, "<=", False),
        ]),
        ("A", "2,1,0", "3/2,1,1/2", [
            ("S_1", "3/2", 2, "<=", True), ("S_2", "5/2", 3, "<=", True),
            ("S_3", 3, 3, "==", True),
        ]),
        ("A", "2,1,0", "3,0,1", [
            ("S_1", 3, 2, "<=", False), ("S_2", 3, 3, "<=", True),
            ("S_3", 4, 3, "==", False),
        ]),
    ])
    def test_inequality_rows(self, family, mu, x, rows):
        """Each row's label, both sides, relation and verdict: family D
        replaces row n-1 by S_{n-1}-x_n, and family A's row n is ``==``."""
        proc = run_cli(
            "check", "--family", family, "--mu", mu, "--x", x, "--format", "json",
        )
        record = json.loads(proc.stdout)
        assert [
            (m["label"], m["lhs"], m["rhs"], m["relation"], m["ok"])
            for m in record["inequalities"]
        ] == rows
        assert record["leq"] is all(row[-1] for row in rows)

    @pytest.mark.parametrize("family, mu, x, class_match, code", [
        ("B", "2,0,0", "2/2,0,0", False, 1),
        ("B", "2,0,0", "1,0,0", False, 1),
        ("B", "2,0,0", "2/2,1,0", True, 0),
        ("A", "1,0", "2/2,0", True, 0),
    ])
    def test_integer_written_as_fraction(self, family, mu, x, class_match, code):
        """An integral entry written as a fraction is still an integer: the
        class comparison runs as for the plain integer."""
        proc = run_cli(
            "check", "--family", family, "--mu", mu, "--x", x, "--format", "json",
        )
        assert proc.returncode == code, proc.stderr
        assert json.loads(proc.stdout)["class_match"] is class_match

    @pytest.mark.parametrize("mu, x, sector, class_match, code", [
        ("3,1", "2,0", "half", False, 1),  # doubled (2, 0) is the integral (1, 0)
        ("3,1", "2,1", "half", None, 0),  # (1, 1/2): no lattice point
        ("2,0", "1/2,1/2", "integral", False, 1),  # a point of the half sector
        ("3,1", "1,1", "half", False, 1),  # (1/2, 1/2): same sector, other class
        ("3,1", "1,3", "half", True, 0),
    ])
    def test_family_d_lattice_point_of_either_sector(
        self, mu, x, sector, class_match, code
    ):
        """A family-D x whose entries are all in Z or all in Z + 1/2 is a
        lattice point of its own sector, and the class check decides."""
        proc = run_cli(
            "check", "--family", "D", "--sector", sector, "--mu", mu, "--x", x,
            "--format", "json",
        )
        assert proc.returncode == code, proc.stderr
        record = json.loads(proc.stdout)
        assert record["class_match"] is class_match
        assert record["in_hull"] is True


class TestEta:
    def test_walkthrough_json(self):
        proc = run_cli(
            "eta", "--family", "B", "--shape", "2,1,1;2",
            "--nu", "2,1,2,0,1,0", "--format", "json",
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["merged"] == [2, 2, 1, 0, 1, 0]
        assert record["coarse_shape"] == "3,1;2"
        assert record["result"] == [2, 2, 1, 1, 0, 0]
        assert record["ok"] is True

    def test_single_batch_identity(self):
        proc = run_cli(
            "eta", "--family", "A", "--shape", "4", "--nu", "1,1,0,0",
            "--format", "json",
        )
        record = json.loads(proc.stdout)
        assert record["result"] == [1, 1, 0, 0]
        assert proc.returncode == 0

    def test_rejected_orthogonal_rank_one(self):
        proc = run_cli("eta", "--family", "D", "--shape", "2;1", "--nu", "1,1,1")
        assert proc.returncode == 2
        assert "trailing block of size 1" in proc.stderr

    def test_precondition_failure_exits_one(self):
        proc = run_cli("eta", "--family", "A", "--shape", "1,1", "--nu", "0,1")
        assert proc.returncode == 1
        assert "precondition failed" in proc.stdout

    def test_precondition_failure_json_record(self):
        proc = run_cli(
            "eta", "--family", "A", "--shape", "1,1", "--nu", "0,1",
            "--format", "json",
        )
        assert proc.returncode == 1
        record = json.loads(proc.stdout)
        message = record.pop("precondition_failed")
        assert message.startswith("the batch first entries of 0,1")
        assert record == {
            "schema": 1, "command": "eta", "family": "A", "sector": "integral",
            "shape": "1,1", "nu": [0, 1], "ok": False,
        }

    def test_half_sector_records_flips(self):
        proc = run_cli(
            "eta", "--family", "D", "--sector", "half", "--shape", "2;2",
            "--nu", "1,-1,1,-1", "--format", "json",
        )
        record = json.loads(proc.stdout)
        assert record["sign_fixed"] == [1, 1, 1, -1]
        assert record["flip_count"] == 1
        assert record["result"] == [1, 1, 1, 1]


class TestSmallCommands:
    def test_pmu_points(self):
        proc = run_cli("pmu", "--family", "B", "--mu", "1,0", "--format", "json")
        record = json.loads(proc.stdout)
        assert record["count"] == 4
        assert record["points"] == [[-1, 0], [0, -1], [0, 1], [1, 0]]

    def test_pmu_cap_exits_three(self):
        proc = run_cli("pmu", "--family", "B", "--mu", "40,0,0,0,0,0")
        assert proc.returncode == 3

    def test_pmu_past_rank_six(self, capsys):
        """Only the box size is capped: the one-candidate A7 box runs."""
        assert cli.main(["pmu", "--family", "A", "--mu", "0,0,0,0,0,0,0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "count: 1"

    def test_class_command(self):
        proc = run_cli(
            "class", "--family", "A", "--shape", "2,2", "--x", "2,1,1,0",
            "--format", "json",
        )
        record = json.loads(proc.stdout)
        assert record["sums"] == [3, 1]
        assert record["lift"] == [2, 1, 1, 0]

    def test_project_command(self):
        proc = run_cli(
            "project", "--family", "B", "--shape", "2,1,1;2",
            "--x", "2,1,2,0,1,0", "--format", "json",
        )
        record = json.loads(proc.stdout)
        assert record["averages"] == ["3/2", "2", "0"]

    def test_lift_command(self):
        proc = run_cli(
            "lift", "--family", "B", "--shape", "2;1",
            "--sums", "3", "--so-class", "1", "--format", "json",
        )
        record = json.loads(proc.stdout)
        assert record["lift"] == [2, 1, 1]

    def test_lift_unreduced_half_so_class_exits_two(self):
        """A half-sector orthogonal class must be reduced mod 4, as the
        integral one must be mod 2; 6 is not echoed as the class 2."""
        proc = run_cli(
            "lift", "--family", "D", "--sector", "half",
            "--shape", "1;2", "--sums", "1", "--so-class", "6",
        )
        assert proc.returncode == 2
        assert "invalid so_class 6" in proc.stderr
        assert proc.stdout == ""


class TestVerify:
    def test_single_instance(self):
        proc = run_cli(
            "verify", "--family", "A", "--shape", "2,1", "--mu", "1,1,0",
        )
        assert proc.returncode == 0
        records = ndjson(proc.stdout)
        assert len(records) == 2
        body, summary = records
        assert body["schema"] == 1
        assert body["equal"] is True
        assert body["lhs"] == body["rhs"]
        assert summary["summary"] is True
        assert summary["instances"] == 1

    def test_grid_deterministic_bytes(self):
        args = (
            "sweep", "--family", "D", "--sector", "half", "--ranks", "2",
            "--max-entry", "3", "--skip-properties",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_jobs_preserve_output(self):
        args = (
            "sweep", "--family", "B", "--ranks", "2", "--max-entry", "1",
            "--skip-properties",
        )
        serial = run_cli(*args)
        parallel = run_cli(*args, "--jobs", "2")
        assert serial.stdout == parallel.stdout
        assert parallel.returncode == 0

    def test_missing_arguments_exit_two(self):
        proc = run_cli("verify", "--family", "A")
        assert proc.returncode == 2

    def test_zero_weight_grid_trivial_classes(self):
        proc = run_cli(
            "sweep", "--family", "A", "--ranks", "2", "--max-entry", "0",
            "--skip-properties",
        )
        assert proc.returncode == 0
        records = ndjson(proc.stdout)
        assert all(r["equal"] for r in records[:-1])
        assert all(len(r["lhs"]) == 1 for r in records[:-1])


class TestSweepCommand:
    def test_small_sweep(self):
        proc = run_cli(
            "sweep", "--family", "A", "--ranks", "1,2", "--max-entry", "1",
        )
        assert proc.returncode == 0
        records = ndjson(proc.stdout)
        assert records[-1]["summary"] is True
        assert records[-1]["failed"] == 0
        assert all(r.get("equal", True) for r in records[:-1])

    def test_multi_family_sweep_skips_properties(self):
        proc = run_cli(
            "sweep", "--family", "A,B", "--ranks", "1", "--max-entry", "1",
            "--skip-properties",
        )
        assert proc.returncode == 0
        records = ndjson(proc.stdout)
        families = {r["family"] for r in records[:-1]}
        assert families == {"A", "B"}


@pytest.mark.parametrize("argv, digest", [
    ("sweep --family D --sector half --ranks 3 --max-entry 3 --skip-properties",
     "c2c23b0825e0e51fbc656468b4c9fd9272b5ebda40784a3f38dc0e04edb50a47"),
    ("sweep --family D --sectors half --ranks 3 --max-entry 3 --skip-properties",
     "c2c23b0825e0e51fbc656468b4c9fd9272b5ebda40784a3f38dc0e04edb50a47"),
    ("sweep --family A,B --ranks 1,2 --max-entry 1",
     "8390581e4e1e92e3d8ce2ab2840c8fa4bc11cda9af4a3a147abc60b9df19f030"),
], ids=["sector", "sectors", "family-list"])
def test_sweep_grid_output_pinned(argv, digest, capsys):
    """``sweep`` writes, byte for byte, what the grid paths it replaced
    wrote: ``verify --all-shapes --rank 3`` (with ``--sector`` or
    ``--sectors``) and ``sweep --families A,B --family A``."""
    assert cli.main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    "verify --family A --shape 2 --mu 1,0 --all-shapes",
    "verify --family A --shape 2 --mu 1,0 --format json",
    "verify --family A --rank 3 --shape 2,1 --mu 1,1,0",
    "sweep --families A,B --family A --ranks 1 --max-entry 1",
    "verify --family A --shape 2 --mu 1,0 --timing",
    "sweep --family A --ranks 1 --max-entry 0 --timing",
    "lift --family B --rank 3 --shape 2;1 --sums 3 --so-class 1",
], ids=["all-shapes", "format", "rank", "families", "verify-timing", "sweep-timing",
        "lift-rank"])
def test_removed_grid_flags_exit_two(argv):
    """The flags that verify, sweep and lift no longer take are usage
    errors; ``--timing`` went because it was the one output whose bytes
    changed from run to run, and ``lift`` reads its rank off ``--shape``."""
    proc = run_cli(*argv.split())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "unrecognized arguments" in proc.stderr


@pytest.mark.parametrize("argv", [
    "pmu --family A --mu -1,-1",
    "check --family A --mu 0,-1 --x -1,0",
], ids=["pmu", "check"])
def test_values_starting_with_minus(argv, capsys):
    """A value that starts with ``-`` and a digit may follow its flag as a
    token of its own; it reads as the ``--flag=value`` spelling does."""
    assert cli.main(argv.split()) == 0
    spaced = capsys.readouterr()
    joined = argv.replace(" -1,", "=-1,")
    assert cli.main(joined.split()) == 0
    assert capsys.readouterr() == spaced
    assert spaced.err == ""


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.ndjson"
    proc = run_cli(
        "verify", "--family", "A", "--shape", "1,1", "--mu", "1,0",
        "--out", str(target),
    )
    assert proc.returncode == 0
    records = [json.loads(line) for line in target.read_text().splitlines()]
    assert records[0]["equal"] is True


@pytest.mark.parametrize("argv, reason", [
    ("check --family A --mu 1 --x 1 --out {tmp}/no/x", "No such file or directory"),
    ("sweep --family A --ranks 1 --max-entry 0 --jobs 2 --out {tmp}/no/x",
     "No such file or directory"),
    ("pmu --family B --mu 1,1 --out {tmp}", "Is a directory"),
], ids=["check", "sweep", "pmu"])
def test_unwritable_out_is_usage_error(argv, reason, tmp_path, capsys):
    """An ``--out`` that cannot be opened is one ``error:`` line naming it."""
    argv = argv.replace("{tmp}", str(tmp_path)).split()
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write --out {argv[-1]}: {reason}\n"


@pytest.mark.parametrize("argv", [
    "check --family A --mu 0,1 --x 1,0",
    "verify --family A --shape 2 --mu 0,1",
    "sweep --family A --ranks 1 --jobs 0",
    "sweep --family Q --ranks 1",
], ids=["check", "verify", "sweep-jobs", "sweep-family"])
def test_usage_error_leaves_out_file(argv, tmp_path, capsys):
    """The ``--out`` file is opened only after the arguments pass, so a
    usage error leaves an existing file as it was."""
    target = tmp_path / "kept.txt"
    target.write_text("kept\n")
    assert cli.main([*argv.split(), "--out", str(target)]) == 2
    assert target.read_text() == "kept\n"
    assert capsys.readouterr().out == ""


def test_jobs_draw_a_bounded_window(monkeypatch, capsys):
    """With ``--jobs 2`` at most ``4 * 2`` instances are drawn before the
    first record is written, so a grid streams at every job count."""
    config = SweepConfig(families=(Family.A,), ranks=(3,), max_entry=1,
                         check_properties=False)
    drawn = []

    def counting():
        for instance in sweep_instances(config):
            drawn.append(instance)
            yield instance

    drawn_at_first_record = []
    record = cli._Writer.record

    def noting(self, payload):
        drawn_at_first_record.append(len(drawn))
        record(self, payload)

    monkeypatch.setattr(cli._Writer, "record", noting)
    assert cli._run_instances(None, counting(), False, jobs=2) == 0
    assert len(drawn) == 16
    assert drawn_at_first_record[0] <= 8
    assert len(ndjson(capsys.readouterr().out)) == 17


_COMMON = [
    (("--family",), None, True, None, "_family"),
    (("--sector",), "integral", False, None, "_sector"),
]
_SMALL = [
    *_COMMON,
    (("--format",), "text", False, ("text", "json"), None),
    (("--out",), None, False, None, None),
]
_OUT = (("--out",), None, False, None, None)
_MU = (("--mu",), None, True, None, None)
_SHAPE = (("--shape",), None, True, None, None)
_X = (("--x",), None, True, None, None)
PARSER_FLAGS = {
    "check": [*_SMALL, _MU, _X],
    "class": [*_SMALL, _SHAPE, _X],
    "project": [*_SMALL, _SHAPE, _X],
    "lift": [*_SMALL, _SHAPE, (("--sums",), "", False, None, None),
             (("--so-class",), None, False, None, "int")],
    "eta": [*_SMALL, _SHAPE, (("--nu",), None, True, None, None)],
    "pmu": [*_SMALL, _MU],
    "verify": [*_COMMON, _OUT, _SHAPE, _MU],
    "sweep": [
        (("--family",), None, True, None, "_families"),
        (("--sectors", "--sector"), "integral", False, None, "_sectors"),
        _OUT,
        (("--ranks",), None, True, None, None),
        (("--max-entry",), 2, False, None, "int"),
        (("--jobs",), 1, False, None, "int"),
        (("--skip-properties",), False, False, None, None),
    ],
}


def test_parser_flags_pinned():
    """Every subcommand's flags, in order: spellings, default, required,
    choices and type.  Only the type of ``--family`` and ``--sector(s)``
    changed when the parser became one table, and ``--timing`` went; later
    ``lift`` lost ``--rank``, which its ``--shape`` fixes."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {
        name: [
            (tuple(a.option_strings), a.default, a.required, a.choices,
             getattr(a.type, "__name__", None))
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in subs.choices.items()
    }
    assert table == PARSER_FLAGS


@pytest.mark.parametrize("argv, message", [
    ("check --family Q --mu 1 --x 1",
     "argument --family: unknown family 'Q' (expected A, B, or D)"),
    ("verify --family A --sector int --shape 1 --mu 1",
     "argument --sector: unknown sector 'int' (expected integral or half)"),
    ("sweep --family A,E --ranks 1",
     "argument --family: unknown family 'E' (expected A, B, or D)"),
    ("sweep --family D --sectors integral,third --ranks 2",
     "argument --sectors/--sector: unknown sector 'third' (expected integral or half)"),
], ids=["family", "sector", "families", "sectors"])
def test_family_and_sector_errors_keep_their_message(argv, message, capsys):
    """The flag definitions convert ``--family`` and ``--sector(s)``; their
    own message survives argparse, after its ``argument`` prefix."""
    assert cli.main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _raise_internal(*args, **kwargs):
    raise RuntimeError("unexpected")


@pytest.mark.parametrize("argv, patched, code", [
    (["check", "--family", "B", "--mu", "2,0,0", "--x", "1,1/0,0"], None, 2),
    (["check", "--family", "B", "--mu", "", "--x", ""], None, 2),
    (["sweep", "--family", "A", "--ranks", "1", "--jobs", "-3"], None, 2),
    (["sweep", "--family", "A", "--ranks", "1", "--jobs", "0"], None, 2),
    (["verify", "--family", "B", "--shape", "1,1,1,1,1,1", "--mu", "40,0,0,0,0,0"],
     None, 3),
    (["pmu", "--family", "B", "--mu", "40,0,0,0,0,0"], None, 3),
    (["check", "--family", "B", "--mu", "2,0,0", "--x", "1,1,0"], "cmd_check", 3),
    (["sweep", "--family", "A", "--ranks", "1", "--max-entry", "0"],
     "run_instance", 3),
    (["sweep", "--family", "A", "--ranks", "4", "--max-entry", "1000000000"],
     None, 3),
    (["sweep", "--family", "A", "--ranks", "2,9", "--max-entry", "40"], None, 3),
    (["verify", "--family", "A", "--rank", "2", "--shape", "2", "--mu", "1,0"], None, 2),
    (["sweep", "--family", "A"], None, 2),
    (["check", "--family", "B", "--mu", "2,0,0", "--x", "1,1,0", "--format", "yaml"],
     None, 2),
    (["frobnicate", "--family", "A"], None, 2),
    (["class", "--family", "A", "--shape", "2,,1", "--x", "1,0,0"], None, 2),
    (["class", "--family", "A", "--shape", ",2,1,", "--x", "1,0,0"], None, 2),
    (["check", "--family", "A", "--mu", "1", "--x", "1", "--out", "{tmp}/no/dir/x"],
     None, 2),
    (["sweep", "--family", "A", "--ranks", "2", "--out", "{tmp}/no/x"], None, 2),
    (["pmu", "--family", "B", "--mu", "1,1", "--out", "{tmp}"], None, 2),
    (["lift", "--family", "A", "--shape", str(10**30), "--sums", "0"], None, 3),
    (["lift", "--family", "A", "--shape", "1;-1", "--sums", "1"], None, 2),
], ids=["zero-denominator", "empty-vectors", "negative-jobs", "zero-jobs",
        "instance-cap", "box-cap", "command-raises", "instance-raises", "max-entry-cap",
        "grid-cap-before-records", "unknown-flag", "missing-flag", "invalid-choice",
        "unknown-command", "shape-empty-item", "shape-empty-ends", "out-missing-dir",
        "sweep-out-missing-dir", "out-is-directory", "lift-huge-rank",
        "lift-negative-so-rank"])
def test_hostile_input_exit_codes(argv, patched, code, monkeypatch, capsys, tmp_path):
    """Every input ends in a contract exit code with a one-line message; an
    input refused before its first instance writes nothing to stdout (the
    A9 grid is refused before any A2 instance runs).  Only a patched
    function raises an internal error.  ``{tmp}`` in an argument stands
    for a fresh directory."""
    if patched:
        monkeypatch.setattr(cli, patched, _raise_internal)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1
    if patched:
        assert err == "internal error: RuntimeError: unexpected\n"
    else:
        assert not err.startswith("internal error: ")
    if not err.startswith("instances stopped: "):
        assert out == ""


def test_lift_shape_error_names_the_bad_size(capsys):
    """A shape whose sizes sum to 0 or less is refused by ``LeviShape``,
    which names the bad size, not by ``GroupKind`` for its rank."""
    assert cli.main(["lift", "--family", "A", "--shape", "1;-1", "--sums", "1"]) == 2
    assert capsys.readouterr() == ("", "error: orthogonal rank must be >= 0: -1\n")


def test_help_exits_zero_on_stdout(capsys):
    """Usage errors return 2 from ``main``; ``--help`` still exits 0 with
    its usage on standard output."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert out.startswith("usage: coweights verify ")
    assert err == ""


def test_box_cap_stops_verify(capsys):
    """A rank-6 box of 81⁶ candidates ends the instance with a cap error
    record and exit code 3 instead of a scan that does not finish."""
    code = cli.main([
        "verify", "--family", "B", "--shape", "1,1,1,1,1,1", "--mu", "40,0,0,0,0,0",
    ])
    body, summary = ndjson(capsys.readouterr().out)
    assert code == 3
    assert body["error"].startswith("CapExceeded: ")
    assert summary["errors"] == 1


def test_stopped_instance_named_on_stderr(capsys):
    """The one stderr line counts the stopped instances and repeats the
    first error record's text."""
    code = cli.main([
        "verify", "--family", "B", "--shape", "1,1,1,1,1,1", "--mu", "40,0,0,0,0,0",
    ])
    out, err = capsys.readouterr()
    body, _ = ndjson(out)
    assert code == 3
    assert err == f"instances stopped: 1 of 1; first: {body['error']}\n"


def test_verify_past_rank_six(capsys):
    """Rank 7 is no longer refused: 3^7 Pmu candidates and 3^7 lifts."""
    code = cli.main([
        "verify", "--family", "A", "--shape", "1,1,1,1,1,1,1", "--mu", "1,0,0,0,0,0,0",
    ])
    body, summary = ndjson(capsys.readouterr().out)
    assert code == 0
    assert body["equal"] is True and summary["ok"] == 1


def test_property_failure_reaches_every_report(monkeypatch, capsys):
    monkeypatch.setattr(
        oracle, "instance_property_failures", lambda shape, mu: ("injected",)
    )
    shape = LeviShape(GroupKind(Family.A, 2), (2,), 0)
    report = oracle.run_instance(
        shape, coweight("A", (1, 0)), check_properties=True
    )
    assert report.equal and report.property_failures == ("injected",)
    assert not report.ok
    config = SweepConfig(families=(Family.A,), ranks=(1,), max_entry=0)
    assert [r.property_failures for r in sweep(config)] == [("injected",)]

    code = cli.main(["sweep", "--family", "A", "--ranks", "1", "--max-entry", "0"])
    body, summary = ndjson(capsys.readouterr().out)
    assert body["property_failures"] == ["injected"]
    assert summary["failed"] == 1
    assert code == 1


def test_library_sweep_matches_cli_lines(capsys):
    """``sweep`` and the CLI share one instance pipeline and one serialiser."""
    code = cli.main([
        "sweep", "--family", "D", "--sectors", "integral,half", "--ranks", "2",
        "--max-entry", "3",
    ])
    lines = capsys.readouterr().out.splitlines()
    config = SweepConfig(
        families=(Family.D,), ranks=(2,), max_entry=3,
        sectors=(Sector.INTEGRAL, Sector.HALF),
    )
    expected = [
        json.dumps(cli.report_json(r), separators=(", ", ": "))
        for r in sweep(config)
    ]
    assert code == 0
    assert lines[:-1] == expected


def _readme_cli_lines():
    """The ``coweights ...`` lines of README's CLI code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("coweights ")]


README_CLI_LINES = _readme_cli_lines()


@pytest.mark.parametrize(
    "line", README_CLI_LINES,
    ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(README_CLI_LINES)],
)
def test_readme_cli_examples_run(line, capsys):
    """Every documented invocation still parses and exits 0, so a removed
    flag or command cannot linger in the docs."""
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
