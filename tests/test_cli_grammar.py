"""The exit-code contract on drawn argument vectors.

``hypothesis`` draws an argv for one of the small commands, ``verify`` or
a bounded ``sweep``: a well-formed one (family, sector, a shape of the
rank, vectors and batch sums of the sector; for ``sweep`` comma lists of
families, sectors and ranks 1-3 with ``--max-entry`` 0-2), in which up to
two flags are then dropped or given a hostile token: a bad family or
sector, an empty item, ``1/0``, an integer past any index size, a shape
such as ``2;1`` or ``1;-1``, ``--ranks 0``, ``--jobs 0``, a ``--max-entry``
past the grid cap.  ``--out`` names nothing, a fresh file, a missing
directory or an existing directory.  A flag and its value are one token
(``--x=1,0``) or two, at random, also when the value starts with ``-``.
``cli.main`` runs in-process on each.  An argv left well-formed, with no
``--out`` or a fresh one, exits 0 or 1.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coweights import Family, GroupKind, Sector, all_shapes, cli
from coweights.core import _vec_dominant_rep
from coweights.levi import so_classes

HUGE = str(10**30 + 1)  # odd, so the half sector takes it too

SMALL = ("family", "sector", "format", "out")
COMMANDS = {
    "check": (*SMALL, "mu", "x"),
    "class": (*SMALL, "shape", "x"),
    "project": (*SMALL, "shape", "x"),
    "lift": (*SMALL, "shape", "sums", "so-class"),
    "eta": (*SMALL, "shape", "nu"),
    "pmu": (*SMALL, "mu"),
    "verify": ("family", "sector", "out", "shape", "mu"),
}
VECTORS = ("mu", "x", "nu", "sums")
HOSTILE = {
    "family": ["Q", "", "A,B", "int"],
    "sector": ["int", "", "third", "half"],
    "format": ["yaml", ""],
    "shape": ["2;1", "1;-1", ",2", "2,,1", ";", "0,2", HUGE, f"1;{HUGE}"],
    "so-class": ["6", "-1", "x", HUGE],
    "out": ["fresh", "missing/dir/x", "."],  # "." is an existing directory
}
SWEEP = ("family", "sectors", "out", "ranks", "max-entry", "jobs", "skip-properties")
SWEEP_HOSTILE = {
    "family": ["A,E", "Q", ""],
    "sectors": ["third", "integral,third", ""],
    "ranks": ["0", "1,,2", "x", ""],
    "max-entry": [str(10**9), "-1", "x"],  # 10**9 passes the grid cap
    "jobs": ["0", "-1", "x"],
    "skip-properties": [],  # dropped only
}


def _hostile_vectors(valid):
    """Empty, an empty item, one item too many, every item times a huge odd
    integer, or the first item replaced by ``1/0``, a fraction, a word or a
    huge integer of either sign."""
    items = valid.split(",")
    huge = ",".join(e and str(int(e) * int(HUGE)) for e in items)
    return ["", f"{valid},", f"{valid},0", huge, *(
        ",".join([first, *items[1:]]) for first in ("1/0", "1/2", "a", HUGE, "-" + HUGE)
    )]


@st.composite
def argvs(draw):
    """A well-formed argv with up to two flags dropped or made hostile."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    family = draw(st.sampled_from(list(Family)))
    rank = draw(st.integers(2 if family is Family.D else 1, 4))
    half = family is Family.D and draw(st.booleans())
    kind = GroupKind(family, rank)
    shape = draw(st.sampled_from(list(all_shapes(kind))))
    entry = st.integers(-2, 1).map(lambda e: 2 * e + 1) if half else st.integers(-3, 3)
    vector = st.lists(entry, min_size=rank, max_size=rank)
    dominant = vector.map(lambda v: _vec_dominant_rep(family, v))
    sums = [
        draw(st.integers(-3, 3)) * (2 if half else 1) + (size if half else 0)
        for size in shape.gl_sizes
    ]
    values = {
        "family": draw(st.sampled_from([family.value, family.value.lower()])),
        "sector": "half" if half else draw(st.sampled_from([None, "integral"])),
        "format": draw(st.sampled_from([None, "text", "json"])),
        "out": draw(st.sampled_from([None, None, *HOSTILE["out"]])),
        "mu": ",".join(map(str, draw(dominant))),
        "x": ",".join(map(str, draw(vector))),
        "nu": ",".join(map(str, draw(vector))),
        "shape": str(shape),
        "sums": ",".join(map(str, sums)),
        "so-class": draw(st.sampled_from(so_classes(shape, Sector.HALF if half
                                                         else Sector.INTEGRAL))),
    }
    return _spoil(draw, command, COMMANDS[command], values,
                  lambda flag: _hostile_vectors(values[flag]) if flag in VECTORS
                  else HOSTILE[flag])


@st.composite
def sweep_argvs(draw):
    """A bounded sweep argv with up to two flags dropped or made hostile.
    The property bundle runs at rank 3 only up to max entry 1."""
    families = draw(st.lists(st.sampled_from("ABD"), min_size=1, max_size=3,
                             unique=True))
    families = [f.lower() if draw(st.booleans()) else f for f in families]
    ranks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    skip = draw(st.booleans())
    values = {
        "family": ",".join(families),
        "sectors": draw(st.sampled_from([None, "integral", "half", "half,integral"])),
        "out": draw(st.sampled_from([None, None, *HOSTILE["out"]])),
        "ranks": ",".join(map(str, ranks)),
        "max-entry": str(draw(st.integers(0, 2 if skip or 3 not in ranks else 1))),
        "jobs": draw(st.sampled_from([None, "1"])),
        "skip-properties": True if skip else None,
    }
    return _spoil(draw, "sweep", SWEEP, values, SWEEP_HOSTILE.__getitem__)


def _spoil(draw, command, flags, values, hostile):
    """``(argv, clean)``: ``values`` with up to two flags other than ``--out``
    dropped or set to one of ``hostile(flag)``, then written out; ``clean``
    when none was and ``--out`` is absent or fresh."""
    mutable = [flag for flag in flags if flag != "out"]
    spoiled = draw(st.permutations(mutable))[:draw(st.integers(0, 2))]
    for flag in spoiled:
        values[flag] = draw(st.sampled_from([None, *hostile(flag)]))
    argv = [command]
    for flag in flags:
        if values[flag] is True:
            argv.append(f"--{flag}")
        elif values[flag] is not None:
            joined = flag == "out" or draw(st.booleans())
            if joined:
                argv.append(f"--{flag}={values[flag]}")
            else:
                argv += [f"--{flag}", str(values[flag])]
    return argv, not spoiled and values["out"] in (None, "fresh")


def _run(argv, tmp):
    """``(exit code, what was written, stderr)``, the relative ``--out``
    values placed in ``tmp`` (``.`` is ``tmp`` itself)."""
    places = {f"--out={name}": f"--out={tmp}/{name}" for name in HOSTILE["out"]}
    argv = [places.get(a, a).replace(f"{tmp}/.", tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    written = out.getvalue()
    target = next((Path(a[6:]) for a in argv if a.startswith("--out=")), None)
    if target and target.is_file():
        written = target.read_text()
    return code, written, err.getvalue()


def _settings(examples):
    return settings(derandomize=True, max_examples=examples, deadline=None,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


@_settings(400)
@given(argvs())
def test_every_argv_keeps_the_exit_code_contract(case):
    """Exit 0 to 3, and 0 or 1 for a clean argv; one stderr line on 2 and
    3; every 3 a cap; a record that parses on 0 and 1 under ``--format
    json`` and from ``verify``."""
    _check_contract(*case)


@_settings(40)
@given(sweep_argvs())
def test_every_sweep_argv_keeps_the_exit_code_contract(case):
    """The same contract for ``sweep``, whose summary on 0 and 1 counts
    the records before it."""
    _check_contract(*case)


def _check_contract(argv, clean):
    with tempfile.TemporaryDirectory() as tmp:
        code, written, err = _run(argv, tmp)
    lines = err.splitlines()
    assert code in ((0, 1) if clean else (0, 1, 2, 3)), (argv, err)
    assert "internal error:" not in err, (argv, err)
    if code in (2, 3):
        assert len(lines) == 1, (argv, err)
        assert lines[0].startswith("error: " if code == 2 else (
            "cap exceeded: ", "instances stopped: ")), (argv, err)
        if code == 3 and lines[0].startswith("instances stopped: "):
            assert "first: CapExceeded: " in lines[0], (argv, err)
        return
    assert err == "", (argv, err)
    if argv[0] in ("verify", "sweep"):
        records = [json.loads(line) for line in written.splitlines()]
        assert records[-1]["summary"] is True
        assert records[-1]["instances"] == len(records) - 1
        assert (records[-1]["failed"] == 0) is (code == 0)
    elif "--format=json" in argv:
        record = json.loads(written)
        assert record["command"] == argv[0]
        assert record.get("ok", True) is (code == 0)
