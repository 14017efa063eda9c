"""The exit-code contract on drawn argument vectors.

``hypothesis`` draws an argv for one of the small commands or ``verify``:
a well-formed one (family, sector, a shape of the rank, vectors and batch
sums of the sector), in which up to two flags are then dropped or given a
hostile token: a bad family or sector, an empty item, ``1/0``, an integer
past any index size, a shape such as ``2;1`` or ``1;-1``.  ``--out`` names
nothing, a fresh file, a missing directory or an existing directory.  A
flag and its value are one token (``--x=1,0``) or two, at random.
``cli.main`` runs in-process on each.
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
    "lift": (*SMALL, "shape", "rank", "sums", "so-class"),
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
    "rank": ["0", "-1", "x", "", HUGE],
    "so-class": ["6", "-1", "x", HUGE],
    "out": ["fresh", "missing/dir/x", "."],  # "." is an existing directory
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
        "rank": str(rank),
        "sums": ",".join(map(str, sums)),
        "so-class": draw(st.sampled_from(so_classes(shape, Sector.HALF if half
                                                         else Sector.INTEGRAL))),
    }
    flags = COMMANDS[command]
    mutable = [flag for flag in flags if flag != "out"]
    for flag in draw(st.permutations(mutable))[:draw(st.integers(0, 2))]:
        hostile = _hostile_vectors(values[flag]) if flag in VECTORS else HOSTILE[flag]
        values[flag] = draw(st.sampled_from([None, *hostile]))
    argv = [command]
    for flag in flags:
        if values[flag] is not None:
            joined = flag == "out" or draw(st.booleans())
            if joined:
                argv.append(f"--{flag}={values[flag]}")
            else:
                argv += [f"--{flag}", str(values[flag])]
    return argv


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


@settings(
    derandomize=True, max_examples=400, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
def test_every_argv_keeps_the_exit_code_contract(argv):
    """Exit 0 to 3; one stderr line on 2 and 3; every 3 a cap; a record
    that parses on 0 and 1 under ``--format json`` and from ``verify``."""
    with tempfile.TemporaryDirectory() as tmp:
        code, written, err = _run(argv, tmp)
    lines = err.splitlines()
    assert code in (0, 1, 2, 3), argv
    assert "internal error:" not in err, (argv, err)
    if code in (2, 3):
        assert len(lines) == 1, (argv, err)
        assert lines[0].startswith("error: " if code == 2 else (
            "cap exceeded: ", "instances stopped: ")), (argv, err)
        if code == 3 and lines[0].startswith("instances stopped: "):
            assert "first: CapExceeded: " in lines[0], (argv, err)
        return
    assert err == "", (argv, err)
    if argv[0] == "verify":
        records = [json.loads(line) for line in written.splitlines()]
        assert records[-1]["summary"] is True
        assert (records[-1]["failed"] == 0) is (code == 0)
    elif "--format=json" in argv:
        record = json.loads(written)
        assert record["command"] == argv[0]
        assert record.get("ok", True) is (code == 0)
