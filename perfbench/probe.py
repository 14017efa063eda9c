"""Child process of the benchmark: a traced CLI run or a hull-oracle pass.

    python3 perfbench/probe.py cli TRACE -- ARGV...
    python3 perfbench/probe.py hull SEED TRACE [first]

``cli`` installs the span tracer, runs ``coweights.cli.main(ARGV)`` as
``python -m coweights`` does, and writes the tracer snapshot as JSON to
TRACE.  Untraced CLI runs need no probe: the runner starts
``python -m coweights`` itself.

``hull`` draws the seeded sample of rational points, prints ``ready``,
checks every point with ``in_hull`` and ``caratheodory_in_hull``, prints
the first verdict as soon as it is known, and ends with one JSON line
holding the verdict string and the indices where the two oracles
disagree.  It is traced unless TRACE is ``-``; with ``first`` it exits
after the first verdict.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402

# Dominant weights of the hull_oracle sample: ranks 3-4, family A, B,
# D integral and D half (doubled odd entries).
HULL_MUS = (
    ("A", "integral", (2, 1, 0)),
    ("A", "integral", (2, 1, 1, 0)),
    ("A", "integral", (3, 1, 0, 0)),
    ("B", "integral", (2, 1, 0)),
    ("B", "integral", (2, 1, 1, 0)),
    ("B", "integral", (2, 2, 1, 0)),
    ("D", "integral", (2, 1, 1)),
    ("D", "integral", (2, 1, 1, -1)),
    ("D", "integral", (2, 2, 1, 1)),
    ("D", "half", (3, 1, 1)),
    ("D", "half", (3, 1, 1, -1)),
    ("D", "half", (3, 3, 1, 1)),
)
POINTS_PER_MU = 300
DENOMINATORS = (1, 2, 3, 4)


def _rationals(rng: random.Random, count: int, lo: int, hi: int, den: int) -> list[Fraction]:
    return [Fraction(rng.randint(lo * den, hi * den), den) for _ in range(count)]


def hull_sample(seed: int) -> list:
    """(mu, point) pairs: rational points in the bounding box of mu's orbit.

    The points of each mu cycle through ``DENOMINATORS``, so that seeds
    differ only in the numerators.  Family A points lie on mu's sum
    hyperplane, where its hull lives.
    """
    from coweights import Coweight, Family, GroupKind, Sector, is_dominant

    rng = random.Random(seed)
    sample = []
    for family, sector, entries in HULL_MUS:
        mu = Coweight(GroupKind(Family(family), len(entries)), entries, Sector(sector))
        if not is_dominant(mu):
            raise ValueError(f"sample weight {mu} is not dominant")
        if family == "A":
            lo, hi = min(entries), max(entries)
        else:
            lo, hi = -max(abs(e) for e in entries), max(abs(e) for e in entries)
        for i in range(POINTS_PER_MU):
            while True:
                x = _rationals(rng, len(entries), lo, hi, DENOMINATORS[i % 4])
                if family != "A":
                    break
                x[-1] = sum(entries) - sum(x[:-1])
                if lo <= x[-1] <= hi:
                    break
            sample.append((mu, tuple(x)))
    rng.shuffle(sample)  # spread the costly weights over the whole pass
    return sample


def _tracer_for(trace_path: str):
    if trace_path == "-":
        return None
    tracer = Tracer()
    missing = install(tracer)
    if missing:
        print(f"perfbench: not traced (absent): {', '.join(missing)}", file=sys.stderr)
    return tracer


def _dump(tracer, trace_path: str) -> None:
    if tracer is not None:
        Path(trace_path).write_text(json.dumps(tracer.snapshot()))


def run_cli(trace_path: str, argv: list[str]) -> int:
    from coweights import cli

    tracer = _tracer_for(trace_path)
    rc = cli.main(argv)
    _dump(tracer, trace_path)
    return rc


def run_hull(seed: int, trace_path: str, first_only: bool = False) -> int:
    import coweights

    sample = hull_sample(seed)
    print("ready", flush=True)
    tracer = _tracer_for(trace_path)
    verdicts = []
    disagree = []
    for i, (mu, x) in enumerate(sample):
        exact = coweights.caratheodory_in_hull(x, mu)
        verdicts.append("1" if exact else "0")
        if coweights.in_hull(x, mu) != exact:
            disagree.append(i)
        if i == 0:
            print(f"first {verdicts[0]}", flush=True)
            if first_only:
                return 0
    _dump(tracer, trace_path)
    print(json.dumps({"verdicts": "".join(verdicts), "disagree": disagree}))
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "cli" and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if len(argv) in (3, 4) and argv[0] == "hull" and argv[3:] in ([], ["first"]):
        return run_hull(int(argv[1]), argv[2], first_only=len(argv) == 4)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
