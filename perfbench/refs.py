"""Regenerate the committed references in ``ref/``.

    python3 perfbench/refs.py

For each sweep workload: the SHA-256 of every NDJSON record that
``python -m coweights`` writes, one per line, in output order.  For
``hull_oracle``: a digest of the ``in_hull`` verdicts on the sample of
each seed in ``HULL_SEEDS``; the runner checks ``caratheodory_in_hull``
against ``in_hull`` on every seed, and against this digest on these.

Run it only on a commit whose output is known good: it refuses a run that
fails, reports an error record, or a false verdict.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import REF_DIR, ROOT, record_digests, verdict_digest  # noqa: E402
from probe import hull_sample  # noqa: E402  (puts src on sys.path)
from run import HULL, SWEEPS, child_env  # noqa: E402

HULL_SEEDS = range(256)


def sweep_reference(name: str) -> list[str]:
    done = subprocess.run([sys.executable, "-m", "coweights", *SWEEPS[name]],
                          cwd=ROOT, env=child_env(), capture_output=True)
    if done.returncode != 0 or b'"error": ' in done.stdout:
        raise SystemExit(f"{name}: exit {done.returncode}, refusing to record")
    return record_digests(done.stdout)


def main() -> int:
    from coweights import in_hull

    REF_DIR.mkdir(exist_ok=True)
    for name in SWEEPS:
        digests = sweep_reference(name)
        (REF_DIR / f"{name}.sha256").write_text("\n".join(digests) + "\n")
        print(f"{name}: {len(digests)} records")
    digests = {}
    for seed in HULL_SEEDS:
        sample = hull_sample(seed)
        verdicts = "".join("1" if in_hull(x, mu) else "0" for mu, x in sample)
        digests[str(seed)] = verdict_digest(verdicts)
    (REF_DIR / f"{HULL}.json").write_text(json.dumps(
        {"points": len(sample), "digests": digests}, indent=0) + "\n")
    print(f"{HULL}: {len(digests)} seeds, {len(sample)} points each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
