"""Check that the benchmark is steady: repeat runs and report each spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]

Runs ``run.py`` once per seed, one run at a time, with the settings of
``BENCHMARK.json``.  For every end-to-end metric it prints the median, the
quartile spread ``(q3 - q1) / median`` of the per-run values, the bound,
and whether the spread stays below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, quartile_spread  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(done.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: incorrect output")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        env = json.loads(done.stdout.splitlines()[-2])["env"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            + f" load={env['loadavg_start'].split()[0]}"
            f" probe_ms={env['speed_probe_ms_start']:.2f}/{env['speed_probe_ms_end']:.2f}",
            flush=True)

    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        spread = quartile_spread(vals)
        verdict = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:16} median {statistics.median(vals):.6g} "
              f"{metric['unit']:5} spread {spread:.4f} bound {metric['bound']} "
              f"{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
