"""Baseline of the benchmark: run-to-run spread over seeds, in two sets.

    python3 bench/spread.py --seeds 10 --seconds 30 [--workload NAME ...] [--out PATH]

For each workload, runs ``run.py`` untraced once per seed, one run at a
time, for two sets of seeds (``--first-seed`` on, then the next
``--seeds``), and then once traced on the first seed.  It prints for each
end-to-end metric its median, quartiles and quartile spread
(q3 - q1) / median next to the bound in BENCHMARK.json, the same figures
for the plain wall times behind the rescaled ``solve_s`` and ``setup_s``,
how far the second set's median moved from the first's, and the traced
run's dominant-layer verdict.  A metric is steady when its spread stays
below a third of its bound; ``setup_s`` is reported but not held to that.
``--out`` writes all of it as JSON, in the layout of the committed
bench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WALL = ("solve_s", "setup_s")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One run; returns (result line, {tag: JSON} of its tagged lines)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("record", "timings", "dominant"):
            tagged[tag] = json.loads(rest)
    return json.loads(lines[-1]), tagged


def summarize(values: list, bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    figures = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        figures.update(bound=bound, steady=spread < bound / 3)
    return figures


def print_figures(workload: str, label: str, f: dict):
    steady = {True: "  steady", False: "  NOT steady"}.get(f.get("steady"), "")
    print(f"{workload}  {label:17s} median {f['median']:.4f}  q1 {f['q1']:.4f}  "
          f"q3 {f['q3']:.4f}  spread {f['spread']:.4f}  bound {f.get('bound', '-')}{steady}",
          flush=True)


def run_set(workload: str, seeds: range, seconds: float, bounds: dict) -> tuple:
    """Untraced runs on ``seeds``; returns (figures, all correct)."""
    values = {name: [] for name in bounds}
    walls = {name: [] for name in WALL}
    records, correct = [], True
    for seed in seeds:
        result, tagged = run_once(workload, seed, seconds, 0)
        correct &= result["correct"] and result["failed"] == 0
        records.append(tagged["record"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        for name in WALL:
            walls[name].append(tagged["timings"][name]["wall_s"])
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{k} {v[-1]:.4f}" for k, v in values.items()
        ) + f"  instances {tagged['record']['instances']}", flush=True)
    figures = {
        "metrics": {name: summarize(v, bounds[name]) for name, v in values.items()},
        "wall": {name: summarize(v, None) for name, v in walls.items()},
        "records": records,
    }
    for name, f in figures["metrics"].items():
        print_figures(workload, name, f)
    for name, f in figures["wall"].items():
        print_figures(workload, f"{name} (wall)", f)
    return figures, correct


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first = args.first_seed
    seed_sets = [range(first, first + args.seeds),
                 range(first + args.seeds, first + 2 * args.seeds)]
    workloads = args.workload or names
    baseline = {
        "claim": None,
        "run_seconds": args.seconds,
        "seed_sets": [[s.start, s.stop - 1] for s in seed_sets],
        "sets": [{}, {}],
        "second_set_median_change": {},
        "traced": {},
    }
    all_correct = True
    for workload in workloads:
        for i, seeds in enumerate(seed_sets):
            baseline["sets"][i][workload], correct = run_set(workload, seeds, args.seconds, bounds)
            all_correct &= correct
        one, two = (s[workload]["metrics"] for s in baseline["sets"])
        change = {name: two[name]["median"] / one[name]["median"] - 1 for name in bounds}
        baseline["second_set_median_change"][workload] = change
        print(f"{workload}  second set median change: " + "  ".join(
            f"{k} {v:+.4f}" for k, v in change.items()), flush=True)

        result, tagged = run_once(workload, first, args.seconds, 1)
        all_correct &= result["correct"] and result["failed"] == 0
        dominant = tagged.get("dominant")
        baseline["traced"][workload] = {
            "seed": first,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "dominant": dominant,
            "metrics": result["metrics"],
        }
        print(f"{workload}  traced seed {first}: correct {result['correct']}  dominant "
              f"{dominant and dominant['measured']}  confirmed "
              f"{dominant and dominant['confirmed']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
