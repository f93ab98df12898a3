"""Self-test of the benchmark's own parts, on small instances (seconds).

    python3 bench/selftest.py

Checks that BENCHMARK.json lists the metrics run.py reports, that the
generators are deterministic and their known answers hold, that tracing
changes no report byte, that two traced solves of one instance give
identical counts, and that the tracer leaves coendcalc as it found it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Sizes small enough that each traced solve takes well under a second.
SMALL = {"end-iso-qq": 2, "roundtrip-regular-gf": 2, "bialgebra-grading-qq": 4}
COUNTS = ("calls", "work")


def check_spec():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [m["name"] for m in spec["per_layer"]] != run.layer_metric_names():
        problems.append("BENCHMARK.json per_layer differs from run.LAYERS")
    names = {m["name"] for m in spec["end_to_end"]}
    if names != {"solve_s", "setup_s", "peak_rss_mb"}:
        problems.append(f"unexpected end_to_end metrics {sorted(names)}")
    return problems


def check_workload(name, tracer):
    w, size, problems = WORKLOADS[name], SMALL[name], []
    text = w.document(7, 0, size)
    if text != w.document(7, 0, size):
        problems.append(f"{name}: generator is not deterministic")
    if text == w.document(7, 1, size):
        problems.append(f"{name}: instances 0 and 1 are identical")
    plain = worker.solve(w.command, text)
    problems += [f"{name}: {p}" for p in w.check(plain["code"], plain["report"], size)]
    first = worker.traced_solve(w.command, text, tracer)
    second = worker.traced_solve(w.command, text, tracer)
    for traced in (first, second):
        if traced["report"] != plain["report"]:
            problems.append(f"{name}: traced report differs from the untraced one")
    for key, stat in first["stats"].items():
        for count in COUNTS:
            if stat[count] != second["stats"][key][count]:
                problems.append(f"{name}: {key}.{count} differs between two traced runs")
    for key, _, must_call in run.LAYERS:
        if name in must_call and not first["stats"].get(key, {}).get("calls"):
            problems.append(f"{name}: {key} has zero calls")
    return problems


def check_uninstall():
    from coendcalc import cli, linalg, reconstruct

    before = (linalg.Matrix.__mul__, linalg.rref, reconstruct.kron, cli.COMMANDS["end"])
    with Tracer():
        during = (linalg.Matrix.__mul__, linalg.rref, reconstruct.kron, cli.COMMANDS["end"])
    after = (linalg.Matrix.__mul__, linalg.rref, reconstruct.kron, cli.COMMANDS["end"])
    problems = []
    if any(a is b for a, b in zip(before, during)):
        problems.append("tracer left a function unwrapped while installed")
    if any(a is not b for a, b in zip(before, after)):
        problems.append("tracer did not restore every original")
    return problems


def main() -> int:
    tracer = Tracer()
    problems = check_spec() + check_uninstall()
    for name in WORKLOADS:
        problems += check_workload(name, tracer)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
