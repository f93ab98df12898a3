"""coendcalc benchmark: seeded certified-solve workloads, closed loop, one client.

    python3 bench/run.py --workload end-iso-qq --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Generates instances from the seed, sends them one at a time to a fresh
worker process that solves each as the CLI does, checks every report
against the known answer, and prints the metrics by name with units.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fresh interpreters timed per run for setup_s, after one untimed warm-up
# that fills the bytecode cache as an installed package would have.
SETUP_REPS = 15
SETUP_CODE = (
    "import sys, coendcalc\n"
    "from coendcalc.inputdoc import parse_document\n"
    "parse_document(sys.stdin.read())\n"
)
# Host-speed reference runs timed before each instance (see hostspeed.py).
REF_REPS = 3
# A worker taking longer than this to solve one instance is stuck.
REPLY_TIMEOUT_S = 120

END, RT, BG = "end-iso-qq", "roundtrip-regular-gf", "bialgebra-grading-qq"
ALL = (END, RT, BG)
FIELD_OPS = ("add", "sub", "mul", "inv", "coerce")

# Per-layer metrics: (traced function, stats reported, workloads on which
# it must be called at least once or the traced run fails).
LAYERS = [
    ("inputdoc.parse_document", ("total_s",), ALL),
    ("diagram.hom_basis", ("calls", "total_s"), (BG,)),
    ("diagram.validate_diagram", ("total_s",), (BG,)),
    ("linalg.rref", ("calls", "self_s", "cells"), (RT,)),
    ("linalg.kernel_basis", ("total_s",), (RT,)),
    ("linalg.quotient_split", ("total_s",), (RT,)),
    ("linalg.Matrix.__mul__", ("calls", "self_s", "madds"), (RT, BG)),
    ("linalg.Matrix.apply", ("calls", "self_s"), (END,)),
    ("linalg.Matrix.col_terms", ("calls", "self_s"), (END,)),
    ("linalg.kron", ("calls", "self_s"), (BG, RT)),
    ("linalg.Matrix.__init__", ("calls", "entries"), (RT, BG)),
    ("linalg.VectorSpan.add", ("calls", "self_s", "useful_ratio"), (RT,)),
    *((f"fields.{op}", ("calls",), (END, BG)) for op in FIELD_OPS),
    ("coend.relation_space", ("total_s",), (RT, BG)),
    ("coend.compute_coend", ("total_s",), (RT, BG)),
    ("coend.verify_coalgebra", ("total_s",), (BG,)),
    ("coend.induced_coaction", ("total_s",), (RT,)),
    ("coend.is_coalgebra_map", ("total_s",), (RT,)),
    ("coend.coalgebra_structure", ("calls", "total_s"), (RT, BG)),
    ("end.compute_end", ("total_s",), (END,)),
    ("end.verify_algebra", ("total_s",), (END,)),
    ("end.end_algebra", ("calls", "total_s"), (END,)),
    ("end.duality_isomorphism", ("self_s", "total_s"), (END,)),
    ("tensor.validate_tensor", ("self_s", "total_s"), (BG,)),
    ("tensor.coend_multiplication", ("self_s", "total_s"), (BG,)),
    ("tensor.verify_bialgebra", ("self_s", "total_s"), (BG,)),
    ("reconstruct.comodule_hom_span", ("self_s", "total_s"), (RT,)),
    ("reconstruct.canonical_map", ("self_s", "total_s"), (RT,)),
    ("reconstruct.roundtrip_verify", ("self_s", "total_s"), (RT,)),
    ("cli.run_command", ("total_s",), ALL),
    ("cli.render", ("total_s",), ALL),
]
# Work counts the tracer keeps in its ``work`` field, by reported name.
WORK_STATS = ("cells", "madds", "entries")
UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "useful_ratio": "ratio"}
OVERHEAD = "trace.overhead_s"


def layer_metric_names() -> list:
    return [f"{key}.{stat}" for key, stats, _ in LAYERS for stat in stats] + [OVERHEAD]


def _layer_value(stat: dict, name: str):
    if name in WORK_STATS:
        return stat["work"]
    if name == "useful_ratio":
        return stat["work"] / stat["calls"] if stat["calls"] else 0.0
    return stat[name]


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_record(workload, seed, trace, instances) -> dict:
    """What identifies a run, so runs can be compared later."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=False,
            )
            sha = probe.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "workload": workload.name,
        "command": workload.command,
        "field": workload.field,
        "size": workload.size,
        "seed": seed,
        "instances": instances,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def rescaled(samples: list) -> dict:
    """Median wall time rescaled to the nominal host (see hostspeed.py).

    ``samples`` holds (wall time, reference times taken around it) pairs.
    """
    walls = [wall for wall, _ in samples]
    scaled = [wall * hostspeed.NOMINAL_S / statistics.median(refs) for wall, refs in samples]
    return {"value": statistics.median(scaled), "wall_s": statistics.median(walls),
            "samples": len(samples)}


def measure_setup(text: str) -> dict:
    """Fresh interpreters importing coendcalc and parsing ``text``, each
    timed between two runs of the host-speed reference."""
    env = _worker_env()
    walls, refs = [], []
    for rep in range(SETUP_REPS + 1):
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], input=text, text=True, env=env, check=True,
        )
        if rep:
            walls.append(time.perf_counter() - start)
        refs += hostspeed.sample(1)
    return rescaled([(wall, refs[i:i + 2]) for i, wall in enumerate(walls)])


def rescaled_solve(replies: list) -> dict:
    """Each instance is rescaled by the reference times taken just before
    it and just before the next instance."""
    return rescaled([
        (r["solve_s"], r["ref_s"] + (replies[i + 1]["ref_s"] if i + 1 < len(replies) else []))
        for i, r in enumerate(replies)
        if "solve_s" in r
    ])


def solve_in_worker(command: str, text: str, trace: bool) -> dict:
    """Solve one instance in a fresh worker process and return its reply."""
    request = json.dumps({"command": command, "text": text, "trace": trace})
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=request + "\n",
        capture_output=True, text=True, env=_worker_env(), timeout=REPLY_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def instance_problems(workload, reply: dict, trace: bool) -> list:
    """Why one instance counts as failed; empty when it passed."""
    if "error" in reply:
        return [reply["error"].strip()]
    problems = workload.check(reply["code"], reply["report"])
    if trace and not problems:
        traced = reply["traced"]
        if "error" in traced:
            return [traced["error"].strip()]
        if traced["report"] != reply["report"]:
            return ["traced report differs from the untraced report"]
    return problems


def run_workload(workload, seed, seconds, trace: bool) -> dict:
    """One run: set-up timing, then instances until ``seconds`` have passed."""
    setup = None if trace else measure_setup(workload.document(seed, 0))
    attempted, failed, replies, errors = 0, 0, [], []
    deadline = time.perf_counter() + seconds
    while not attempted or time.perf_counter() < deadline:
        index = attempted
        attempted += 1
        text = workload.document(seed, index)
        # Timed here, between instances, so the reference shares no heap
        # with coendcalc.
        gc.collect()
        ref_s = hostspeed.sample(REF_REPS)
        try:
            reply = solve_in_worker(workload.command, text, trace)
        except (OSError, RuntimeError, subprocess.TimeoutExpired) as err:  # worker stuck or gone
            failed += 1
            errors.append(f"seed {seed} instance {index}: {err}")
            break
        reply["ref_s"] = ref_s
        replies.append(reply)
        problems = instance_problems(workload, reply, trace)
        if problems:
            failed += 1
            errors.append(f"seed {seed} instance {index}: {'; '.join(problems)}")
    ok = [r for r in replies if "solve_s" in r]
    result = {
        "record": run_record(workload, seed, int(trace), attempted),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {},
    }
    if not ok:
        errors.append("no instance completed")
    elif trace:
        result["metrics"], result["dominant"] = trace_metrics(workload, ok, errors)
    else:
        solve = rescaled_solve(replies)
        result["timings"] = {"solve_s": solve, "setup_s": setup}
        result["metrics"] = {
            "solve_s": {"value": solve["value"], "unit": "s"},
            "setup_s": {"value": setup["value"], "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in ok),
                            "unit": "MiB"},
        }
    return result


def trace_metrics(workload, replies, errors) -> tuple:
    """Per-layer medians over the traced instances, with coverage checks,
    and the dominant-layer verdict."""
    traced = [r["traced"] for r in replies if "stats" in r.get("traced", {})]
    if not traced:
        errors.append("no traced instance completed")
        return {}, None
    metrics = {}
    for key, stats, must_call in LAYERS:
        per_instance = [t["stats"].get(key) for t in traced]
        if any(s is None for s in per_instance):
            errors.append(f"{key} was not traced")
            continue
        if workload.name in must_call and not sum(s["calls"] for s in per_instance):
            errors.append(f"{key} has zero calls on {workload.name}")
        for stat in stats:
            metrics[f"{key}.{stat}"] = {
                "value": statistics.median(_layer_value(s, stat) for s in per_instance),
                "unit": "count" if stat in WORK_STATS else UNITS[stat],
            }
    traced_solve = statistics.median(t["solve_s"] for t in traced)
    untraced_solve = statistics.median(r["solve_s"] for r in replies)
    metrics[OVERHEAD] = {"value": traced_solve - untraced_solve, "unit": "s"}
    return metrics, dominant_layer(workload, traced)


def dominant_layer(workload, traced) -> dict:
    """The timed function with the largest total time, leaving out the
    functions that enclose the predicted one (its callers), which contain
    its time by construction."""
    totals = {}
    for t in traced:
        for key in t["timed"]:
            totals[key] = totals.get(key, 0.0) + t["stats"][key]["total_s"]
    excluded = set()
    for t in traced:
        excluded.update(t["enclosing"].get(workload.dominant, ()))
    candidates = {k: v for k, v in totals.items() if k not in excluded}
    top = max(candidates, key=candidates.get)
    return {
        "predicted": workload.dominant,
        "measured": top,
        "confirmed": top == workload.dominant,
        "excluded_callers": sorted(excluded),
    }


def report(result: dict):
    """Human-readable lines; the JSON result line comes after them."""
    rec = result["record"]
    name = rec["workload"]
    print("record " + json.dumps(rec, sort_keys=True))
    for line in result["errors"]:
        print(f"{name} FAILED {line}", file=sys.stderr)
    timings = result.get("timings", {})
    if timings:
        print("timings " + json.dumps(timings, sort_keys=True))
    for metric, m in result["metrics"].items():
        line = f"{name}  {metric:44s} {m['value']:.6g} {m['unit']}"
        t = timings.get(metric)
        if t:
            what = "instances" if metric == "solve_s" else "fresh interpreters"
            line += (f"  (median of {t['samples']} {what}, rescaled to the nominal "
                     f"host; {t['wall_s']:.4f} s wall)")
        print(line)
    dom = result.get("dominant")
    if dom:
        print("dominant " + json.dumps(dom, sort_keys=True))
        verdict = "confirmed" if dom["confirmed"] else "NOT confirmed"
        print(f"{name}  dominant layer {dom['measured']} (predicted "
              f"{dom['predicted']}: {verdict}; callers left out: "
              f"{', '.join(dom['excluded_callers']) or 'none'})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}  {'failed_frac':44s} {failed / attempted:.4g} ratio "
          f"({failed} of {attempted})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coendcalc" / "__init__.py").is_file():
        print(f"error: coendcalc sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
        report(result)
        results.append(result)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["record"]["workload"] + "."
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    correct = not any(r["errors"] for r in results) and all(
        m["value"] is not None for m in metrics.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
