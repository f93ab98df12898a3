"""Benchmark worker: solves one instance sent by ``run.py`` over a pipe.

Reads one JSON request on stdin, ``{"command", "text", "trace"}``, answers
it with one JSON line on stdout and exits; ``run.py`` starts a fresh
worker for every instance, as each CLI run is a fresh process.  The
instance follows the CLI's path: ``parse_document`` on the text, then
``run_command`` and ``json.dumps`` of the report exactly as
``coendcalc.cli.main`` writes it.  Only ``run_command`` plus
``json.dumps`` is timed.  The reply also gives ``peak_rss_mb``: how far
the peak resident memory rose during the solve above the level the
worker had after its imports and the request.  That rise is the memory
the instance needed; the interpreter and the imported modules are left
out.  With ``trace`` set, the instance is then solved a second time under
the tracer, and the reply carries both reports and the per-function stats
of the traced solve.

Needs ``src`` on ``PYTHONPATH``; run.py sets it.
"""

from __future__ import annotations

import gc
import json
import sys
import traceback
from time import perf_counter

# Called through their modules, so the tracer's wrappers are picked up.
from coendcalc import cli, inputdoc
from coendcalc.errors import CoendcalcError

from tracer import Tracer


def solve(command: str, text: str, tracer: Tracer | None = None) -> dict:
    """One instance, as the CLI runs it; exit code 2 on an input error."""
    try:
        doc = inputdoc.parse_document(text)
        gc.collect()
        start = perf_counter()
        report, code = cli.run_command(command, doc)
        solved = perf_counter()
        out = json.dumps(report, indent=2, sort_keys=True) + "\n"
        end = perf_counter()
    except CoendcalcError as err:
        return {"code": 2, "error": str(err)}
    if tracer is not None:
        tracer.record("cli.render", end - solved)
    return {"code": code, "report": out, "solve_s": end - start}


def traced_solve(command: str, text: str, tracer: Tracer) -> dict:
    with tracer:
        reply = solve(command, text, tracer)
    reply["stats"] = tracer.snapshot()
    reply["enclosing"] = {k: sorted(v) for k, v in tracer.enclosing.items() if v}
    reply["timed"] = sorted(tracer.timed)
    return reply


def memory_kib(field: str) -> int:
    """``VmRSS`` (resident now) or ``VmHWM`` (peak resident) of this process.

    Read from /proc rather than ``ru_maxrss``: Linux carries ``ru_maxrss``
    over from the parent across fork and exec, so it can report the
    parent's peak.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not in /proc/self/status")


def main() -> int:
    request = json.loads(sys.stdin.readline())
    gc.collect()
    base_kib = memory_kib("VmRSS")
    try:
        reply = solve(request["command"], request["text"])
        reply["peak_rss_mb"] = (memory_kib("VmHWM") - base_kib) / 1024
        if request["trace"]:
            reply["traced"] = traced_solve(request["command"], request["text"], Tracer())
    except Exception:  # reported to run.py, which counts the instance failed
        reply = {"code": 3, "error": traceback.format_exc()}
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
