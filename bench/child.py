"""Child interpreter of the benchmark: imports radixca, then runs CLI jobs.

    python3 bench/child.py --setup-only
    python3 bench/child.py

Both forms first import radixca.cli and build its parser, then print the
time.monotonic() reading at that moment ("ready"), which run.py subtracts
from its own reading taken just before it started this process, and the
step time of a calibration slice run right after it ("cal"). With
--setup-only the child exits there. Otherwise it serves requests, one JSON
object per line on stdin, one reply per line on stdout:

  {"op": "job", "id": ID, "argv": [...]}  runs radixca.cli.main(argv), then
      one calibration slice, and replies {"rc", "wall", "probes", "cal",
      "stderr"}; wall is perf_counter time around the call, less the time
      the probes took; probes and cal are step times
  {"op": "trace", "on": true}             installs the tracer
  {"op": "trace", "on": false}            removes it and replies with what
      it recorded since it was installed
  {"op": "exit"}                          replies {"maxrss_kb"} and exits

What radixca prints goes to buffers, never to the reply stream.

Calibration is a fixed piece of pure-Python work that uses no radixca
code: steps of rule 30 on a 256-site ring. Its step time tells how fast
this shared machine runs Python at that moment, and no change to radixca
can move it. A slice of CAL_STEPS steps runs after set-up and after every
job. While an untraced job runs, a timer signal also runs a probe of
PROBE_STEPS steps every PROBE_EVERY_S seconds, between two bytecodes of
the job. run.py scales each job's wall time by the slices on either side
of it and the probes taken during it.
"""

import sys
import time

from radixca import cli

cli.build_parser()
READY = time.monotonic()

import io  # noqa: E402  (imports after the timed set-up)
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

CAL_STEPS = 800  # a slice: about 20 ms on the baseline machine
PROBE_STEPS = 40  # a probe: about 1 ms
PROBE_EVERY_S = 0.05
CAL_RULE = tuple((30 >> i) & 1 for i in range(8))  # elementary rule 30


def calibrate(steps: int = CAL_STEPS) -> float:
    """Seconds per step of rule 30 on a 256-site ring, over this many steps."""
    cells = [0] * 256
    cells[128] = 1
    start = time.perf_counter()
    for _ in range(steps):
        cells = [CAL_RULE[4 * cells[i - 1] + 2 * cells[i] + cells[i + 1 - 256]] for i in range(256)]
    return (time.perf_counter() - start) / steps


probes: list[float] = []  # step times of the probes of the running job
probe_s = 0.0  # seconds those probes took


def _probe(signum, frame) -> None:
    global probe_s
    start = time.perf_counter()
    probes.append(calibrate(PROBE_STEPS))
    probe_s += time.perf_counter() - start


def run_job(argv: list[str], tracer) -> dict:
    """Runs one job; probes run during it unless it is traced, since a traced
    span would count a probe's time as the function's own."""
    global probe_s
    out, err = io.StringIO(), io.StringIO()
    main = cli.main  # looked up per call: the tracer may have replaced it
    probes.clear()
    probe_s = 0.0
    if tracer is None:
        signal.signal(signal.SIGALRM, _probe)
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            rc = main(argv)
        except SystemExit as exc:  # a CLI may exit rather than return its code
            rc = exc.code
        except Exception:  # a traceback is a failed job, not a dead child
            rc = None
            traceback.print_exc()
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    if tracer is not None:
        tracer.end_job()
    return {
        "rc": rc,
        "wall": wall - probe_s,
        "probes": list(probes),
        "cal": calibrate(),
        "stderr": err.getvalue()[-2000:],
    }


def summary(tracer) -> dict:
    detached: dict[str, list] = {}
    for (name, _thread), (calls, cpu_s) in tracer.detached.items():
        agg = detached.setdefault(name, [0, 0.0])
        agg[0] += calls
        agg[1] += cpu_s
    return {
        "stats": tracer.stats,
        "detached": detached,
        "spans": tracer.spans,
        "measures": tracer.measures,
    }


def serve() -> None:
    from tracer import Tracer

    reply_stream = sys.stdout
    tracer = Tracer()
    tracing = False
    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "job":
            tracer.job = request["id"]
            reply = run_job(request["argv"], tracer if tracing else None)
        elif op == "trace" and request["on"]:
            tracer.reset()
            tracer.install()
            tracing = True
            reply = {}
        elif op == "trace":
            tracer.uninstall()
            tracing = False
            reply = summary(tracer)
        elif op == "exit":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            reply_stream.write(json.dumps({"maxrss_kb": usage.ru_maxrss}) + "\n")
            reply_stream.flush()
            return
        else:
            raise ValueError(f"unknown request {op!r}")
        reply_stream.write(json.dumps(reply) + "\n")
        reply_stream.flush()


if __name__ == "__main__":
    print(json.dumps({"ready": READY, "cal": calibrate()}), flush=True)
    if "--setup-only" not in sys.argv[1:]:
        serve()
