"""One pass of a workload in a fresh interpreter.

Reads ``{"ops": [[argv...], ...], "trace": bool}`` as JSON on stdin, runs
every operation as an in-process call to ``knightpaths.cli.main(argv)`` with
stdout and stderr captured (a single closed-loop client: each call starts
when the previous one has returned), and writes one JSON object to stdout:
per-operation exit code, output, measured seconds and seconds at reference
speed (bench/hostspeed.py), the pass wall time, the peak resident memory of
this process, and, when traced, the per-layer figures.

Untraced passes take host-speed samples during the loop; traced passes take
none, so the handler's time never lands in a span.

The package is imported before the timed loop; import cost is measured on
its own as ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import hostspeed


def run_op(cli, argv: list[str], sampler: hostspeed.Sampler | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    stolen = sampler.stolen if sampler else 0.0
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a crashed pass
        rc, error = None, repr(exc)
    end = perf_counter()
    seconds = end - start - ((sampler.stolen - stolen) if sampler else 0.0)
    record = {"rc": rc, "s": seconds, "out": out.getvalue(), "start": start, "end": end}
    if rc != 0:
        record["err"] = error or err.getvalue()
    return record


def main() -> None:
    request = json.load(sys.stdin)
    tr = None
    if request["trace"]:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
    import knightpaths.cli as cli

    sampler = None if tr else hostspeed.Sampler()
    if sampler is None:
        start = perf_counter()
        results = [run_op(cli, argv, None) for argv in request["ops"]]
        wall = perf_counter() - start
    else:
        sampler.sample()
        with sampler:
            start, stolen = perf_counter(), sampler.stolen
            results = [run_op(cli, argv, sampler) for argv in request["ops"]]
            wall = perf_counter() - start - (sampler.stolen - stolen)
        sampler.sample()
    for res in results:
        span = res.pop("start"), res.pop("end")
        if sampler:
            res["ref_s"] = hostspeed.scale(res["s"], sampler.around(*span))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply = {
        "wall_s": wall,
        "peak_rss_mb": peak_kib / 1024,
        "package": cli.__file__,
        "results": results,
    }
    if tr is not None:
        reply["layers"] = tracer.metrics(tr)
        reply["checks"] = tr.check_seconds
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
