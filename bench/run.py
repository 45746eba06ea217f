"""knightpaths benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload query-mix --seed 1 --seconds 24 --trace 0

Run from the root of a source tree (the parent of this directory).  Each
pass of the workload runs in a fresh interpreter (bench/worker.py) with the
tree's ``src`` on PYTHONPATH; passes and set-up probes run one after another,
never in parallel.

--trace 0 measures the end-to-end metrics: ``setup_s`` (median of ten
fresh interpreters importing ``knightpaths.cli`` and building its parser,
half before the passes and half after), and as many untraced passes as fit
in --seconds (at least one), reporting the median over passes of the pass
time and of the pass's median and 90th-percentile operation time, and the
median peak RSS of the pass processes.  Times are at reference speed (bench/hostspeed.py); the
same figures as measured are printed too, but are not part of the result.

--trace 1 runs one untraced pass and two traced passes and reports the
per-layer metrics of bench/tracer.py.  The counts of the two traced passes
must repeat exactly, and the workload's bypass predictions must hold.

Every output is checked by the oracle in bench/workloads.py after the timed
passes.  The last line of stdout is the result object; the lines before it
summarise the run and record what it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 10
SETUP_KERNELS = 10
PASS_TIMEOUT_S = 150
# The probe signals once the parser is built; only then does it put this
# directory on its path and time the reference kernel.
SETUP_CODE = f"""
import knightpaths.cli as c
c.build_parser()
print(flush=True)
import sys
sys.path.insert(0, sys.argv[1])
import hostspeed
print(*(hostspeed.time_kernel() for _ in range({SETUP_KERNELS})))
"""

CHECK_NAMES = (
    "1-table-fixtures",
    "2-sequence-fixtures",
    "3-cross-engine",
    "4-bijections",
    "5-kernel-certificates",
    "6-threshold-law",
    "7-asymptotics",
    "8-step-refinement",
    "9-tiling",
)

#: Per-layer metrics that must read exactly 0 on a workload, because the
#: workload never reaches that layer (the bypass predictions in README.md).
BYPASS = {
    "exact-large": ("laurent.series_calls",),
    "series-deep": ("counting.calls",),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("KNIGHTPATHS_ORDER", None)
    return env


def setup_probes(env: dict[str, str], count: int) -> list[tuple[float, float]]:
    """Seconds from spawning an interpreter to a built CLI parser, per probe:
    (measured, at reference speed).  Each probe times the reference kernel
    itself once its parser is built, so the kernel runs on the core and in
    the process that did the set-up."""
    times = []
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(BENCH)],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        ) as proc:
            proc.stdout.readline()
            seconds = perf_counter() - start
            kernel_times = [float(t) for t in proc.stdout.readline().split()]
            if proc.wait(timeout=60) != 0 or len(kernel_times) != SETUP_KERNELS:
                raise RuntimeError("importing knightpaths.cli failed")
        times.append((seconds, hostspeed.scale(seconds, kernel_times)))
    return times


def run_pass(ops: list[list[str]], trace: bool, env: dict[str, str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps({"ops": ops, "trace": trace}),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr[-2000:]}")
    reply = json.loads(proc.stdout)
    if Path(reply["package"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"worker imported {reply['package']}, not this tree's src")
    return reply


def grade(ops: list[list[str]], passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every operation of every pass."""
    verdicts: dict[tuple, str | None] = {}
    attempted = failed = 0
    reasons = []
    for reply in passes:
        for i, (argv, res) in enumerate(zip(ops, reply["results"])):
            key = (i, res["rc"], res["out"])
            if key not in verdicts:
                try:
                    verdicts[key] = workloads.check(argv, res["rc"], res["out"])
                except Exception as exc:  # unparseable output is a failed operation
                    verdicts[key] = f"oracle could not read the output: {exc!r}"
                if verdicts[key] and res.get("err"):
                    verdicts[key] += f" ({res['err'].strip()[-300:]})"
            attempted += 1
            if verdicts[key]:
                failed += 1
                reasons.append(f"{' '.join(argv)}: {verdicts[key]}")
    return attempted, failed, reasons


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated within the data."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(ops, seconds: int, env) -> tuple[dict, dict, list[dict]]:
    """The end-to-end metrics at reference speed, the same figures as
    measured (printed, not gated), and the passes."""
    # Half the set-up probes run before the passes and half after, so the
    # median spans the run instead of one moment of the host's load.
    setup_probes(env, 1)  # fills the bytecode cache; not counted
    setup = setup_probes(env, SETUP_PROBES // 2)
    passes = []
    started = perf_counter()
    while True:
        passes.append(run_pass(ops, False, env))
        longest = max(p["wall_s"] for p in passes)
        if perf_counter() - started + longest > seconds:
            break
    setup += setup_probes(env, SETUP_PROBES - SETUP_PROBES // 2)

    def figures(key: str, setup_times: list[float]) -> dict:
        # per pass, then the median over passes, so the figures do not move
        # with the number of passes that fit in --seconds
        def over_passes(figure):
            return statistics.median(figure([r[key] for r in p["results"]]) for p in passes)

        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (over_passes(sum), "s"),
            "op_p50_ms": (over_passes(statistics.median) * 1000, "ms"),
            "op_p90_ms": (over_passes(lambda s: quantile(s, 90)) * 1000, "ms"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }

    values = figures("ref_s", [ref for _, ref in setup])
    measured = figures("s", [raw for raw, _ in setup])
    del measured["peak_rss_mb"]
    return values, measured, passes


def per_layer(workload: str, ops, env) -> tuple[dict, list[dict], list[str]]:
    untraced = run_pass(ops, False, env)
    traced = [run_pass(ops, True, env) for _ in range(2)]
    problems = []
    first, second = (t["layers"] for t in traced)
    for name in tracer.COUNT_METRICS:
        if first[name] != second[name]:
            problems.append(f"{name} did not repeat: {first[name]} then {second[name]}")
    for name in BYPASS.get(workload, ()):
        if first[name] != 0:
            problems.append(f"bypass prediction broken: {name} = {first[name]} on {workload}")
    values = {}
    for name in first:
        unit = "s" if name.endswith("_s") else "count"
        if name.endswith("_ratio"):
            unit = "ratio"
        if unit == "s":
            values[name] = (statistics.median(t["layers"][name] for t in traced), unit)
        else:
            values[name] = (first[name], unit)
    for check in CHECK_NAMES:
        seconds = [t["checks"].get(check, 0.0) for t in traced]
        values[f"verification.check.{check}.s"] = (statistics.median(seconds), "s")
    overhead = statistics.median(t["wall_s"] for t in traced) - untraced["wall_s"]
    values["trace.overhead_s"] = (overhead, "s")
    return values, [untraced, *traced], problems


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "knightpaths" / "cli.py").is_file():
        print(f"error: no knightpaths sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the oracle, which runs in this process
    env = child_env()
    ops = workloads.build(args.workload, args.seed)
    problems: list[str] = []
    measured: dict = {}
    if args.trace:
        values, passes, problems = per_layer(args.workload, ops, env)
    else:
        values, measured, passes = end_to_end(ops, args.seconds, env)
    attempted, failed, reasons = grade(ops, passes)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "ops": len(ops),
        "passes": len(passes),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }
    for line in reasons[:20] + problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(ops)} ops x {len(passes)} passes")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in measured.items():
        print(f"measured.{name} {value:.6g} {unit} (not at reference speed)")
    print(f"fail_ratio {failed / attempted:.6g} (ops {attempted})")
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
