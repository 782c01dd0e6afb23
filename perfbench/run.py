"""heatloss benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload desk_fit --seed 1 --seconds 15 --trace 0

With ``--trace 0`` every CLI call is a fresh ``python -m heatloss.cli``
child process, started one at a time, so interpreter start-up and import
are included.  Passes repeat until ``--seconds`` of calls have been timed.
With ``--trace 1`` the same calls run in this process through
``heatloss.cli.main(argv)``, alternating an untraced and a traced pass,
followed by an untimed allocation pass and an import breakdown.

Every call's outputs are checked against independent references; a call
that exits nonzero, leaves an output missing or fails its check counts as
failed.  The second-to-last line of output is a full report (machine, work
sizes, every metric with its unit); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 1
when any check failed, and 2 when the program cannot be started at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from oracle import CheckFailed
from workloads import WORKLOADS, Call, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
POOL_PASSES = 2
# A run must end within 180 s: no pass starts after LAST_PASS_START_S and a
# child still running at CALL_DEADLINE_S is killed (and counts as failed).
START = time.perf_counter()
LAST_PASS_START_S = 100.0
CALL_DEADLINE_S = 165.0


class Outcome:
    """What one CLI call did: its latency, memory and check result."""

    def __init__(self, call: Call, seconds: float, rss_kb: int, error: str | None, stdout: str) -> None:
        self.call, self.seconds, self.rss_kb, self.stdout = call, seconds, rss_kb, stdout
        self.error = error  # set when the call failed before its check ran
        self.pairs: list[tuple[int, int]] = []

    def check(self) -> None:
        if self.error is None:
            try:
                self.pairs = self.call.check(self.stdout)
            except CheckFailed as exc:
                self.error = str(exc)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                self.error = f"malformed output: {exc!r}"


def child_env(workload: Workload) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if workload.threads is None:
        env.pop("HEATLOSS_THREADS", None)
    else:
        env["HEATLOSS_THREADS"] = workload.threads
    return env


def run_child(argv: list[str], env: dict, work: Path) -> tuple[float, int, int, str, str]:
    """Run one child to completion: (seconds, exit code, max RSS kB, stdout, stderr)."""
    out_path, err_path = work / "call.stdout", work / "call.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=work)
        killer = threading.Timer(max(1.0, START + CALL_DEADLINE_S - time.perf_counter()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss, out_path.read_text(), err_path.read_text()


def time_import(env: dict, work: Path) -> float:
    seconds, code, _, _, err = run_child(["-c", "import heatloss.cli"], env, work)
    if code != 0:
        raise RuntimeError(f"cannot import heatloss.cli: {err.strip()[-400:]}")
    return seconds


def clear_outputs(calls: list[Call]) -> None:
    for call in calls:
        for path in call.outputs:
            path.unlink(missing_ok=True)


def child_pass(calls: list[Call], env: dict, work: Path) -> list[Outcome]:
    clear_outputs(calls)
    outcomes = []
    for call in calls:
        seconds, code, rss, stdout, stderr = run_child(["-m", "heatloss.cli", *call.argv], env, work)
        error = None if code == 0 else f"{call.kind} exited {code}: {stderr.strip()[-300:]}"
        outcomes.append(Outcome(call, seconds, rss, error, stdout))
    for outcome in outcomes:  # checks stay outside the timed calls
        outcome.check()
    return outcomes


def in_process_pass(calls: list[Call], threads: str | None, cli, tracer=None) -> list[Outcome]:
    """The same calls through ``heatloss.cli.main``; traced when ``tracer`` is given.

    ``threads`` is ``HEATLOSS_THREADS`` for the pass; None keeps the CLI's default.
    """
    clear_outputs(calls)
    saved = os.environ.pop("HEATLOSS_THREADS", None)
    if threads is not None:
        os.environ["HEATLOSS_THREADS"] = threads
    outcomes = []
    try:
        for call in calls:
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    if tracer is None:
                        code = cli.main(call.argv)
                    else:
                        with tracer.span("cli.main", {"command": call.kind}):
                            code = cli.main(call.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a bare traceback is a failed call, not a crashed benchmark
                    code, stderr = 1, io.StringIO(repr(exc))
            seconds = time.perf_counter() - start
            error = None if code == 0 else f"{call.kind} returned {code}: {stderr.getvalue().strip()[-300:]}"
            outcomes.append(Outcome(call, seconds, 0, error, stdout.getvalue()))
    finally:
        os.environ.pop("HEATLOSS_THREADS", None)
        if saved is not None:
            os.environ["HEATLOSS_THREADS"] = saved
    for outcome in outcomes:
        outcome.check()
    return outcomes


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, but
    never below the upper quartile.

    Below 40 samples that percentile lies below the upper quartile (below
    20, not even above the median), so the upper quartile stands in: the
    sample with a quarter of the samples (at least one) beyond it.  The
    maximum of a few calls follows the slowest moment of a shared machine
    more than the program.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(max(1, min(10, n // 4)), n - 1)
    return ordered[n - 1 - beyond], f"p{100.0 * (n - beyond) / n:.4g}"


def end_to_end(passes: list[list[Outcome]], setup: list[float]) -> tuple[dict, dict, dict]:
    """The declared metrics, the workload-specific extras with units, and notes."""
    outcomes = [o for p in passes for o in p]
    latencies = [o.seconds for o in outcomes]
    op_tail, label = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(o.seconds for o in p) for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": op_tail,
        "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024.0,
    }
    extra = {
        "ops_failed_ratio": (sum(o.error is not None for o in outcomes) / len(outcomes), "ratio"),
    }
    pairs = [pair for o in outcomes for pair in o.pairs]
    if pairs:
        extra["count_mae"] = (float(np.mean([abs(p - t) for p, t in pairs])), "heads")
    for key, unit in (("fit_px_steps", "px*step/s"), ("gt_px_boxes", "px*box/s"), ("peaks_px", "px/s")):
        mine = [o for o in outcomes if key in o.call.work]
        if mine:
            work = sum(o.call.work[key] for o in mine)
            extra[f"{key}_per_s"] = (work / sum(o.seconds for o in mine), unit)
    info = {"op_tail_percentile": label, "op_samples": len(latencies), "passes": len(passes),
            "latencies_s": latencies}
    return metrics, extra, info


def timed_run(calls: list[Call], env: dict, seconds: float, work: Path):
    time_import(env, work)  # warm-up: byte-compiles src, fills the page cache
    setup = [time_import(env, work) for _ in range(SETUP_REPEATS)]
    passes: list[list[Outcome]] = []
    measured = 0.0
    # Stop at the pass count nearest to `seconds`, not the first past it: a
    # pass length near seconds / k would otherwise flip between k and k + 1
    # passes from run to run, and the maximum latency with it.
    while not passes or (measured * (1 + 0.5 / len(passes)) < seconds
                         and time.perf_counter() - START < LAST_PASS_START_S):
        outcomes = child_pass(calls, env, work)
        passes.append(outcomes)
        measured += sum(o.seconds for o in outcomes)
    return passes, *end_to_end(passes, setup)


def traced_run(workload: Workload, calls: list[Call], env: dict, seconds: float, seed: int):
    sys.path.insert(0, str(SRC))
    import heatloss.cli
    import tracing

    tracer = tracing.Tracer()
    passes: list[list[Outcome]] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    while not walls[True] or (sum(walls[False] + walls[True]) < seconds
                              and time.perf_counter() - START < LAST_PASS_START_S):
        # alternate which side goes first, so warm-up costs fall on both
        for traced in (False, True) if len(walls[True]) % 2 == 0 else (True, False):
            if traced:
                with tracer.recording():
                    outcomes = in_process_pass(calls, workload.threads, heatloss.cli, tracer)
            else:
                outcomes = in_process_pass(calls, workload.threads, heatloss.cli)
            passes.append(outcomes)
            walls[traced].append(sum(o.seconds for o in outcomes))
    metrics = tracer.metrics()
    if workload.pool_probe:
        metrics |= pool_probe(calls, heatloss.cli, tracing, passes, walls[False])
    else:
        metrics |= dict.fromkeys(tracing.POOL_METRICS, 0.0)
    metrics |= tracing.alloc_pass(seed)
    metrics |= tracing.import_breakdown(sys.executable, env)
    metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(walls[False])
    info = {"traced_wall_s": walls[True], "untraced_wall_s": walls[False]}
    return passes, metrics, {}, info


def pool_probe(calls: list[Call], cli, tracing, passes: list, serial_walls: list[float]) -> dict[str, float]:
    """The pass again with the CLI's default worker count: untraced passes
    for the speed-up over the single-thread passes, one traced pass for the
    pool's efficiency.  Its outcomes are checked like any other pass."""
    walls = []
    for _ in range(POOL_PASSES):
        passes.append(in_process_pass(calls, None, cli))
        walls.append(sum(o.seconds for o in passes[-1]))
    tracer = tracing.Tracer()
    with tracer.recording():
        passes.append(in_process_pass(calls, None, cli, tracer))
    traced = tracer.metrics()
    return {
        "cli.experiment_pool.workers": traced["cli.experiment.workers"],
        "cli.experiment_pool.parallel_efficiency": traced["cli.experiment.parallel_efficiency"],
        "cli.experiment_pool.cpu_efficiency": traced["cli.experiment.cpu_efficiency"],
        "cli.experiment_pool.speedup": statistics.median(serial_walls) / statistics.median(walls),
    }


def cache_sizes() -> dict[str, int | None]:
    """L2 and last-level cache sizes of cpu0, read from sysfs."""
    sizes: dict[int, int] = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            kind = (index / "type").read_text().strip()
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
            sizes[level] = int(text.rstrip("KM")) * scale
    return {"l2_bytes": sizes.get(2), "llc_bytes": sizes[max(sizes)] if sizes else None}


def machine() -> dict:
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        **cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so children are killed and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "heatloss" / "cli.py").is_file():
        print(f"no heatloss sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env(workload)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        calls = workload.make(args.seed, work)
        try:
            if args.trace:
                passes, metrics, extra, info = traced_run(workload, calls, env, args.seconds, args.seed)
            else:
                passes, metrics, extra, info = timed_run(calls, env, args.seconds, work)
        except (RuntimeError, ImportError, subprocess.CalledProcessError) as exc:
            print(f"benchmark could not run the program: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    outcomes = [o for p in passes for o in p]
    failures = [o.error for o in outcomes if o.error is not None]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "working_set": {"array_bytes": workload.array_bytes, **cache_sizes()},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        | {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "info": info,
        "failures": failures[:5],
    }
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
