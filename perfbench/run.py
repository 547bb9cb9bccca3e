#!/usr/bin/env python3
"""Benchmark of the hypercube-codes command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Each workload in spec.json is a fixed list of real CLI invocations.  Jobs
run one after another, each in a fresh process, as a closed loop with a
single client, so at most this script and one job process are alive.
The program comes from src/ of the checkout; it gets only the generated
arguments.  Every job's output goes through the gate in gate.py.

--trace 0: repeat the job list until --seconds seconds are used up, with a few
fresh `--version` processes before each pass, and print the end-to-end
metrics (scaled_median says how times are scaled to a fixed machine speed).
--trace 1: one plain pass and one traced pass (traced_job.py), and print
the per-layer metrics.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  `correct` is false when
a job gave a wrong answer; a job that crashed or timed out gave none and
counts only in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
EXPECTED_PATH = HERE / "expected.json"

# --version probes before each pass, so they spread over the run.
SETUP_PROBES = 2
# Machine speed: a fixed pure-Python loop timed in this process, a few
# times before each job and after the last job of a pass (scaled_median).
SPEED_LOOPS = 400_000
SPEED_PROBES = 3
# The loop's time on the 2-vCPU Xeon VM in its fastest phase; end-to-end
# times are reported at this speed.
NOMINAL_SPEED_S = 0.0225
IMPORT_PROBES = 3
# A median of at least three passes, however slow the program gets.
MIN_PASSES = 3
JOB_TIMEOUT_S = 120.0
# Passes stop being added once a run would pass this, so a run ends well
# inside 180 s even when the program gets slower.
RUN_BUDGET_S = 150.0
VERSION_ARGV = ["--version"]


class Process(NamedTuple):
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


class Outcome(NamedTuple):
    job: str
    argv: list
    process: Process
    verdict: gate.Verdict


class Pass(NamedTuple):
    wall_s: float
    outcomes: list
    speed_s: float

    @property
    def scale(self) -> float:
        return NOMINAL_SPEED_S / self.speed_s


def run_process(cmd: list, cwd: Path, env: dict, timeout: float) -> Process:
    """Run cmd to its end; wall time from launch to exit, CPU and max-RSS
    of that process alone (os.wait4)."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024,
                   out_path.read_text(encoding="utf-8", errors="replace"),
                   err_path.read_text(encoding="utf-8", errors="replace"),
                   killed.is_set())


def job_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HYPERCUBE_CODES_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_cmd(argv: list) -> list:
    return [sys.executable, "-m", "hypercube_codes.cli", *argv]


def job_argv(job: dict, seed: int) -> list:
    return [arg.format(S=seed) for arg in job["argv"]]


def run_pass(workload: str, seed: int, work: Path, env: dict, deadline: float,
             expected: dict, traced: bool = False) -> Pass:
    """One closed-loop pass over the workload's jobs; the gate runs after
    the last job exits, outside the timed interval."""
    ran, speed = [], []
    start = time.perf_counter()
    for job in SPEC["workloads"][workload]["jobs"]:
        speed += [speed_probe() for _ in range(SPEED_PROBES)]
        argv = job_argv(job, seed)
        key = f"{workload}/{job['id']}"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_job.py"),
                   str(work / f"spans-{job['id']}.json"), key, *argv]
        else:
            cmd = cli_cmd(argv)
        timeout = min(JOB_TIMEOUT_S, max(1.0, deadline - time.perf_counter()))
        ran.append((key, argv, run_process(cmd, work, env, timeout)))
    wall = time.perf_counter() - start - sum(speed)
    speed += [speed_probe() for _ in range(SPEED_PROBES)]
    outcomes = [Outcome(key, argv, p, gate.check(argv, p.exit_code, p.stdout,
                                                 p.stderr, p.timed_out,
                                                 expected.get(key)))
                for key, argv, p in ran]
    return Pass(wall, outcomes, statistics.median(speed))


def speed_probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(SPEED_LOOPS):
        total += i * i
    return time.perf_counter() - start


def probe_setup(work: Path, env: dict) -> tuple[list, list]:
    """Wall times of fresh `--version` processes, and any failures."""
    walls, failures = [], []
    for _ in range(SETUP_PROBES):
        p = run_process(cli_cmd(VERSION_ARGV), work, env, JOB_TIMEOUT_S)
        walls.append(p.wall_s)
        if p.exit_code != 0 or not p.stdout.startswith("hypercube-codes "):
            failures.append(f"--version exit {p.exit_code}: {p.stderr.strip()[-200:]}")
    return walls, failures


def probe_imports(work: Path, env: dict) -> tuple[float, float]:
    """Median self import time of the package's modules, and median
    cumulative import time of numpy, from `python -X importtime`."""
    own_s, numpy_s = [], []
    for _ in range(IMPORT_PROBES):
        p = run_process([sys.executable, "-X", "importtime", "-c",
                         f"import {spans.PACKAGE}.cli"], work, env, JOB_TIMEOUT_S)
        own = numpy = 0
        for line in p.stderr.splitlines():
            fields = line.partition("import time:")[2].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name == spans.PACKAGE or name.startswith(spans.PACKAGE + "."):
                own += int(fields[0])
            elif name == "numpy":
                numpy = int(fields[1])
        own_s.append(own / 1e6)
        numpy_s.append(numpy / 1e6)
    return statistics.median(own_s), statistics.median(numpy_s)


def layer_units() -> dict:
    """Per-layer metric name -> unit, in spec order, with {r} expanded."""
    units = {}
    for layer in SPEC["layers"]:
        weights = range(1, spans.LAYER_WORDS_MAX_R + 1) if "{r}" in layer["metric"] \
            else [None]
        for r in weights:
            units[layer["metric"].format(r=r)] = layer["unit"]
    return units


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy}


def pass_cpu_s(p: Pass) -> float:
    return sum(o.process.cpu_s for o in p.outcomes)


def scaled_median(passes: list, measure) -> float:
    """Median over the passes of measure(pass), each scaled to the
    nominal machine speed.

    On a 2-vCPU Xeon VM shared with other tenants, CPU-bound code runs at
    1.0-1.5x its best time, in bursts of under a second and in phases of
    several minutes.  A run of under a minute sits inside one phase, so
    every statistic of raw times moves with the phase: in sets of ten
    runs of one workload, the spread between the quartiles of the runs'
    figures reached 0.30 of their median, more than any bound allows.
    The speed loop slows under the same contention (a pass's raw time
    went with the loop's time to the power 0.65-0.94), so each pass's
    times are multiplied by NOMINAL_SPEED_S over the loop's median time
    during that pass; on the same kind of runs that cut the spread to
    0.04-0.09.  Raw medians are printed beside the scaled ones."""
    return statistics.median(measure(p) * p.scale for p in passes)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = job_env()
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    deadline = time.perf_counter() + RUN_BUDGET_S
    # Unmeasured: writes bytecode caches and warms the file cache.
    run_process(cli_cmd(VERSION_ARGV), work, env, JOB_TIMEOUT_S)

    setup, problems = [], []
    if trace:
        import_s, numpy_import_s = probe_imports(work, env)
        passes = [run_pass(workload, seed, work, env, deadline, expected),
                  run_pass(workload, seed, work, env, deadline, expected,
                           traced=True)]
        found = spans.layer_metrics([spans.load_trace(path)
                                     for path in sorted(work.glob("spans-*.json"))])
        found["cli.import_s"] = import_s
        found["cli.numpy_import_s"] = numpy_import_s
        found["trace.overhead_s"] = passes[1].wall_s - passes[0].wall_s
        metrics = {name: {"value": found[name], "unit": unit}
                   for name, unit in layer_units().items()}
    else:
        passes = []
        start = time.perf_counter()
        # Passes until --seconds is used up; a pass that would end past
        # the budget is not started.
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            if passes and time.perf_counter() + max(p.wall_s for p in passes) > deadline:
                break
            walls, failures = probe_setup(work, env)
            problems += failures
            passes.append(run_pass(workload, seed, work, env, deadline, expected))
            # The probes ran just before the pass, at the speed it measured.
            setup += [(wall, passes[-1].scale) for wall in walls]
    shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(not o.verdict.ok for o in outcomes)
    if not trace:
        metrics = {
            "wall_s": {"value": scaled_median(passes, lambda p: p.wall_s),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(wall * scale
                                                   for wall, scale in setup),
                        "unit": "s"},
            "cpu_s": {"value": scaled_median(passes, pass_cpu_s), "unit": "s"},
            "peak_rss_mb": {"value": max(o.process.rss_mb for o in outcomes),
                            "unit": "MB"},
            "ok_frac": {"value": 1 - failed / len(outcomes), "unit": "ratio"},
        }
    report = {
        "correct": not problems and all(o.verdict.status != "wrong"
                                        for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print_summary(workload, seed, trace, passes, setup, problems, report)
    return report


def print_summary(workload, seed, trace, passes, setup, problems, report):
    jobs = len(passes[0].outcomes)
    mode = "plain pass + traced pass" if trace else f"{len(passes)} passes"
    print(f"== {workload}  seed {seed}  {mode} x {jobs} jobs")
    if trace:
        for name, m in report["metrics"].items():
            print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    else:
        walls = [p.wall_s for p in passes]
        cpus = [pass_cpu_s(p) for p in passes]
        raw_setup = [wall for wall, _ in setup]
        speeds = [p.speed_s for p in passes]
        m = report["metrics"]
        n_jobs = report["attempted"]
        k = len(passes)
        print(f"  (times at a speed loop of {NOMINAL_SPEED_S * 1e3:.2f} ms; measured "
              f"{statistics.median(speeds) * 1e3:.2f} ms, range "
              f"{min(speeds) * 1e3:.2f}-{max(speeds) * 1e3:.2f}; raw figures follow)")
        print(f"  wall_s       {m['wall_s']['value']:10.4f} s      median of {k} passes, "
              f"launch of the first job to exit of the last; raw median "
              f"{statistics.median(walls):.4f}, range {min(walls):.4f}-{max(walls):.4f}")
        print(f"  setup_s      {m['setup_s']['value']:10.4f} s      median of "
              f"{len(setup)} probes; raw median {statistics.median(raw_setup):.4f}, "
              f"range {min(raw_setup):.4f}-{max(raw_setup):.4f}")
        print(f"  cpu_s        {m['cpu_s']['value']:10.4f} s      median of {k} passes; "
              f"raw median {statistics.median(cpus):.4f}, "
              f"range {min(cpus):.4f}-{max(cpus):.4f}")
        print(f"  peak_rss_mb  {m['peak_rss_mb']['value']:10.1f} MB     max of "
              f"{n_jobs} job processes")
        print(f"  failed_frac  {report['failed'] / n_jobs:10.4f} ratio  "
              f"{report['failed']} of {n_jobs} jobs")
        for runs in zip(*(p.outcomes for p in passes)):
            job_walls = [o.process.wall_s for o in runs]
            print(f"    {runs[0].job:28s} fastest {min(job_walls):8.4f} s  median "
                  f"{statistics.median(job_walls):8.4f} s  max-RSS "
                  f"{max(o.process.rss_mb for o in runs):6.1f} MB")
    for i, p in enumerate(passes, 1):
        for o in p.outcomes:
            if not o.verdict.ok:
                known = " (known defect)" if o.job in SPEC["known_defects"] else ""
                print(f"  failed: pass {i} {o.job}: {o.verdict.status}"
                      f"{known}: {o.verdict.detail}")
    for text in problems:
        print(f"  setup probe failed: {text}")
    print(f"  machine {json.dumps(machine())}")
    print(json.dumps(report), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so run_process kills and reaps its job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / spans.PACKAGE / "cli.py").is_file():
        print(f"error: no src/{spans.PACKAGE}/cli.py under {ROOT}; run from "
              "the root of a hypercube-codes checkout", file=sys.stderr)
        return 2
    workloads = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_workload(workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
