#!/usr/bin/env python3
"""Stage-by-stage timings of the residue-code construction and its scan.

Run from the root of a checkout, naming the source tree to measure:

    python3 bench/stages.py --src src --tag mytag

It writes bench/BENCH_<tag>.json.  For each n (default 13 to 16, then
18 to 24 by twos, so that the sizes of the benchmark's scan workload,
13 and 15, are among them; d = 5, --modulus 6, seed 0) it records
medians over --repeats in-process runs of these stages, of the wall time
(time.perf_counter) in `stages` and of the CPU time (time.process_time),
which does not count time the host gives to other work, in `cpu_stages`:

  draw_s           codes.build_layer_vectors(n)
  table_s.r<r>     gf2.independent_masks(vectors, r) for layer r's first draw
  tables_s         the same for every draw the build makes, redraws included
  build_s          cli._construct_code for `build --modulus 6 --out FILE`:
                   draws, tables, residue choice, word listing and saving
  residue_words_s  build_s - draw_s - tables_s - save_s, per repeat: the
                   residue choice and the listing of the kept words
  save_s           codes.save_code of the built code
  scan_s           cube.max_subcube_count(code, 5)

and, in fresh processes, the wall time and peak RSS (os.wait4) of
`build-verify --n <n> --d 5 --modulus 6 --seed 0`, with the size,
max_count and subcubes_at_max of its payload, so that a fast wrong answer
shows in the same file.  The fresh processes all run first, while this
one has loaded neither numpy nor the package, as a child's ru_maxrss
counts the pages it was forked with.

The `hitting` section times verify_hitting, read from the package root,
on the hitting sets subcube_hitting_set(n, k) at (n, k, d) = (14, 2, 7),
(16, 2, 9), (18, 2, 9), (18, 3, 11), (20, 2, 11) and (20, 3, 12), and on
the weight-class codes weight_class_code(n, d + 1, 0), which meet every
d-subcube, at (n, d) = (16, 5), (18, 5), (18, 9) and (20, 11): the rows
whose n is among --n, all within the default scan budget.  Each row
holds the median in-process wall and CPU time of the check (check_s and
check_cpu_s), the median wall time and peak RSS of a fresh process that
builds the code and runs the check once, and the check's hits_all and
missed subcube.

`speed` holds the median time of the pure-Python loop that
perfbench/run.py uses as its speed probe, and `scale` the factor that
brings times to that benchmark's nominal machine speed.  The script uses
only names that both the numpy scans and the truth-table walks define,
so one copy measures either source tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
D = 5
MODULUS = 6
SEED = 0
# no default scan budget refuses: n = 24 at d = 5 is 2.2e10 subcubes
BUDGET = 10 ** 12
# perfbench/run.py's speed probe and its nominal machine speed
SPEED_LOOPS = 400_000
NOMINAL_SPEED_S = 0.0225


def speed_probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(SPEED_LOOPS):
        total += i * i
    return time.perf_counter() - start


def timed(fn, *args):
    """fn(*args) and its (wall, CPU) seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, (time.perf_counter() - wall, time.process_time() - cpu)


def medians(runs: dict, clock: int) -> dict:
    """Per key, the median of one clock (0 wall, 1 CPU) over the (wall, CPU) runs."""
    return {key: statistics.median(t[clock] for t in values) for key, values in runs.items()}


def size_of(masks) -> int:
    """The count of a layer's independent supports, from an int table or an array."""
    return masks.bit_count() if isinstance(masks, int) else len(masks)


def all_draws(codes, layers, n):
    """Every layer draw a build makes, redraws included, by the retry rule
    of layered_basis_code."""
    from hypercube_codes.gf2 import independent_masks
    draws = []
    for r, first in sorted(layers.items()):
        target = codes.DENSITY_THRESHOLD * math.comb(n, r)
        attempt, best = first, size_of(independent_masks(first.vectors, r))
        draws.append(first)
        while best <= target and attempt.retry < codes.MAX_RETRIES:
            attempt = codes._draw_layer(n, r, SEED, attempt.retry + 1)
            draws.append(attempt)
            best = max(best, size_of(independent_masks(attempt.vectors, r)))
    return draws


def in_process(n: int, repeats: int, work: Path) -> dict:
    from hypercube_codes import cli, codes, cube
    from hypercube_codes.gf2 import independent_masks
    args = argparse.Namespace(n=n, seed=SEED, construction="layered", modulus=MODULUS,
                              residue=None, strict=False, out=str(work / f"code{n}.txt"))
    layers = codes.build_layer_vectors(n, seed=SEED)
    draws = all_draws(codes, layers, n)
    runs = {"draw_s": [], "tables_s": [], "build_s": [], "save_s": [],
            "residue_words_s": [], "scan_s": []}
    per_r = {r: [] for r in layers}
    for _ in range(repeats):
        _, draw = timed(codes.build_layer_vectors, n, SEED)
        tables = (0.0, 0.0)
        for a in draws:
            _, t = timed(independent_masks, a.vectors, a.weight)
            tables = (tables[0] + t[0], tables[1] + t[1])
            if a.retry == 0:
                per_r[a.weight].append(t)
        (code, payload), build = timed(cli._construct_code, args, "build")
        _, save = timed(codes.save_code, args.out, code)
        report, scan = timed(cube.max_subcube_count, code, D, BUDGET)
        rest = tuple(b - dr - t - sv for b, dr, t, sv in zip(build, draw, tables, save))
        for key, value in (("draw_s", draw), ("tables_s", tables), ("build_s", build),
                           ("save_s", save), ("scan_s", scan), ("residue_words_s", rest)):
            runs[key].append(value)
    stages, cpu_stages = medians(runs, 0), medians(runs, 1)
    per_r = {f"r{r}": t for r, t in per_r.items()}
    stages["table_s"], cpu_stages["table_s"] = medians(per_r, 0), medians(per_r, 1)
    return {"stages": stages, "cpu_stages": cpu_stages, "draws": len(draws),
            "residue": payload["residue"],
            "size": payload["size"], "size_before_residue": payload["size_before_residue"],
            "scan_max_count": report.max_count, "scan_subcubes_at_max": report.subcubes_at_max}


HITTING_ROWS = [("hitting_set", 14, 2, 7), ("hitting_set", 16, 2, 9), ("hitting_set", 18, 2, 9),
                ("hitting_set", 18, 3, 11), ("hitting_set", 20, 2, 11), ("hitting_set", 20, 3, 12),
                ("weight_class", 16, None, 5), ("weight_class", 18, None, 5),
                ("weight_class", 18, None, 9), ("weight_class", 20, None, 11)]

# a fresh process that builds one row's code and checks it once
HITTING_DRIVER = """
import json, sys
from hypercube_codes import subcube_hitting_set, verify_hitting, weight_class_code
kind, n, k, d = sys.argv[1:]
n, d = int(n), int(d)
code = (subcube_hitting_set(n, int(k)).code if kind == "hitting_set"
        else weight_class_code(n, d + 1, 0))
report = verify_hitting(code, d)
missed = report.missed and [list(report.missed.free), report.missed.base]
print(json.dumps([report.hits_all, missed]))
"""


def pattern(n: int, missed) -> str | None:
    """A missed subcube, given by its free coordinates and base, as the
    CLI writes it: * on the free coordinates."""
    if missed is None:
        return None
    free, base = missed
    return "".join("*" if i in free else str(base >> i & 1) for i in range(n))


def fresh(src: Path, argv: list, repeats: int, work: Path) -> tuple[float, float, str]:
    """The median wall time and peak RSS (os.wait4) of `repeats` fresh
    processes running argv, and their stdout, which must agree.  Run
    them before this process loads numpy: a child's ru_maxrss counts the
    pages it was forked with, so from a 32 MB parent every child reads at
    least 32 MB."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    walls, rss, outs = [], [], []
    for _ in range(repeats):
        with open(work / "out.txt", "wb") as out, open(work / "err.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            walls.append(time.perf_counter() - start)
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"{argv[1:]} failed:\n" + (work / "err.txt").read_text())
        rss.append(usage.ru_maxrss / 1024)
        outs.append((work / "out.txt").read_text(encoding="utf-8"))
    if len(set(outs)) != 1:
        raise SystemExit(f"{argv[1:]} gave different outputs")
    return statistics.median(walls), statistics.median(rss), outs[0]


def fresh_build_verify(src: Path, n: int, repeats: int, work: Path) -> dict:
    argv = [sys.executable, "-m", "hypercube_codes.cli", "build-verify", "--n", str(n),
            "--d", str(D), "--modulus", str(MODULUS), "--seed", str(SEED),
            "--budget", str(BUDGET), "--format", "json"]
    wall, rss, out = fresh(src, argv, repeats, work)
    doc = json.loads(out)
    return {"wall_s": wall, "peak_rss_mb": rss,
            "size": doc["size"], "max_count": doc["max_count"],
            "subcubes_at_max": doc["subcubes_at_max"], "witness": doc["witness"]}


def fresh_hitting(src: Path, row: tuple, repeats: int, work: Path) -> dict:
    kind, n, k, d = row
    argv = [sys.executable, "-c", HITTING_DRIVER, kind, str(n), str(k), str(d)]
    wall, rss, out = fresh(src, argv, repeats, work)
    hits_all, missed = json.loads(out)
    return {"wall_s": wall, "peak_rss_mb": rss, "hits_all": hits_all,
            "missed": pattern(n, missed)}


def in_process_hitting(row: tuple, repeats: int, fresh_row: dict) -> dict:
    import hypercube_codes as pkg
    kind, n, k, d = row
    code = (pkg.subcube_hitting_set(n, k).code if kind == "hitting_set"
            else pkg.weight_class_code(n, d + 1, 0))
    times = []
    for _ in range(repeats):
        report, t = timed(pkg.verify_hitting, code, d)
        times.append(t)
    missed = report.missed and (report.missed.free, report.missed.base)
    answer = {"hits_all": report.hits_all, "missed": pattern(n, missed)}
    if answer != {key: fresh_row.pop(key) for key in answer}:
        raise SystemExit(f"hitting row {row}: the fresh process disagreed")
    return {"code": kind, "n": n, "k": k, "d": d, "size": len(code),
            "check_s": statistics.median(t[0] for t in times),
            "check_cpu_s": statistics.median(t[1] for t in times),
            "fresh": fresh_row, **answer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", required=True, help="the source tree to measure")
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--n", type=int, nargs="+", default=[13, 14, 15, 16, 18, 20, 22, 24])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out-dir", default=str(HERE))
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as cli sets it for its processes
    specs = [row for row in HITTING_ROWS if row[1] in args.n]
    rows, hitting = [], []
    speed = [speed_probe()]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        # every fresh process first, while this one is small (see fresh)
        build_verify = {n: fresh_build_verify(src, n, args.repeats, work) for n in args.n}
        checks = [fresh_hitting(src, row, args.repeats, work) for row in specs]
        speed.append(speed_probe())
        for n in args.n:
            rows.append({"n": n, **in_process(n, args.repeats, work),
                         "build_verify": build_verify[n]})
            speed.append(speed_probe())
            print(json.dumps(rows[-1]), file=sys.stderr)
        for row, check in zip(specs, checks):
            hitting.append(in_process_hitting(row, args.repeats, check))
            speed.append(speed_probe())
            print(json.dumps(hitting[-1]), file=sys.stderr)
    import numpy  # for its version
    doc = {"tag": args.tag, "d": D, "modulus": MODULUS, "seed": SEED,
           "repeats": args.repeats, "statistic": "median",
           "speed_s": statistics.median(speed),
           "scale": NOMINAL_SPEED_S / statistics.median(speed),
           "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                       "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()},
           "rows": rows, "hitting": hitting}
    path = Path(args.out_dir) / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
