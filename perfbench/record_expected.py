#!/usr/bin/env python3
"""Record every job's JSON payload at the default seed in expected.json.

    python3 perfbench/record_expected.py

The gate holds every later commit to these answers, so run this only at
a commit whose answers are trusted (the benchmark's seed commit) and
review the diff of expected.json.  A job that does not exit 0 gets no
entry; the gate keeps failing it until the program is fixed.
"""

import json
import shutil
import time

import run


def main() -> int:
    seed = run.SPEC["default_seed"]
    env = run.job_env()
    recorded = {}
    for workload in run.SPEC["workloads"]:
        work = run.ROOT / ".bench_work" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        deadline = time.perf_counter() + run.RUN_BUDGET_S
        for o in run.run_pass(workload, seed, work, env, deadline, {}).outcomes:
            if o.process.exit_code == 0 and "Traceback" not in o.process.stderr:
                recorded[o.job] = json.loads(o.process.stdout)
            else:
                print(f"{o.job}: exit {o.process.exit_code}, not recorded")
        shutil.rmtree(work, ignore_errors=True)
    run.EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"recorded {len(recorded)} payloads in {run.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
