"""Run one hypercube-codes command with span recording.

    python3 perfbench/traced_job.py <spans.json> <job id> <command> [args...]

The tracer is installed before the package is imported; the CLI's
main() then runs on the remaining arguments, and the spans are written
when the command ends, whether it returns or raises.  Output and exit
status are those of the plain CLI.
"""

import sys

from spans import Tracer


def main() -> int:
    out, job, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(job)
    tracer.install()
    try:
        from hypercube_codes import cli
        tracer.sweep()
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
