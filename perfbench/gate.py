"""Output gate: a fast wrong answer counts as failed.

A job passes only if it exits 0 within its timeout, writes no traceback,
and prints a JSON payload equal to the one recorded for it in
expected.json at the seed commit.  Integers, witnesses, fractions and
the manifest-checked tables are compared exactly.  The Lagrangian is a
float heuristic, so its value is compared with the exact optimum instead.

Verdicts:
  ok       passed
  crash    nonzero exit other than 2, or a traceback: no answer given
  timeout  killed at its timeout
  wrong    exit 2 (the CLI found a manifest mismatch or a failed
           verification), unreadable output, or a payload that differs
           from the recorded answer
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional

# The basis hypergraph at t = 4 has its Lagrangian optimum at the uniform
# point on 15 vertices: 840 edges * 15^-4 = P(4) / 4! = 56/3375.
LAGRANGIAN_T4 = Fraction(56, 3375)
LAGRANGIAN_VERTICES = 15
# Over seeds 0-20, 256 restarts land within 1.1e-10 of the value and
# within 3e-5 of 1/15 in every coordinate.
VALUE_TOL = 1e-8
POINT_TOL = 1e-3
EXIT_MISMATCH = 2


class Verdict(NamedTuple):
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def check(argv: list[str], exit_code: int, stdout: str, stderr: str,
          timed_out: bool, expected: Optional[dict]) -> Verdict:
    if timed_out:
        return Verdict("timeout")
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if exit_code == EXIT_MISMATCH:
        return Verdict("wrong", f"exit 2: {last}")
    if exit_code != 0 or "Traceback (most recent call last)" in stderr:
        return Verdict("crash", f"exit {exit_code}: {last}")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return Verdict("wrong", "stdout is not one JSON object")
    if not isinstance(payload, dict):
        return Verdict("wrong", "stdout is not one JSON object")
    problems = payload_problems(argv, payload, expected)
    if problems:
        return Verdict("wrong", "; ".join(problems))
    return Verdict("ok")


def payload_problems(argv: list[str], payload: dict,
                     expected: Optional[dict]) -> list[str]:
    if payload.get("command") != argv[0]:
        return [f"command {payload.get('command')!r}, expected {argv[0]!r}"]
    if argv[0] == "lagrangian":
        problems = _lagrangian_problems(payload)
        skip = {"value", "point"}
    else:
        problems = []
        skip = set()
    if expected is None:
        # No recorded answer: the job failed at the seed commit
        # (known_defects in spec.json).  Check what holds for any answer.
        return problems + _echo_problems(argv, payload)
    for key in sorted(set(expected) | set(payload)):
        if key in skip:
            continue
        if key not in payload:
            problems.append(f"{key} missing")
        elif key not in expected:
            problems.append(f"unexpected key {key}")
        elif payload[key] != expected[key]:
            problems.append(f"{key} = {_short(payload[key])}, "
                            f"expected {_short(expected[key])}")
    return problems


def _lagrangian_problems(payload: dict) -> list[str]:
    problems = []
    value = payload.get("value")
    point = payload.get("point")
    if not isinstance(value, float) or abs(value - float(LAGRANGIAN_T4)) > VALUE_TOL:
        problems.append(f"value {value!r} not within {VALUE_TOL} of 56/3375")
    if not isinstance(point, list) or len(point) != LAGRANGIAN_VERTICES \
            or any(abs(x - 1 / LAGRANGIAN_VERTICES) > POINT_TOL for x in point) \
            or abs(sum(point) - 1) > 1e-9:
        problems.append("point is not the uniform optimum on the simplex")
    return problems


def _echo_problems(argv: list[str], payload: dict) -> list[str]:
    """Integer flags given on the command line come back unchanged."""
    problems = []
    for flag, value in zip(argv, argv[1:]):
        key = flag[2:].replace("-", "_")
        if flag.startswith("--") and value.isdigit() and key in payload \
                and payload[key] != int(value):
            problems.append(f"{key} = {payload[key]!r}, expected {value}")
    if "size" in payload and "density_float" in payload and "n" in payload \
            and payload["density_float"] != payload["size"] / (1 << payload["n"]):
        problems.append("density_float disagrees with size")
    return problems


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."
