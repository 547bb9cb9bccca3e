"""The output gate: recorded answers pass, anything else fails.

Run with: python3 -m pytest -q perfbench/tests
"""

import copy
import json

import pytest

import gate
import run

EXPECTED = json.loads(run.EXPECTED_PATH.read_text(encoding="utf-8"))
JOBS = {f"{w}/{job['id']}": run.job_argv(job, run.SPEC["default_seed"])
        for w, spec in run.SPEC["workloads"].items() for job in spec["jobs"]}


def verdict(key, payload, exit_code=0, stderr="", timed_out=False):
    return gate.check(JOBS[key], exit_code, json.dumps(payload), stderr,
                      timed_out, EXPECTED.get(key))


def test_every_job_has_a_recorded_answer_except_known_defects():
    assert set(EXPECTED) | set(run.SPEC["known_defects"]) == set(JOBS)
    assert not set(EXPECTED) & set(run.SPEC["known_defects"])


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_recorded_answer_passes(key):
    assert verdict(key, EXPECTED[key]) == gate.Verdict("ok")


@pytest.mark.parametrize("key, field, value", [
    ("scan/bv15_seed0", "max_count", 7),
    ("scan/bv15_seed0", "witness", "*****1111000001"),
    ("scan/bv13_full", "within_construction_upper", True),
    ("construct/build18", "density", "17318/262144"),
    ("construct/hitting14", "hits_all", False),
    ("exact/constants", "limit", {}),
    ("exact/basis_subsets", "value", 57),
    ("exact/partition_max", "parts", [3, 3]),
    ("exact/search_max_code", "max_size", 25),
    ("exact/lagrangian", "restarts_used", 255),
])
def test_tampered_payload_is_wrong(key, field, value):
    payload = copy.deepcopy(EXPECTED[key])
    payload[field] = value
    assert verdict(key, payload).status == "wrong"


def test_missing_and_extra_keys_are_wrong():
    payload = dict(EXPECTED["scan/bv15_seed0"])
    del payload["subcubes_at_max"]
    assert verdict("scan/bv15_seed0", payload).status == "wrong"
    payload = dict(EXPECTED["scan/bv15_seed0"], extra=1)
    assert verdict("scan/bv15_seed0", payload).status == "wrong"


def test_exit_status_traceback_and_timeout():
    key, good = "exact/bounds_table", EXPECTED["exact/bounds_table"]
    trace = "Traceback (most recent call last):\n  ...\nKeyError: 0\n"
    assert verdict(key, good, exit_code=1, stderr=trace) == \
        gate.Verdict("crash", "exit 1: KeyError: 0")
    assert verdict(key, good, stderr=trace).status == "crash"
    assert verdict(key, good, exit_code=2).status == "wrong"
    assert verdict(key, good, timed_out=True).status == "timeout"
    assert gate.check(JOBS[key], 0, "not json", "", False, good).status == "wrong"
    assert gate.check(JOBS[key], 0, "[1]", "", False, good).status == "wrong"


def test_lagrangian_value_is_held_to_the_exact_optimum():
    key = "exact/lagrangian"
    base = EXPECTED[key]
    other_seed = dict(base, value=56 / 3375 - 5e-11,
                      point=[1 / 15 + (2e-5 if i % 2 else -2e-5) for i in range(14)]
                      + [1 / 15])
    assert verdict(key, other_seed).ok
    assert verdict(key, dict(base, value=56 / 3375 - 1e-6)).status == "wrong"
    skewed = [0.1] * 5 + [0.05] * 10
    assert verdict(key, dict(base, point=skewed)).status == "wrong"


def test_unrecorded_job_checks_what_holds_for_any_answer():
    key = "construct/hitting16"
    answer = {"command": "hitting", "n": 16, "k": 3, "seed": 0, "size": 8192,
              "target_size": 8192, "met_target": True, "small_layer_cutoff": 3,
              "density_float": 0.125, "schema": 1}
    assert verdict(key, answer).ok
    assert verdict(key, dict(answer, n=15)).status == "wrong"
    assert verdict(key, dict(answer, size=8000)).status == "wrong"
    assert verdict(key, dict(answer, command="build")).status == "wrong"
