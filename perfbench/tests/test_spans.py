"""Self-time arithmetic, the rebinding of wrapped names, and the metric
names the traced run reports.

Run with: python3 -m pytest -q perfbench/tests
"""

import json
import math
import subprocess
import sys

import pytest

import run
import spans
from spans import Span


def span(name, start, end, parent=-1, leaf_s=0.0, info=None):
    return Span(name, start, end, parent, leaf_s, info, "job")


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(1, 3), (2, 5), (8, 12)]) == 6
    assert spans.covered(0, 10, [(2, 5), (1, 3), (3, 4)]) == 4
    assert spans.covered(5, 10, [(0, 6), (9, 20)]) == 2


def test_self_time_subtracts_direct_children_and_counted_calls():
    tree = [
        span("cli.main", 0.0, 10.0),
        span("codes.layered_basis_code", 1.0, 7.0, parent=0, leaf_s=0.5),
        span("codes.layer_words", 2.0, 4.0, parent=1, leaf_s=1.5),
        span("codes.layer_words", 4.0, 6.0, parent=1),
        span("cube.max_subcube_count", 7.5, 9.5, parent=0),
    ]
    # the grandchildren are covered by their parent, not by cli.main again
    assert spans.self_times(tree) == pytest.approx([2.0, 1.5, 0.5, 2.0, 2.0])


def test_outermost_counts_nested_spans_of_a_set_once():
    tree = [
        span("basisprob.limit_constant", 0, 4),
        span("basisprob.limit_interval", 1, 2, parent=0),
        span("basisprob.limit_interval", 5, 6),
        span("cli.main", 6, 9),
        span("basisprob.limit_interval", 7, 8, parent=3),
    ]
    names = {"basisprob.limit_constant", "basisprob.limit_interval"}
    assert [s.start for s in spans.outermost(tree, names)] == [0, 5, 7]


def test_by_value_imports_are_rebound():
    code = (
        "import spans\n"
        "t = spans.Tracer('job'); t.install()\n"
        "from hypercube_codes import cli, codes, extremal, cube, gf2\n"
        "t.sweep()\n"
        "names = [(cli, 'max_subcube_count'), (cli, 'layered_basis_code'),\n"
        "         (codes, 'rank_ints'), (codes, 'layer_words'),\n"
        "         (extremal, 'max_basis_subsets'), (extremal, 'rank_ints'),\n"
        "         (cli, 'cmd_build_verify'), (gf2, 'rank_ints')]\n"
        "print([hasattr(getattr(m, n), '__wrapped__') for m, n in names])\n"
        "print(codes.rank_ints is gf2.rank_ints, sorted(t.counters))\n"
        "print(t.spans[0][0])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                         env=run.job_env(), capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out[0] == str([True] * 8)
    assert out[1].startswith("True [") and "'gf2.rank_ints'" in out[1]
    # the import-time DENSITY_THRESHOLD = limit_interval(40) is recorded
    assert out[2] == "basisprob.limit_interval"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    jobs = {"bv": ["build-verify", "--n", "10", "--d", "3", "--modulus", "6",
                   "--seed", "0", "--format", "json"],
            "subsets": ["basis-subsets", "--k", "3", "--d", "6", "--format", "json"]}
    traces = []
    for name, argv in jobs.items():
        out = work / f"{name}.json"
        subprocess.run([sys.executable, str(run.HERE / "traced_job.py"), str(out),
                        name, *argv], cwd=work, env=run.job_env(), check=True,
                       capture_output=True)
        traces.append(spans.load_trace(out))
    return traces


def test_self_times_and_counted_time_add_up_to_the_root_spans(traced):
    for t in traced:
        roots = sum(s.end - s.start for s in t["spans"] if s.parent < 0)
        counted = sum(seconds for _, seconds in t["counters"].values())
        assert sum(spans.self_times(t["spans"])) + counted == pytest.approx(roots)
        assert all(x >= -1e-9 for x in spans.self_times(t["spans"]))


def test_counts_of_a_traced_run(traced):
    m = spans.layer_metrics(traced)
    assert m["cube.subcubes_scanned"] == math.comb(10, 3) << 7
    assert m["codes.layer_draws"] >= 10
    assert 0 < m["codes.layer_keep_ratio"] <= 1
    assert m["gf2.rank_calls"] > 0
    # build-verify: max_basis_subsets(1, 3); basis-subsets: (3, 6) direct,
    # (2, 5) in the deletion bound and (3, 6) again in the monotone bound
    assert m["extremal.basis_subsets_calls"] == 4
    assert m["extremal.basis_subsets_distinct_ratio"] == 3 / 4
    assert m["codes.layered_s"] >= sum(m[f"codes.layer_words_s.r{r}"]
                                       for r in range(1, 11))


def test_reported_names_match_benchmark_json(traced):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = run.layer_units()
    names = list(units)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(units.items())
    outside_spans = {"cli.import_s", "cli.numpy_import_s", "trace.overhead_s"}
    assert set(spans.layer_metrics(traced)) | outside_spans == set(names)
    assert [m["name"] for m in bench["end_to_end"]] == \
        [m["metric"] for m in run.SPEC["end_to_end"]]
    assert [w["name"] for w in bench["workloads"]] == list(run.SPEC["workloads"])
