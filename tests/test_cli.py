"""Command line surface: output shapes, exit codes, determinism."""

import csv
import gc
import hashlib
import io
import json
import re
import time

import pytest

from hypercube_codes import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out), err


def test_constants_text_and_json(capsys):
    code, out, err = run(capsys, ["constants", "--t-max", "4"])
    assert code == 0
    assert "basis_probability(2)" in out
    assert "0.666666666667" in out

    code, doc, _ = run_json(capsys, ["constants", "--t-max", "4"])
    assert code == 0
    assert doc["schema"] == 1
    rows = {r["t"]: (r["numerator"], r["denominator"])
            for r in doc["probabilities"]}
    assert rows[2] == (2, 3)
    assert rows[3] == (24, 49)
    assert doc["limit"]["two_digit_rounding"] == "0.29"


def test_constants_interval_tightens(capsys):
    _, doc, _ = run_json(capsys, ["constants", "--t-max", "40"])
    lower = doc["limit"]["lower_decimal"]
    upper = doc["limit"]["upper_decimal"]
    assert lower.startswith("0.2887880950")
    assert upper.startswith("0.2887880950")


@pytest.mark.parametrize("t_max, key", [(2, "lower_decimal"), (64, "width_decimal")])
def test_a_zero_decimal_is_written_in_fixed_point(capsys, t_max, key):
    # a quantized Decimal zero keeps its exponent: str gave 0E-12
    _, doc, _ = run_json(capsys, ["constants", "--t-max", str(t_max)])
    assert doc["limit"][key] == "0.000000000000"
    for fmt in ("text", "csv"):
        code, out, _ = run(capsys, ["constants", "--t-max", str(t_max), "--format", fmt])
        assert code == 0 and "0E-12" not in out
    # a nonzero width keeps the form it had
    _, doc, _ = run_json(capsys, ["constants", "--t-max", "40"])
    assert doc["limit"]["width_decimal"] == "2.1E-11"


def test_bounds_table_against_manifest(capsys):
    code, doc, err = run_json(capsys, ["bounds-table", "--d-max", "8"])
    assert code == 0
    assert err == ""
    by_d = {row["d"]: row for row in doc["rows"]}
    assert by_d[5] == {"d": 5, "product_partition_lower": 7,
                       "partition_sum_lower": 8, "construction_upper": 8}
    assert by_d[6]["construction_upper"] == 16

    code, out, _ = run(capsys, ["bounds-table", "--d-max", "6", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,product_partition_lower,partition_sum_lower,construction_upper"
    assert lines[4] == "4,5,5,5"


def test_bounds_table_detects_manifest_drift(capsys, monkeypatch):
    doctored = cli.load_reference_manifest()
    doctored["partition_sum_lower"]["4"] = 99
    monkeypatch.setattr(cli, "load_reference_manifest", lambda: doctored)
    code, out, err = run(capsys, ["bounds-table", "--d-max", "5"])
    assert code == 2
    assert "reference mismatch" in err
    assert "d=4" in err


def test_basis_subsets_command(capsys):
    code, doc, _ = run_json(capsys, ["basis-subsets", "--k", "2", "--d", "4"])
    assert code == 0
    assert doc["value"] == 5
    assert len(doc["witness_columns"]) == 4
    assert all(len(c) == 2 for c in doc["witness_columns"])
    assert doc["random_lower"] <= doc["value"]


def test_partition_max_command(capsys):
    code, doc, _ = run_json(capsys, ["partition-max", "--d", "6"])
    assert code == 0
    assert doc["value"] == 12
    assert sum(doc["parts"]) == 6
    assert doc["product_partition_lower"] == 10
    assert doc["all_threes_value"] == 6
    assert doc["all_threes_attains"] is False


def test_partition_max_at_the_largest_d(capsys):
    start = time.perf_counter()
    code, doc, _ = run_json(capsys, ["partition-max", "--d", "60"])
    assert code == 0
    assert time.perf_counter() - start < 5
    assert doc["value"] == doc["all_threes_value"] == 20 * 3 ** 19
    assert doc["parts"] == [3] * 20
    assert doc["closed_form"] == f"{60 * 3 ** 18}/1"
    assert doc["meets_closed_form"] is True
    assert doc["all_threes_attains"] is True


def test_lagrangian_beyond_the_edge_budget_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["lagrangian", "--t", "4",
                                  "--restarts", "100000000"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "edge budget" in err
    assert time.perf_counter() - start < 1


def test_lagrangian_file_with_too_many_vertices_fails_fast(capsys, tmp_path):
    graph = tmp_path / "wide.txt"
    graph.write_text("r=2 n=10000000000\n0 1\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, ["lagrangian", "--in", str(graph)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "edge budget" in err
    assert "Traceback" not in err
    assert time.perf_counter() - start < 1


def test_constants_and_bounds_table_at_their_owners_limits(capsys):
    code, doc, _ = run_json(capsys, ["constants", "--t-max", "64"])
    assert code == 0
    assert [row["t"] for row in doc["probabilities"]] == list(range(1, 65))
    # at t = 64 the enclosure is narrower than the twelfth decimal
    assert doc["limit"]["lower_decimal"] == doc["limit"]["upper_decimal"] \
        == "0.288788095087"
    code, _, err = run(capsys, ["constants", "--t-max", "65"])
    assert code == 1 and "t-max <= 64" in err

    code, doc, _ = run_json(capsys, ["bounds-table", "--d-max", "60"])
    assert code == 0
    assert [row["d"] for row in doc["rows"]] == list(range(1, 61))
    assert {row["construction_upper"] for row in doc["rows"][9:]} == {None}
    code, _, err = run(capsys, ["bounds-table", "--d-max", "61"])
    assert code == 1 and err.startswith("error:")


def test_build_verify_weight_class(capsys):
    code, doc, _ = run_json(capsys, [
        "build-verify", "--n", "10", "--d", "3", "--construction",
        "weight-class", "--modulus", "3", "--residue", "0",
        "--list-size", "3"])
    assert code == 0
    assert doc["max_count"] == 3
    assert doc["within_list_size"] is True
    assert doc["construction_upper"] == 3
    assert len(doc["witness"]) == 10
    assert doc["witness"].count("*") == 3


def test_build_verify_upper_column_follows_the_shape_maximum(capsys):
    # d = 0 and d = 10 have no shape maximum: the column is null, not an error
    for n, d, upper in ((6, 0, None), (10, 9, 88), (10, 10, None)):
        code, doc, err = run_json(capsys, ["build-verify", "--n", str(n),
                                           "--d", str(d)])
        assert (code, err) == (0, "")
        assert doc["construction_upper"] == upper
        assert doc["within_construction_upper"] == (
            None if upper is None else doc["max_count"] <= upper)
    assert doc["max_count"] == doc["size"]


def test_build_verify_list_size_violation(capsys):
    code, _, err = run_json(capsys, [
        "build-verify", "--n", "6", "--d", "2", "--list-size", "0"])
    assert code == 2
    assert "verification failed" in err


def test_build_load_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "c.txt"
    code, doc, _ = run_json(capsys, [
        "build", "--n", "9", "--seed", "1", "--modulus", "6",
        "--out", str(path)])
    assert code == 0
    size = doc["size"]
    assert path.exists()

    code, doc2, _ = run_json(capsys, ["load", "--in", str(path)])
    assert code == 0
    assert doc2["n"] == 9
    assert doc2["size"] == size

    code, doc3, _ = run_json(capsys, [
        "verify", "--in", str(path), "--d", "3", "--list-size", "99"])
    assert code == 0
    assert doc3["within_list_size"] is True

    out2 = tmp_path / "canonical.txt"
    code, _, _ = run_json(capsys, ["save", "--in", str(path),
                                   "--out", str(out2)])
    assert code == 0
    assert out2.read_text() == path.read_text()


def test_build_n18_payload_and_file_are_pinned(capsys, tmp_path):
    # the benchmarked build: payload and file bytes as the numpy walk
    # gave them, so the truth-table construction changes neither
    path = tmp_path / "code18.txt"
    code, doc, _ = run_json(capsys, ["build", "--n", "18", "--modulus", "6", "--seed", "0",
                                     "--out", str(path)])
    assert code == 0
    assert doc == {"command": "build", "construction": "layered", "density": "17319/262144",
                   "density_float": 0.06606674194335938, "modulus": 6, "n": 18,
                   "out": str(path), "residue": 2, "schema": 1, "seed": 0, "size": 17319,
                   "size_before_residue": 89650}
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == "46d7e534ce113413710f1af6780ac55c64a279dfe78a4a872b1f84bb9cc0b6fa"
    code, doc, _ = run_json(capsys, ["load", "--in", str(path)])
    assert (code, doc["size"], doc["density"]) == (0, 17319, "17319/262144")


@pytest.mark.parametrize("argv, pinned", [
    (["hitting", "--n", "14", "--k", "2", "--d", "7", "--seed", "0"],
     {"command": "hitting", "d": 7, "density_float": 0.2415771484375, "hits_all": True,
      "k": 2, "met_target": True, "missed": None, "n": 14, "schema": 1, "seed": 0,
      "size": 3958, "small_layer_cutoff": 4, "target_size": 4096}),
    (["hitting", "--n", "16", "--k", "3", "--seed", "0"],
     {"command": "hitting", "density_float": 0.1369171142578125, "k": 3,
      "met_target": False, "n": 16, "schema": 1, "seed": 0, "size": 8973,
      "small_layer_cutoff": -1, "target_size": 8192}),
], ids=["n14", "n16"])
def test_hitting_payloads_are_pinned(capsys, argv, pinned):
    code, doc, _ = run_json(capsys, argv)
    assert (code, doc) == (0, pinned)


def test_search_max_code_command(capsys):
    code, doc, _ = run_json(capsys, [
        "search-max-code", "--n", "3", "--d", "2", "--list-size", "3"])
    assert code == 0
    assert doc["max_size"] == 6
    assert doc["certified"] is True
    assert len(doc["witness"]) == 6


def test_lagrangian_command(capsys, tmp_path):
    code, doc, _ = run_json(capsys, ["lagrangian", "--t", "2"])
    assert code == 0
    assert abs(doc["value"] - 1 / 3) < 1e-8

    graph = tmp_path / "graph.txt"
    graph.write_text("r=2 n=4\n0 1\n1 2\n2 3\n0 3\n", encoding="utf-8")
    code, doc2, _ = run_json(capsys, ["lagrangian", "--in", str(graph)])
    assert code == 0
    assert doc2["edge_count"] == 4
    assert abs(doc2["value"] - 0.25) < 1e-8

    # a repeated edge and a line out of order count once each
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("r=2 n=4\n0 1\n2 1\n1 2\n2 3\n0 3\n0 1\n",
                        encoding="utf-8")
    code, doc3, _ = run_json(capsys, ["lagrangian", "--in", str(repeated)])
    assert code == 0
    assert doc3["edge_count"] == 4
    assert doc3["value"] == doc2["value"] and doc3["point"] == doc2["point"]

    bad = tmp_path / "bad.txt"
    bad.write_text("q=2 n=4\n0 1\n", encoding="utf-8")
    code, _, err = run(capsys, ["lagrangian", "--in", str(bad)])
    assert code == 1
    assert "error:" in err and "line 1" in err

    code, _, err = run(capsys, ["lagrangian"])
    assert code == 1
    assert "exactly one" in err


def test_density_command(capsys):
    code, doc, _ = run_json(capsys, ["density", "--r", "3", "--k", "2"])
    assert code == 0
    assert doc["density"] == "28/29"
    assert doc["exceeds_threshold"] is True


def test_hitting_command(capsys):
    code, doc, _ = run_json(capsys, ["hitting", "--n", "8", "--k", "1",
                                     "--d", "4"])
    assert code == 0
    assert doc["size"] <= doc["target_size"]
    assert doc["met_target"] is True
    assert doc["hits_all"] is True
    assert doc["missed"] is None


def test_hitting_command_when_no_cutoff_fits(capsys):
    code, doc, _ = run_json(capsys, ["hitting", "--n", "16", "--k", "3"])
    assert code == 0
    assert doc["small_layer_cutoff"] == -1
    assert doc["met_target"] is False


def test_json_output_is_byte_identical(capsys):
    argv = ["build-verify", "--n", "9", "--d", "3", "--modulus", "6",
            "--seed", "2", "--format", "json"]
    code1 = cli.main(argv)
    first = capsys.readouterr().out
    code2 = cli.main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_argparse_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    with pytest.raises(SystemExit):
        cli.main(["basis-subsets", "--k", "2"])  # missing --d


def test_out_of_regime_is_reported(capsys):
    code, _, err = run(capsys, ["search-max-code", "--n", "7", "--d", "2",
                                "--list-size", "3"])
    assert code == 1
    assert "error:" in err


def test_closed_stdout_pipe_ends_quietly(capsys, monkeypatch):
    # `hypercube-codes density ... | head -1`: the reader has gone away
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    code = cli.main(["density", "--r", "3", "--k", "2"])
    assert code == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", [
    (["search-max-code", "--n", "64", "--d", "1", "--list-size", "2"], "n <= 24"),
    (["build-verify", "--n", "22", "--d", "5"],
     "3451650048 subcubes exceed the budget 100000000"),
    (["build-verify", "--construction", "weight-class", "--modulus", "2",
      "--n", "22", "--d", "5"], "3451650048 subcubes exceed the budget 100000000"),
    (["build-verify", "--n", "20", "--d", "5", "--budget", "1000"],
     "exceed the budget 1000"),
    (["hitting", "--n", "8", "--k", "1", "--d", "3", "--budget", "5"],
     "1792 subcubes exceed the budget 5"),
    (["hitting", "--n", "20", "--k", "2", "--d", "5"],
     "508035072 subcubes exceed the budget 100000000"),
    (["hitting", "--n", "8", "--k", "1", "--budget", "5"],
     "--budget applies only with --d"),
    (["search-max-code", "--n", "22", "--d", "1", "--list-size", "2"],
     "exceeds the node budget 2000000"),
], ids=["search-max-code", "build-verify", "weight-class", "explicit-budget",
        "hitting", "hitting-n20", "hitting-budget-without-d",
        "search-max-code-whole-cube"])
def test_refused_before_anything_is_built(capsys, tmp_path, argv, message):
    # build-verify at n = 22 once built its code (1.5 s) before the scan
    # refused it, and wrote --out; hitting did the same; and the whole
    # cube at n = 22 was listed (4 M words) before it was printed; hitting
    # --budget without --d once printed the set as if the flag were absent
    out = tmp_path / "code.txt"
    if argv[0] in ("build-verify", "hitting"):
        argv = argv + ["--out", str(out)]
    start = time.process_time()
    code, stdout, err = run(capsys, argv)
    assert time.process_time() - start < 0.5
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_weight_class_beyond_max_n_fails_fast(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, ["build", "--construction", "weight-class",
                                "--n", "60", "--modulus", "2"])
    assert code == 1
    assert "error:" in err and "n <= 24" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    ["build", "--n", "8", "--seed", "-1", "--out", "{out}"],
    ["build-verify", "--n", "8", "--d", "3", "--seed", "-1", "--out", "{out}"],
    ["hitting", "--n", "8", "--k", "1", "--seed", "-3", "--out", "{out}"],
    ["lagrangian", "--t", "3", "--seed", "-1"],
], ids=["build", "build-verify", "hitting", "lagrangian"])
def test_negative_seed_is_refused_with_numpys_message(capsys, tmp_path, argv):
    # the draws key a PCG64 stream by the seed's 32-bit words, so a
    # negative seed has none; the message is numpy SeedSequence's
    out = tmp_path / "code.txt"
    assert run(capsys, [a.format(out=out) for a in argv]) \
        == (1, "", "error: expected non-negative integer\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["lagrangian", "--t", "2", "--restarts", "0"], "need restarts >= 1"),
    (["build", "--n", "9", "--residue", "3"], "--residue needs --modulus"),
    (["constants", "--t-max", "1"], "t-max"),
    (["search-max-code", "--n", "5", "--d", "2", "--list-size", "3",
      "--budget", "-7"], "node_budget >= 0"),
    (["basis-subsets", "--k", "64", "--d", "64"], "k <= 63"),
], ids=["lagrangian", "build", "constants", "search-max-code", "basis-subsets"])
def test_bad_input_is_an_error_not_a_traceback(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("module, constant, low, argv, message", [
    ("geometry", "DEFAULT_SCAN_BUDGET", 5, ["verify", "--d", "2"], "exceed the budget 5"),
    ("geometry", "DEFAULT_SCAN_BUDGET", 5, ["hitting", "--n", "6", "--k", "1", "--d", "2"],
     "exceed the budget 5"),
    ("geometry", "DEFAULT_SCAN_BUDGET", 5, ["build-verify", "--n", "6", "--d", "2"],
     "exceed the budget 5"),
    ("extremal", "DEFAULT_NODE_BUDGET", -1,
     ["search-max-code", "--n", "5", "--d", "2", "--list-size", "3"], "node_budget >= 0"),
    ("extremal", "DEFAULT_WORK_BUDGET", 10, ["basis-subsets", "--k", "4", "--d", "8"],
     "exceeds budget 10"),
], ids=["verify", "hitting", "build-verify", "search-max-code", "basis-subsets"])
def test_default_budget_is_read_from_its_owner(capsys, monkeypatch, tmp_path,
                                               module, constant, low, argv, message):
    """Without --budget a command takes the owning module's constant as it
    is when the command runs, and answers as if --budget had named it."""
    if argv[0] == "verify":
        path = str(tmp_path / "c.txt")
        assert cli.main(["build", "--n", "6", "--out", path]) == 0
        capsys.readouterr()
        argv = argv + ["--in", path]
    explicit = run(capsys, argv + ["--budget", str(low)])
    monkeypatch.setattr(f"hypercube_codes.{module}.{constant}", low)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == explicit
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


def _rendered(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


@pytest.mark.parametrize("argv", [
    ["basis-subsets", "--k", "2", "--d", "4"],
    ["partition-max", "--d", "6"],
    ["build", "--n", "8", "--out", "{tmp}/built.txt"],
    ["load", "--in", "{tmp}/code.txt"],
    ["save", "--in", "{tmp}/code.txt", "--out", "{tmp}/saved.txt"],
    ["verify", "--in", "{tmp}/code.txt", "--d", "3", "--list-size", "9"],
    ["build-verify", "--n", "8", "--d", "3", "--modulus", "6",
     "--list-size", "9"],
    ["search-max-code", "--n", "3", "--d", "2", "--list-size", "3"],
    ["lagrangian", "--t", "2", "--restarts", "4"],
    ["density", "--r", "3", "--k", "2"],
    ["hitting", "--n", "8", "--k", "1", "--d", "4"],
], ids=lambda argv: argv[0])
def test_text_and_csv_rows_are_the_json_payload(capsys, monkeypatch,
                                                tmp_path, argv):
    cli.main(["build", "--n", "8", "--modulus", "6",
              "--out", str(tmp_path / "code.txt")])
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    orders = []
    emit = cli._emit

    def spy(args, payload, *rest):
        orders.append([k for k in payload if k != "command"])
        emit(args, payload, *rest)

    monkeypatch.setattr(cli, "_emit", spy)
    capsys.readouterr()
    _, doc, _ = run_json(capsys, argv)
    keys = orders[-1]
    assert sorted(keys) == sorted(set(doc) - {"command", "schema"})
    expected = [[k, _rendered(doc[k])] for k in keys]

    _, out, _ = run(capsys, argv + ["--format", "csv"])
    assert list(csv.reader(io.StringIO(out))) == [["quantity", "value"]] + expected

    _, out, _ = run(capsys, argv + ["--format", "text"])
    lines = out.splitlines()
    assert lines[0].split() == ["quantity", "value"]
    assert [(line.split(maxsplit=1) + [""])[:2] for line in lines[1:]] == expected


# A CLI process runs with the cyclic collector off (cli.run), so what a
# command leaves in reference cycles must not grow with its input.  Every
# call leaves the same few hundred objects (argparse's tables); the bound
# admits the fixed 56-object closure of the n = 5 branch and bound in
# search-max-code, and catches a cycle holding per-input tables, such as
# the 244 objects partition-max --d 60 once left over --d 5.
CYCLE_GROWTH_BOUND = 100

# per subcommand: (small input, large input); {tmp}/small.txt and
# {tmp}/large.txt are codes at n = 8 and n = 16
GARBAGE_AUDIT = {
    "constants": (["--t-max", "2"], ["--t-max", "40"]),
    "bounds-table": (["--d-max", "1"], ["--d-max", "60"]),
    "basis-subsets": (["--k", "2", "--d", "3"], ["--k", "4", "--d", "8"]),
    "partition-max": (["--d", "5"], ["--d", "60"]),
    "build": (["--n", "8", "--out", "{tmp}/built.txt"],
              ["--n", "16", "--out", "{tmp}/built.txt"]),
    "load": (["--in", "{tmp}/small.txt"], ["--in", "{tmp}/large.txt"]),
    "save": (["--in", "{tmp}/small.txt", "--out", "{tmp}/saved.txt"],
             ["--in", "{tmp}/large.txt", "--out", "{tmp}/saved.txt"]),
    "build-verify": (["--n", "8", "--d", "3"], ["--n", "18", "--d", "4"]),
    "verify": (["--in", "{tmp}/large.txt", "--d", "3"],
               ["--in", "{tmp}/large.txt", "--d", "12"]),
    "search-max-code": (["--n", "3", "--d", "1", "--list-size", "1"],
                        ["--n", "5", "--d", "3", "--list-size", "6"]),
    "lagrangian": (["--t", "2", "--restarts", "4"], ["--t", "5", "--restarts", "4"]),
    "density": (["--r", "2", "--k", "2"], ["--r", "4", "--k", "40"]),
    "hitting": (["--n", "6", "--k", "1"], ["--n", "14", "--k", "2", "--d", "7"]),
}


def test_garbage_audit_covers_every_subcommand():
    usage = cli.build_parser().format_usage()
    commands = re.search(r"\{([^}]*)\}", usage).group(1).split(",")
    assert sorted(commands) == sorted(GARBAGE_AUDIT)


@pytest.mark.parametrize("command", sorted(GARBAGE_AUDIT))
def test_cycles_left_with_the_collector_off_do_not_grow_with_input(
        capsys, tmp_path, command):
    for n, name in ((8, "small"), (16, "large")):
        assert cli.main(["build", "--n", str(n), "--out", str(tmp_path / f"{name}.txt")]) == 0
    small, large = ([command, *(a.replace("{tmp}", str(tmp_path)) for a in args)]
                    for args in GARBAGE_AUDIT[command])
    gc.collect()
    gc.disable()
    try:
        found = []
        for argv in (small, small, large):  # the first run takes the imports
            assert cli.main(argv) == 0
            found.append(gc.collect())
    finally:
        gc.enable()
    capsys.readouterr()
    assert found[2] - found[1] <= CYCLE_GROWTH_BOUND, found
