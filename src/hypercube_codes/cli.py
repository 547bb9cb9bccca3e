"""Command line surface.

Each subcommand computes one table or report.  Output formats:

* json: a single object with sorted keys and a schema field, so
  identical invocations give byte-identical output
* csv: the payload as (quantity, value) rows, one per key, header line
  first; `constants` and `bounds-table` are tables with their own columns
* text: the same rows aligned for reading

Exit status: 0 on success, 1 on bad input, an out-of-regime request or
a closed output pipe (the last without a message), 2 when a computed
value disagrees with the bundled reference manifest or a requested
verification fails.

run() is the process entry, of the `hypercube-codes` script and of
`python -m hypercube_codes.cli`; main() is the in-process call, which
leaves the caller's garbage collector as it was.

Of the stdlib, the module imports only argparse, gc, os, sys and typing
at load; each helper imports any other stdlib module where it runs, so
`--version`, `--help` and a usage error skip json, csv, decimal and
fractions.  The package's record types build on its own frozen base, so
no command loads dataclasses.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

# Before any command loads numpy: OpenBLAS would start a thread pool,
# about 70 ms of CPU per process on a 2-vCPU x86-64 VM, for the one BLAS
# product (cube._bucket_tables), which is exact at any thread count.  A
# user's own OPENBLAS_NUM_THREADS wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .errors import ConstructionError, OutOfRegimeError

# Each command imports the modules it runs when it starts, so `--version`,
# `constants`, `partition-max`, `basis-subsets`, `bounds-table`,
# `search-max-code`, `build`, `load`, `save` and `hitting` (its --d check
# included) never load numpy, nor do `build-verify` and `verify` for
# codes of up to 15 coordinates at d <= 6: only the other max-count scans
# (cube), the Lagrangian and the hypergraphs do.  A --budget left out
# takes the owning module's default then.
if TYPE_CHECKING:
    from fractions import Fraction
    from .codes import Code
    from .geometry import Subcube
    from .hypergraph import UniformHypergraph

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2


def load_reference_manifest() -> dict:
    """The bundled regression manifest (exact reference values)."""
    import json
    from importlib import resources
    path = resources.files("hypercube_codes").joinpath("reference_values.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _decimal_places(x: Fraction, places: int = 12) -> str:
    from decimal import ROUND_HALF_EVEN, Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = places + 30
        value = (Decimal(x.numerator) / Decimal(x.denominator)).quantize(
            Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN)
        # a zero keeps the quantum's exponent, which str writes as 0E-12
        return str(value) if value else f"{value:f}"


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _subcube_pattern(cube: Subcube) -> str:
    """Length-n string, * at free coordinates, 0/1 at fixed ones."""
    free = set(cube.free)
    return "".join("*" if i in free else str((cube.base >> i) & 1)
                   for i in range(cube.n))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def _emit(args, payload: dict, headers: Sequence[str] = ("quantity", "value"),
          rows: Optional[Sequence[Sequence]] = None) -> None:
    """Write the payload as JSON, or as a text/CSV table.  By default the
    table has one (key, value) row per payload key except `command`, in
    insertion order; a list shows as its items joined by spaces and None
    as an empty cell."""
    if args.format == "json":
        import json
        doc = {**payload, "schema": SCHEMA_VERSION}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return
    if rows is None:
        rows = [[k, v] for k, v in payload.items() if k != "command"]
    table = [[_cell(c) for c in row] for row in [headers, *rows]]
    if args.format == "csv":
        import csv
        csv.writer(sys.stdout, lineterminator="\n").writerows(table)
        return
    widths = [max(map(len, column)) for column in zip(*table)]
    for line in table:
        out = "  ".join(c.ljust(w) for c, w in zip(line, widths))
        sys.stdout.write(out.rstrip() + "\n")


def _fail(messages: Sequence[str], prefix: str) -> int:
    """Report each failed check on stderr; the exit code for the lot."""
    for text in messages:
        print(f"{prefix}: {text}", file=sys.stderr)
    return EXIT_MISMATCH if messages else EXIT_OK


def cmd_constants(args) -> int:
    """Basis probability per draw count plus the certified limit."""
    from fractions import Fraction
    from .basisprob import MAX_T, limit_constant, limit_interval, uniform_basis_probability
    t_max = args.t_max
    if not 2 <= t_max <= MAX_T:
        raise ValueError(f"need 2 <= t-max <= {MAX_T}")
    manifest = load_reference_manifest()
    expected = manifest.get("uniform_basis_probability", {})
    mismatches = []
    prob_rows = []
    for t in range(1, t_max + 1):
        p = uniform_basis_probability(t)
        prob_rows.append({"t": t, "numerator": p.numerator,
                          "denominator": p.denominator,
                          "decimal": _decimal_places(p)})
        if str(t) in expected:
            num, den = expected[str(t)]
            if Fraction(num, den) != p:
                mismatches.append(f"basis probability at t={t}: "
                                  f"computed {_fraction_str(p)}, manifest {num}/{den}")
    lower, upper = limit_interval(t_max)
    two_digits = str(limit_constant(2))
    expected_2dp = manifest.get("basis_probability_limit_2dp")
    if expected_2dp is not None and expected_2dp != two_digits:
        mismatches.append(f"limit to 2 digits: computed {two_digits}, "
                          f"manifest {expected_2dp}")
    payload = {
        "command": "constants",
        "t_max": t_max,
        "probabilities": prob_rows,
        "limit": {
            "interval_at": t_max,
            "lower_decimal": _decimal_places(lower),
            "upper_decimal": _decimal_places(upper),
            "width_decimal": _decimal_places(upper - lower),
            "two_digit_rounding": two_digits,
        },
    }
    rows = [[f"basis_probability({r['t']})", r["numerator"],
             r["denominator"], r["decimal"]] for r in prob_rows]
    rows.append([f"limit_lower_bound({t_max})", None, None,
                 payload["limit"]["lower_decimal"]])
    rows.append([f"limit_upper_bound({t_max})", None, None,
                 payload["limit"]["upper_decimal"]])
    _emit(args, payload, ["quantity", "numerator", "denominator", "decimal"],
          rows)
    return _fail(mismatches, "reference mismatch")


def cmd_bounds_table(args) -> int:
    """Bounds on the maximum erasure list size per subcube dimension."""
    from .extremal import list_size_bounds_table
    table = list_size_bounds_table(args.d_max)
    manifest = load_reference_manifest()
    mismatches = []

    def check(name: str, d: int, computed: Optional[int]) -> None:
        ref = manifest.get(name, {}).get(str(d))
        if ref is not None and computed is not None and ref != computed:
            mismatches.append(f"{name} at d={d}: computed {computed}, "
                              f"manifest {ref}")

    for row in table:
        check("product_partition_lower", row.d, row.product_partition_lower)
        check("partition_sum_lower", row.d, row.partition_sum_lower)
        check("construction_upper", row.d, row.construction_upper)
        if row.construction_upper is not None \
                and row.construction_upper == row.partition_sum_lower:
            check("list_size_exact", row.d, row.construction_upper)
    rows = [{name: getattr(row, name) for name in row._fields} for row in table]
    payload = {"command": "bounds-table", "d_max": args.d_max, "rows": rows}
    _emit(args, payload, list(rows[0]), [list(r.values()) for r in rows])
    return _fail(mismatches, "reference mismatch")


def cmd_basis_subsets(args) -> int:
    """Maximum number of basis-forming column subsets, with bounds."""
    from .extremal import DEFAULT_WORK_BUDGET, basis_subset_bounds, max_basis_subsets
    from .gf2 import BitWord
    budget = DEFAULT_WORK_BUDGET if args.budget is None else args.budget
    result = max_basis_subsets(args.k, args.d, work_budget=budget)
    bounds = basis_subset_bounds(args.k, args.d, work_budget=budget)
    _emit(args, {
        "command": "basis-subsets",
        "k": args.k,
        "d": args.d,
        "value": result.value,
        "witness_columns": [BitWord(c, args.k).to01()
                            for c in result.witness.columns],
        "random_lower": bounds.random_lower,
        "monotone_upper": bounds.monotone_upper,
        "dense_upper": bounds.dense_upper,
        "deletion_upper": bounds.deletion_upper,
    })
    return EXIT_OK


def cmd_partition_max(args) -> int:
    """Partition maximum of the sum of products with one part omitted."""
    from .extremal import (max_partition_product_sum, partition_growth_check,
                           product_partition_lower_bound)
    result = max_partition_product_sum(args.d)
    payload = {
        "command": "partition-max",
        "d": args.d,
        "value": result.value,
        "parts": list(result.parts),
        "product_partition_lower": product_partition_lower_bound(args.d),
    }
    if args.d % 3 == 0 and args.d >= 3:
        growth = partition_growth_check(args.d)
        payload["closed_form"] = _fraction_str(growth.closed_form)
        payload["meets_closed_form"] = growth.meets_closed_form
        payload["all_threes_value"] = growth.all_threes_value
        payload["all_threes_attains"] = growth.all_threes_attains
    _emit(args, payload)
    return EXIT_OK


def _size_fields(code: Code) -> dict:
    return {"size": len(code), "density": _fraction_str(code.density()),
            "density_float": float(code.density())}


def _construct_code(args, command: str, check=lambda: None) -> tuple:
    """Build the requested code and write it when --out is given; returns
    (code, the payload fields that describe it).  check() runs once the
    flags and n are validated, before any layer's words or any weight
    class is computed."""
    from .codes import (_check_weight_class, _layered_residue_code, build_layer_vectors,
                        save_code, weight_class_code)
    residue = args.residue
    if args.construction == "layered":
        if residue is not None and not args.modulus:
            raise ValueError("--residue needs --modulus")
        if args.modulus and args.modulus < 2:
            raise ValueError("modulus must be at least 2")
        layers = build_layer_vectors(args.n, seed=args.seed)  # checks n
        check()
        # only the residue class kept is listed as words; modulus 1 keeps all
        selection, size_before_residue = _layered_residue_code(
            layers, args.modulus or 1, residue, args.strict)
        code = selection.code
        if args.modulus:
            residue = selection.residue
    else:
        if not args.modulus or args.modulus < 2:
            raise ValueError("weight-class construction needs --modulus >= 2")
        if residue is None:
            residue = 0
        _check_weight_class(args.n, args.modulus, residue)
        check()
        code = weight_class_code(args.n, args.modulus, residue)
        size_before_residue = len(code)
    if args.out:
        save_code(args.out, code)
    return code, {
        "command": command,
        "n": code.n,
        "construction": args.construction,
        "seed": args.seed,
        "modulus": args.modulus or None,
        "residue": residue,
        **_size_fields(code),
        "size_before_residue": size_before_residue,
    }


def cmd_build(args) -> int:
    """Construct a code and optionally write it to a file."""
    _, payload = _construct_code(args, "build")
    if args.out:
        payload["out"] = args.out
    _emit(args, payload)
    return EXIT_OK


def cmd_load(args) -> int:
    """Read a code file and report its size and density."""
    from .codes import load_code
    code = load_code(args.in_path)
    _emit(args, {"command": "load", "in": args.in_path, "n": code.n,
                 **_size_fields(code)})
    return EXIT_OK


def cmd_save(args) -> int:
    """Rewrite a code file in canonical sorted form."""
    from .codes import load_code, save_code
    code = load_code(args.in_path)
    save_code(args.out, code)
    _emit(args, {"command": "save", "in": args.in_path, "n": code.n,
                 "size": len(code), "out": args.out})
    return EXIT_OK


def _scan_budget(args) -> int:
    """--budget, or else the owner's default as it is when the command runs."""
    from .geometry import DEFAULT_SCAN_BUDGET
    return DEFAULT_SCAN_BUDGET if args.budget is None else args.budget


def _scan(args, code: Code, payload: dict) -> int:
    """Scan every d-subcube of the code, emit the payload with the scan's
    fields added, and check --list-size.  cube loads here, after the
    code, which the construction and the code files build without it;
    numpy loads only for a scan past the byte tables of cube._byte_scan
    (n > 15 or d > 6)."""
    from .cube import max_subcube_count
    report = max_subcube_count(code, args.d, budget=_scan_budget(args))
    payload["d"] = args.d
    payload["max_count"] = report.max_count
    payload["subcubes_at_max"] = report.subcubes_at_max
    payload["witness"] = _subcube_pattern(report.witness)
    if payload["command"] == "build-verify":
        from .extremal import construction_upper
        upper = construction_upper(args.d)
        payload["construction_upper"] = upper
        payload["within_construction_upper"] = (
            None if upper is None else report.max_count <= upper)
    failures = []
    if args.list_size is not None:
        payload["list_size"] = args.list_size
        payload["within_list_size"] = report.max_count <= args.list_size
        if not payload["within_list_size"]:
            failures.append(f"max_count {report.max_count} exceeds "
                            f"list size {args.list_size}")
    _emit(args, payload)
    return _fail(failures, "verification failed")


def cmd_build_verify(args) -> int:
    """Construct a code and scan every d-subcube for its occupancy."""
    from .geometry import _check_budget
    # the scan's budget refuses by n and d alone, so before the build
    code, payload = _construct_code(
        args, "build-verify", lambda: _check_budget(args.n, args.d, _scan_budget(args)))
    return _scan(args, code, payload)


def cmd_verify(args) -> int:
    """Scan a code file for the maximum occupancy of a d-subcube."""
    from .codes import load_code
    code = load_code(args.in_path)
    return _scan(args, code, {"command": "verify", "in": args.in_path,
                              "n": code.n, "size": len(code)})


def cmd_search_max_code(args) -> int:
    """Exact maximum code size under a per-subcube word limit."""
    from .extremal import DEFAULT_NODE_BUDGET, max_code_search
    from .geometry import _to01
    budget = DEFAULT_NODE_BUDGET if args.budget is None else args.budget
    result = max_code_search(args.n, args.d, args.list_size, node_budget=budget)
    _emit(args, {
        "command": "search-max-code",
        "n": args.n,
        "d": args.d,
        "list_size": args.list_size,
        "max_size": result.max_size,
        "certified": result.certified,
        "witness": sorted(_to01(w, args.n) for w in result.words),
    })
    return EXIT_OK


def _load_hypergraph(path) -> UniformHypergraph:
    """Read a hypergraph file: first line `r=<int> n=<int>`, then one
    edge per line as space-separated 0-based vertex indices."""
    from .hypergraph import UniformHypergraph
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError("line 1: empty hypergraph file")
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("r=") \
            or not head[1].startswith("n="):
        raise ValueError("line 1: expected `r=<int> n=<int>`")
    try:
        r = int(head[0][2:])
        n = int(head[1][2:])
    except ValueError:
        raise ValueError("line 1: expected `r=<int> n=<int>`") from None
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            edges.append(tuple(sorted(int(tok) for tok in line.split())))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex") from None
    return UniformHypergraph(r, n, edges)


def cmd_lagrangian(args) -> int:
    """Lagrangian of a hypergraph (built-in basis family or a file)."""
    from .hypergraph import basis_hypergraph, lagrangian
    if (args.t is None) == (args.in_path is None):
        raise ValueError("give exactly one of --t and --in")
    if args.t is not None:
        graph = basis_hypergraph(args.t)
        source = f"basis_hypergraph({args.t})"
    else:
        graph = _load_hypergraph(args.in_path)
        source = args.in_path
    result = lagrangian(graph, restarts=args.restarts, seed=args.seed)
    _emit(args, {
        "command": "lagrangian",
        "source": source,
        "r": graph.r,
        "n_vertices": graph.n_vertices,
        "edge_count": graph.edge_count(),
        "value": result.value,
        "point": list(result.point),
        "restarts_used": result.restarts_used,
    })
    return EXIT_OK


def cmd_density(args) -> int:
    """Exact edge density of the linear-independence hypergraph."""
    from fractions import Fraction
    from .hypergraph import linear_independence_density
    value = linear_independence_density(args.r, args.k)
    threshold = 1 - Fraction(1, 1 << args.k)
    _emit(args, {
        "command": "density",
        "r": args.r,
        "k": args.k,
        "density": _fraction_str(value),
        "density_float": float(value),
        "threshold": _fraction_str(threshold),
        "exceeds_threshold": value > threshold,
    })
    return EXIT_OK


def cmd_hitting(args) -> int:
    """Build a small set meeting subcubes; optionally verify coverage."""
    if args.d is None and args.budget is not None:
        raise ValueError("--budget applies only with --d")
    from .codes import _check_hitting, save_code, subcube_hitting_set, verify_hitting
    if args.d is not None:
        from .geometry import _check_budget
        # the scan's budget refuses by n and d alone, so before the build
        _check_hitting(args.n, args.k)
        _check_budget(args.n, args.d, _scan_budget(args))
    result = subcube_hitting_set(args.n, args.k, seed=args.seed)
    code = result.code
    if args.out:
        save_code(args.out, code)
    payload = {
        "command": "hitting",
        "n": args.n,
        "k": args.k,
        "seed": args.seed,
        "size": len(code),
        "target_size": result.target_size,
        "met_target": result.met_target,
        "small_layer_cutoff": result.small_layer_cutoff,
        "density_float": float(code.density()),
    }
    failures = []
    if args.d is not None:
        report = verify_hitting(code, args.d, budget=_scan_budget(args))
        payload["d"] = args.d
        payload["hits_all"] = report.hits_all
        payload["missed"] = (None if report.missed is None
                             else _subcube_pattern(report.missed))
        if not report.hits_all:
            failures.append(f"some {args.d}-subcube is missed")
    _emit(args, payload)
    return _fail(failures, "verification failed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercube-codes",
        description="Construct, verify and bound binary codes with "
                    "few words in every subcube.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json", "csv"),
                     default="text", help="output format (default text)")

    def add(name, func, *parents):
        """A subcommand running func, helped by its docstring's first line."""
        p = sub.add_parser(name, parents=[fmt, *parents],
                           help=(func.__doc__ or "").split("\n", 1)[0])
        p.set_defaults(func=func)
        return p

    build_flags = argparse.ArgumentParser(add_help=False)
    build_flags.add_argument("--n", type=int, required=True,
                             help="number of coordinates")
    build_flags.add_argument("--seed", type=int, default=0,
                             help="construction seed (default 0)")
    build_flags.add_argument("--construction",
                             choices=("layered", "weight-class"),
                             default="layered")
    build_flags.add_argument("--modulus", type=int, default=0,
                             help="weight modulus; 0 keeps the whole code")
    build_flags.add_argument("--residue", type=int, default=None,
                             help="weight residue; default picks the "
                                  "largest residue class")
    build_flags.add_argument("--strict", action="store_true",
                             help="fail instead of keeping deficient layers")

    scan_flags = argparse.ArgumentParser(add_help=False)
    scan_flags.add_argument("--d", type=int, required=True)
    scan_flags.add_argument("--budget", type=int, default=None,
                            help="max number of subcubes to scan")
    scan_flags.add_argument("--list-size", type=int, default=None,
                            help="exit 2 if some d-subcube holds more words")

    p = add("constants", cmd_constants)
    p.add_argument("--t-max", type=int, default=8)

    p = add("bounds-table", cmd_bounds_table)
    p.add_argument("--d-max", type=int, default=8)

    p = add("basis-subsets", cmd_basis_subsets)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="work budget for the exact search")

    p = add("partition-max", cmd_partition_max)
    p.add_argument("--d", type=int, required=True)

    p = add("build", cmd_build, build_flags)
    p.add_argument("--out", default=None, help="write the code here")

    p = add("load", cmd_load)
    p.add_argument("--in", dest="in_path", required=True)

    p = add("save", cmd_save)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)

    p = add("build-verify", cmd_build_verify, build_flags, scan_flags)
    p.add_argument("--out", default=None, help="write the code here")

    p = add("verify", cmd_verify, scan_flags)
    p.add_argument("--in", dest="in_path", required=True)

    p = add("search-max-code", cmd_search_max_code)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--list-size", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="node budget of the branch and bound, counted at "
                        "every n; a spent budget gives an uncertified answer")

    p = add("lagrangian", cmd_lagrangian)
    p.add_argument("--t", type=int, default=None,
                   help="use the built-in basis hypergraph on 2^t - 1 "
                        "vertices")
    p.add_argument("--in", dest="in_path", default=None,
                   help="read a hypergraph file instead")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)

    p = add("density", cmd_density)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("hitting", cmd_hitting)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=None,
                   help="also verify that every d-subcube is met")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None, help="write the set here")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout (`| head`): end quietly, and point
        # stdout at devnull so the flush at exit cannot fail again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return EXIT_ERROR
    except (ValueError, OutOfRegimeError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run(argv: Optional[Sequence[str]] = None) -> int:
    """main() for a process that ends with the command: the cyclic garbage
    collector stays off, and every object is frozen when the command ends,
    argparse's SystemExit included.

    A command leaves the same few hundred objects in reference cycles
    (argparse's tables) whatever its input, so collecting frees next to
    nothing, while the passes over what numpy and the package create cost
    a numpy command about 6 ms in the run and 24-32 ms in the interpreter's
    final collections; with the collector off and the objects frozen, 1 ms
    and 6-8.5 ms (2-vCPU x86-64 VM)."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
