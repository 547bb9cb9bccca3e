"""The package namespace and process set-up, each checked in a fresh
interpreter: the public names load lazily, `import hypercube_codes`
loads no numpy, each CLI command imports only the modules it runs (and
`--version`, `--help` and a usage error none of the stdlib modules that
only the command helpers import), the CLI runs BLAS on one thread unless
told otherwise, and a CLI process runs with the cyclic garbage collector
off and ends with its objects frozen.  One more test reads the sources:
every public name is used by more than its own unit tests."""

import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hypercube_codes

SRC = str(Path(hypercube_codes.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent

# Public names that nothing in the checkout uses but their own unit
# tests, each kept for the reason given.
UNREACHED_KEPT = {
    "count_nonsingular_submatrices":
        "the basis count of one matrix, which recounts every witness of the "
        "basis-subset walk in tests/test_extremal.py",
}


def spawn(*args: str, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run on `args`, importing the package from this
    tree, with OPENBLAS_NUM_THREADS unset unless given."""
    clean = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    clean["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, clean.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**clean, **env},
                          capture_output=True, text=True, timeout=60)


def python(code: str, **env: str) -> str:
    """stdout of `code` in a fresh interpreter (see spawn)."""
    done = spawn("-c", code, **env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_public_name_is_its_module_object():
    out = python("""
import importlib
import hypercube_codes as pkg
for name in pkg.__all__:
    if name == "__version__":
        continue
    home = importlib.import_module("hypercube_codes." + pkg._HOME[name])
    assert getattr(pkg, name) is getattr(home, name), name
    assert vars(pkg)[name] is getattr(home, name), name  # kept after the first access
print(len(pkg.__all__), len(set(pkg.__all__)), pkg.__all__[-1])
""")
    assert out.split() == ["68", "68", "__version__"]


def test_every_public_name_is_used_beyond_its_own_tests():
    # used means named by the code of its own module, by another module of
    # the package (cli's commands among them), by an acceptance criterion,
    # by a test oracle or by the benchmark scripts
    package = ROOT / "src" / "hypercube_codes"
    users = [*package.glob("*.py"), ROOT / "tests" / "test_acceptance.py",
             ROOT / "tests" / "oracles.py", *ROOT.glob("perfbench/**/*.py"),
             *ROOT.glob("bench/**/*.py")]
    texts = {path: path.read_text() for path in users}
    unused = []
    for module, names in hypercube_codes._EXPORTS.items():
        home = package / f"{module}.py"
        loaded = {node.id for node in ast.walk(ast.parse(texts[home]))
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        others = [text for path, text in texts.items()
                  if path not in (home, package / "__init__.py")]
        for name in names:
            named = re.compile(rf"\b{name}\b").search
            if name not in loaded and not any(map(named, others)):
                unused.append(name)
    assert sorted(unused) == sorted(UNREACHED_KEPT)


def test_star_import_dir_submodules_and_unknown_names():
    out = python("""
import hypercube_codes as pkg
assert pkg.cube.__name__ == "hypercube_codes.cube"  # a submodule, by attribute
from hypercube_codes import *
assert all(name in globals() for name in pkg.__all__)
assert set(pkg.__all__) <= set(dir(pkg))
for name in ("no_such_name", "cli_main"):
    try:
        getattr(pkg, name)
    except AttributeError as exc:
        assert name in str(exc)
    else:
        raise AssertionError(name)
print("ok")
""")
    assert out.split() == ["ok"]


def test_package_import_loads_no_numpy():
    out = python("""
import sys
import hypercube_codes
print("numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("hypercube")))
""")
    assert out.split() == ["False", "['hypercube_codes']"]


def test_cli_sets_one_blas_thread_unless_preset():
    # cli itself loads no numpy, so the variable is in place before the
    # first command that does
    code = """
import os, sys
import hypercube_codes.cli
before = "numpy" in sys.modules
import numpy
print(before, "numpy" in sys.modules, os.environ["OPENBLAS_NUM_THREADS"])
"""
    assert python(code).split() == ["False", "True", "1"]
    assert python(code, OPENBLAS_NUM_THREADS="2").split() == ["False", "True", "2"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_cli_process_has_one_thread():
    # a numpy command run through the CLI, so OpenBLAS has started
    out = python("""
import contextlib, io, os, sys
from hypercube_codes import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["lagrangian", "--t", "3"]) == 0
assert "numpy" in sys.modules
print(len(os.listdir("/proc/self/task")))
""")
    assert out.split() == ["1"]


# numpy and the package modules that load it at import, and cube and
# gf2, whose numpy scans and array walk do when called (codes loads it
# only for Code.array)
NUMPY_MODULES = {"numpy", "hypercube_codes.cube", "hypercube_codes.gf2",
                 "hypercube_codes.hypergraph"}
# stdlib modules that only the command helpers import, and dataclasses and
# inspect, which no package module imports (numpy brings inspect itself);
# each probe counts only what the bare interpreter did not already hold
# when the program started, as a site .pth file may preload
HELPER_STDLIB = {"json", "csv", "decimal", "fractions", "dataclasses", "inspect"}
# absent from every numpy-free command
NUMPY_FREE = {"numpy", "inspect"}
# absent from the exact commands that compute in ints only
INT_ONLY = {"fractions", "decimal"}
# numpy's generators, which no command uses: every draw runs the same
# stream in Python ints
NUMPY_RANDOM = {"numpy.random", "secrets"}
# the ziggurat tables, which only the Lagrangian's starts compile
ZIGGURAT = "hypercube_codes._ziggurat"


@functools.cache
def numpy_import_loads() -> frozenset:
    """The NUMPY_RANDOM modules that `import numpy` loads by itself and no
    command can keep out: both under numpy 1.x, which imports numpy.random
    with numpy; none where numpy.random loads on first use (numpy 2.4)."""
    return frozenset(python(f"""
import sys
bare = set(sys.modules)
import numpy
print(*sorted({NUMPY_RANDOM!r} & (set(sys.modules) - bare)))
""").split())


# the n = 8 hitting set misses the 3-subcube ***10110
HITTING_MISS = ["hitting", "--n", "8", "--k", "1", "--d", "3"]


@pytest.mark.parametrize("argv, loaded, absent", [
    (["--version"], {"hypercube_codes.cli"}, {"numpy", *HELPER_STDLIB}),
    (["--help"], {"hypercube_codes.cli"}, {"numpy", *HELPER_STDLIB}),
    (["partition-max"], {"hypercube_codes.cli"}, {"numpy", *HELPER_STDLIB}),
    (["constants", "--t-max", "40"], {"hypercube_codes.basisprob"}, NUMPY_FREE),
    (["partition-max", "--d", "50"], {"hypercube_codes.extremal"}, NUMPY_FREE | INT_ONLY),
    # json shows that the probe sees what a command's helpers import
    (["lagrangian", "--t", "3", "--format", "json"],
     {"hypercube_codes.hypergraph", "numpy", "json", ZIGGURAT},
     {"hypercube_codes.codes", "hypercube_codes.cube", "hypercube_codes.extremal",
      *NUMPY_RANDOM}),
    (["density", "--r", "3", "--k", "4"], {"hypercube_codes.hypergraph"},
     {"hypercube_codes.codes", "hypercube_codes.cube", "hypercube_codes.extremal"}),
    # the scans of codes up to 15 coordinates at d <= 6 walk byte tables
    # in ints (logging only to warn)
    (["build-verify", "--n", "10", "--d", "3"],
     {"hypercube_codes.cube", "hypercube_codes.extremal"},
     {"hypercube_codes.hypergraph", "logging", ZIGGURAT, *NUMPY_RANDOM, *NUMPY_FREE}),
    # and larger ones the numpy tables
    (["build-verify", "--n", "16", "--d", "2", "--modulus", "6"],
     {"hypercube_codes.cube", "numpy"},
     {"hypercube_codes.hypergraph", "logging", ZIGGURAT, *NUMPY_RANDOM}),
    # the construction and the code files run on truth tables in ints
    (["hitting", "--n", "8", "--k", "1"], {"hypercube_codes.codes"},
     {"numpy", "hypercube_codes.cube", ZIGGURAT, *NUMPY_RANDOM}),
    # and so does the hitting check, which reports a missed subcube here
    (HITTING_MISS, {"hypercube_codes.codes"},
     {"numpy", "hypercube_codes.cube", ZIGGURAT, *NUMPY_RANDOM}),
    (["build", "--n", "10", "--modulus", "6", "--out", "{tmp}/built.txt"],
     {"hypercube_codes.codes"}, {"numpy", "hypercube_codes.cube", ZIGGURAT, *NUMPY_RANDOM}),
    (["load", "--in", "{tmp}/code.txt"], {"hypercube_codes.codes"},
     {"numpy", "hypercube_codes.cube", *NUMPY_RANDOM}),
    (["verify", "--in", "{tmp}/code.txt", "--d", "2"], {"hypercube_codes.cube"},
     NUMPY_RANDOM | NUMPY_FREE),
    (["search-max-code", "--n", "5", "--d", "3", "--list-size", "6"],
     {"hypercube_codes.extremal", "hypercube_codes.geometry"},
     NUMPY_MODULES | NUMPY_FREE | INT_ONLY),
    (["search-max-code", "--n", "4", "--d", "2", "--list-size", "3"],
     {"hypercube_codes.extremal", "hypercube_codes.geometry"},
     NUMPY_MODULES | NUMPY_FREE | INT_ONLY),
    # gf2 loads without numpy; only its array walk imports it
    (["basis-subsets", "--k", "4", "--d", "8"],
     {"hypercube_codes.extremal", "hypercube_codes.gf2", "hypercube_codes.basisprob"},
     NUMPY_MODULES - {"hypercube_codes.gf2"} | NUMPY_FREE),
    (["bounds-table", "--d-max", "8"], {"hypercube_codes.extremal", "hypercube_codes.gf2"},
     NUMPY_MODULES - {"hypercube_codes.gf2"} | NUMPY_FREE | INT_ONLY),
], ids=["version", "help", "usage-error", "constants", "partition-max", "lagrangian",
        "density", "build-verify", "build-verify-numpy", "hitting", "hitting-check", "build", "load", "verify",
        "search-max-code-branch-bound",
        "search-max-code-exhaustive", "basis-subsets", "bounds-table"])
def test_each_command_imports_only_what_it_runs(tmp_path, argv, loaded, absent):
    (tmp_path / "code.txt").write_text("n=3\n000\n011\n101\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    absent = absent | {"dataclasses"}  # the records build on the package's own base
    absent -= numpy_import_loads()
    out = python(f"""
import sys
bare = set(sys.modules)
import contextlib, io
from hypercube_codes import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        status = cli.main({argv!r})
    except SystemExit as exc:  # --version, --help and usage errors
        status = exc.code
print(status, sorted({loaded!r} - set(sys.modules)),
      sorted({absent!r} & (set(sys.modules) - bare)))
""")
    # argparse exits 2 on a usage error (the missing --d), hitting on a miss
    assert out.split() == ["2" if argv in (["partition-max"], HITTING_MISS) else "0",
                           "[]", "[]"]


def test_cli_import_loads_only_errors():
    out = python(f"""
import sys
bare = set(sys.modules)
import hypercube_codes.cli
print("numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("hypercube")),
      sorted({HELPER_STDLIB!r} & (set(sys.modules) - bare)))
""")
    assert out.split() == ["False", "['hypercube_codes',", "'hypercube_codes.cli',",
                           "'hypercube_codes.errors']", "[]"]


@pytest.mark.parametrize("argv", [
    ["lagrangian", "--t", "3"],
    ["partition-max", "--d", "5"],
    ["--version"],  # argparse's SystemExit
], ids=["numpy-command", "exact-command", "version"])
def test_run_ends_the_process_with_the_collector_off_and_objects_frozen(argv):
    # the hook runs after run() returns, before the interpreter's final
    # collections
    out = python(f"""
import atexit, gc
atexit.register(lambda: print("at exit:", gc.isenabled(), gc.get_freeze_count() > 0))
from hypercube_codes import cli
raise SystemExit(cli.run({argv!r}))
""")
    assert out.splitlines()[-1] == "at exit: False True"


def test_main_leaves_the_collector_as_it_was():
    out = python("""
import contextlib, gc, io
from hypercube_codes import cli
before = gc.isenabled(), gc.get_freeze_count()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["lagrangian", "--t", "3"]) == 0
print(before == (gc.isenabled(), gc.get_freeze_count()), gc.isenabled())
""")
    assert out.split() == ["True", "True"]


@pytest.mark.parametrize("argv, status", [
    (["partition-max", "--d", "5"], 0),
    (["bounds-table", "--d-max", "0"], 1),
    (["build-verify", "--n", "4", "--d", "2", "--list-size", "0"], 2),
    (["partition-max", "--d", "5", "--no-such-flag"], 2),
    (["--help"], 0),
    (["--version"], 0),
], ids=["ok", "bad-input", "failed-verification", "unknown-flag", "help", "version"])
def test_run_ends_as_main_does(argv, status):
    def end(*args: str) -> tuple:
        done = spawn(*args)
        return done.returncode, done.stdout, done.stderr

    def call(entry: str) -> tuple:
        return end("-c", "from hypercube_codes import cli; "
                         f"raise SystemExit(cli.{entry}({argv!r}))")

    by_main = call("main")
    assert by_main[0] == status, by_main[2]
    # `python -m hypercube_codes.cli` runs run() too
    assert call("run") == end("-m", "hypercube_codes.cli", *argv) == by_main
