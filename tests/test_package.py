"""The package namespace and process set-up, each checked in a fresh
interpreter: the public names load lazily, `import hypercube_codes`
loads no numpy, each CLI command imports only the modules it runs, and
the CLI runs BLAS on one thread unless told otherwise."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypercube_codes

SRC = str(Path(hypercube_codes.__file__).resolve().parent.parent)


def python(code: str, **env: str) -> str:
    """stdout of `code` in a fresh interpreter that imports the package
    from this tree, with OPENBLAS_NUM_THREADS unset unless given."""
    clean = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    clean["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, clean.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**clean, **env},
                          capture_output=True, text=True, timeout=60)
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
    assert out.split() == ["82", "82", "__version__"]


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


@pytest.mark.parametrize("argv, loaded, absent", [
    (["--version"], {"hypercube_codes.cli"}, {"numpy"}),
    (["constants", "--t-max", "40"], {"hypercube_codes.basisprob"}, {"numpy"}),
    (["partition-max", "--d", "50"], {"hypercube_codes.extremal"}, {"numpy"}),
    (["lagrangian", "--t", "3"], {"hypercube_codes.hypergraph", "numpy"},
     {"hypercube_codes.codes", "hypercube_codes.cube", "hypercube_codes.extremal"}),
    (["density", "--r", "3", "--k", "4"], {"hypercube_codes.hypergraph"},
     {"hypercube_codes.codes", "hypercube_codes.cube", "hypercube_codes.extremal"}),
    (["build-verify", "--n", "10", "--d", "3"],
     {"hypercube_codes.cube", "hypercube_codes.extremal"}, {"hypercube_codes.hypergraph"}),
    (["hitting", "--n", "8", "--k", "1"], {"hypercube_codes.codes"}, {"hypercube_codes.cube"}),
], ids=["version", "constants", "partition-max", "lagrangian", "density", "build-verify",
        "hitting"])
def test_each_command_imports_only_what_it_runs(argv, loaded, absent):
    out = python(f"""
import contextlib, io, sys
from hypercube_codes import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        status = cli.main({argv!r})
    except SystemExit as exc:  # --version
        status = exc.code
assert status == 0, status
print(sorted({loaded!r} - set(sys.modules)), sorted({absent!r} & set(sys.modules)))
""")
    assert out.split() == ["[]", "[]"]


def test_cli_import_loads_only_errors():
    out = python("""
import sys
import hypercube_codes.cli
print("numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("hypercube")))
""")
    assert out.split() == ["False", "['hypercube_codes',", "'hypercube_codes.cli',",
                           "'hypercube_codes.errors']"]
