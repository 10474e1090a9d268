"""Import budget: the warm path imports only what it uses.

``lcmm --help`` and a warm ``lcmm batch-compile`` must not load numpy
(only DNNK's vector sweep needs it) or the compiler, and a warm batch
must not load the process-pool machinery either; nor may deriving a
graph's cache-key digest load the compiler.  Each check runs in a fresh
interpreter, because this test process has long since imported
everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import batch_compile
from repro.cache.batch import STANDARD_CONFIGS, _job_key

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")
GOLDEN = str(Path(__file__).resolve().parent / "golden")

#: Modules a process that compiles nothing has no use for.
HEAVY = ("numpy", "repro.lcmm.framework", "repro.analysis.experiments")

#: What a process that forks no workers has no use for.
POOL = ("concurrent.futures.process",)

#: Packages whose exports load on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.perf",
    "repro.lcmm",
    "repro.analysis",
    "repro.io",
    "repro.codegen",
)

PACKAGES = LAZY_PACKAGES + (
    "repro.cache",
    "repro.hw",
    "repro.ir",
    "repro.models",
    "repro.obs",
    "repro.robustness",
    "repro.serve",
    "repro.sim",
)


def run_fresh(
    code: str, *args: str, watch: tuple[str, ...] = HEAVY
) -> tuple[subprocess.CompletedProcess, list[str]]:
    """Run ``code`` in a fresh interpreter; also the ``watch`` modules it loaded.

    ``code`` runs first; the loaded-module list is printed to stderr as
    the last line afterwards.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    report = (
        "\nimport json as _json, sys as _sys\n"
        f"print(_json.dumps([m for m in {watch!r} if m in _sys.modules]), "
        "file=_sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + report, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stderr.strip(), proc
    return proc, json.loads(proc.stderr.strip().splitlines()[-1])


def test_help_loads_no_compiler():
    proc, loaded = run_fresh(
        "from repro.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
    )
    assert "batch-compile" in proc.stdout
    assert loaded == []


def test_warm_batch_compile_loads_no_numpy_and_no_pool(tmp_path):
    models, configs = ["alexnet", "squeezenet"], ["umm", "dnnk", "splitting"]
    cold = batch_compile(models=models, configs=configs, cache_dir=tmp_path)
    assert cold.misses == len(models) * len(configs)
    proc, loaded = run_fresh(
        "import sys\n"
        "from repro.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n",
        "batch-compile", *models,
        "--configs", ",".join(configs),
        "--cache", str(tmp_path),
        "--workers", "2",
        "--require-all-hits",
        "--verify-golden", GOLDEN,
        watch=HEAVY + POOL,
    )
    assert "6 cache hits, 0 misses" in proc.stdout
    assert "(workers=1)" in proc.stdout
    assert "All results match the golden fingerprints" in proc.stdout
    # Hits are answered from the stored replies: no result is unpickled,
    # so neither the compiler nor numpy loads, and no pool is imported.
    assert loaded == []


def test_graph_fingerprint_loads_no_compiler():
    _, loaded = run_fresh(
        "from repro.fingerprint import graph_fingerprint\n"
        "from repro.models.zoo import get_model\n"
        "graph_fingerprint(get_model('googlenet'))\n"
    )
    assert loaded == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_import_loads_no_compiler(package):
    _, loaded = run_fresh(f"import {package}\n")
    assert loaded == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name


def test_lazy_package_keeps_submodule_attributes():
    import repro

    assert repro.lcmm.dnnk.dnnk_allocate is repro.lcmm.dnnk_allocate
    with pytest.raises(AttributeError):
        repro.no_such_name


def test_corrupt_artifact_recompiles_and_heals_in_job_order(tmp_path):
    configs = list(STANDARD_CONFIGS)
    cold = batch_compile(models=["alexnet"], configs=configs, cache_dir=tmp_path)
    (artifact,) = tmp_path.rglob(f"{_job_key('alexnet', 'dnnk', 'int8')}.pkl")
    artifact.write_bytes(b"torn write")

    warm = batch_compile(
        models=["alexnet"], configs=configs, cache_dir=tmp_path, workers=2
    )
    assert [o.config for o in warm.outcomes] == configs
    assert [o.config for o in warm.outcomes if not o.cache_hit] == ["dnnk"]
    assert warm.workers == 1
    assert [o.fingerprint for o in warm.outcomes] == [
        o.fingerprint for o in cold.outcomes
    ]
    assert warm.verify_golden(GOLDEN) == []

    healed = batch_compile(models=["alexnet"], configs=configs, cache_dir=tmp_path)
    assert healed.all_hits
