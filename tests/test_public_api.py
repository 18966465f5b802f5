"""The public API surface: everything exported in ``__all__`` resolves,
and the package-level convenience imports work."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.hw",
    "repro.workload",
    "repro.schedulers",
    "repro.core",
    "repro.kvs",
    "repro.stack",
    "repro.analysis",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert getattr(module, name, None) is not None, (
            f"{package}.{name} listed in __all__ but missing"
        )


def test_top_level_convenience_imports():
    import repro

    assert callable(repro.quick_run)
    assert callable(repro.build_system)
    assert callable(repro.run_workload)
    assert repro.__version__


def test_version_matches_pyproject():
    import repro

    with open("pyproject.toml") as handle:
        content = handle.read()
    assert f'version = "{repro.__version__}"' in content


# Runs in a fresh interpreter: the pytest process may already hold scipy.
_SCIPY_PROBE = textwrap.dedent("""
    import sys

    import repro
    import repro.analysis
    import repro.api
    import repro.experiments.cli
    import repro.experiments.common
    import repro.kvs.ownership
    import repro.workload.jobs
    from repro.analysis import confidence_interval

    def scipy_loaded():
        return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

    result = repro.quick_run("altocumulus", n_cores=4, rate_rps=1e6,
                             n_requests=200, seed=1)
    if not result.requests:
        sys.exit("quick_run completed no requests")
    if scipy_loaded():
        sys.exit(f"the run path imported {scipy_loaded()[:5]}")
    confidence_interval([1.0, 2.0])
    if "scipy.stats" not in scipy_loaded():
        sys.exit("confidence_interval did not load scipy.stats")
""")


def test_run_path_does_not_import_scipy():
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
