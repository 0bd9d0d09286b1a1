"""Start-up: each import path loads only the modules its caller uses.

The guards run fresh interpreters, because the test process has long
imported everything.  The package surface tests check that the lazy
re-exports (:mod:`repro._lazy`) keep every public name.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.dram import _kernelc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = ["repro", "repro.channel", "repro.dram", "repro.interleaver",
            "repro.mapping", "repro.store", "repro.system"]


def _loaded_after(code, env=None):
    """The modules a fresh interpreter loads running ``code``, as a set."""
    probe = ("import sys\n" + code + "\n"
             "import json\nprint(json.dumps(sorted(sys.modules)))\n")
    child_env = {**os.environ, **(env or {})}
    child_env["PYTHONPATH"] = SRC + os.pathsep + child_env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", probe], env=child_env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def _family(modules, *roots):
    """The members of ``modules`` that are ``roots`` or below them."""
    return sorted(m for m in modules
                  if any(m == root or m.startswith(root + ".")
                         for root in roots))


class TestImportGuards:
    @pytest.mark.parametrize("code", [
        "from repro.cli import main\n"
        "try:\n    main(['--help'])\nexcept SystemExit:\n    pass",
        "from repro.cli import main; main(['configs'])",
        "from repro.cli import main; main(['lint', %r])"
        % os.path.join(SRC, "repro", "units.py"),
    ], ids=["help", "configs", "lint"])
    def test_cli_commands_load_neither_numpy_nor_cffi(self, code):
        """``import repro`` alone: ``tests/test_api.py``."""
        loaded = _loaded_after(code)
        assert _family(loaded, "numpy", "cffi", "_cffi_backend") == []

    def test_batch_imports_skip_server_estimators_and_pool(self):
        """The benchmark's set-up imports load no server, adaptive or pool code."""
        loaded = _loaded_after(
            "import repro.store.jobs, repro.store.store, "
            "repro.system.campaign, repro.system.sweep")
        assert _family(loaded, "http.server", "repro.system.adaptive",
                       "concurrent.futures.process", "multiprocessing") == []

    def test_stored_campaign_never_imports_the_adaptive_estimators(self,
                                                                   tmp_path):
        loaded = _loaded_after(
            "from repro.store.jobs import DEFAULT_GRID_SPEC, grid_from_spec\n"
            "from repro.store.store import ResultStore\n"
            "from repro.system.campaign import run_campaign\n"
            "grid = grid_from_spec(dict(DEFAULT_GRID_SPEC, seeds=1, "
            "frames=4))[:6]\n"
            f"store = ResultStore({str(tmp_path)!r})\n"
            "first = run_campaign(grid, store=store)\n"
            "assert run_campaign(grid, store=store, resume=True) == first")
        assert "repro.system.adaptive" not in loaded

    def test_warm_native_cache_parses_no_declarations(self, tmp_path):
        if not _kernelc.available():
            pytest.skip("no native backend")
        env = {"REPRO_KERNELC_CACHE": str(tmp_path)}
        code = ("from repro.dram import _kernelc\n"
                "assert _kernelc.available()\n"
                "assert _kernelc.load_sampler() is not None")
        cold = _loaded_after(code, env)  # builds into the empty cache
        assert "cffi.cparser" in cold
        warm = _loaded_after(code, env)
        assert _family(warm, "cffi.cparser", "pycparser") == []


def _type_checking_imports(package):
    """``{name: module}`` of the ``if TYPE_CHECKING:`` block of a package."""
    tree = ast.parse(inspect.getsource(importlib.import_module(package)))
    names = {}
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for statement in node.body:
                names.update((alias.name, statement.module)
                             for alias in statement.names)
    return names


class TestLazyPackages:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_public_name_resolves_to_its_defining_object(self, package):
        module = importlib.import_module(package)
        sources = _type_checking_imports(package)
        assert sorted(sources) == sorted(module.__all__)
        for name in module.__all__:
            defining = importlib.import_module(sources[name])
            assert getattr(module, name) is getattr(defining, name), name

    @pytest.mark.parametrize("package", PACKAGES)
    def test_dir_lists_every_public_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", PACKAGES)
    def test_star_import_binds_every_public_name(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "no_such_name")

    def test_submodules_still_import_through_from(self):
        loaded = _loaded_after(
            "from repro.system import e2e, parallel\n"
            "assert e2e.__name__ == 'repro.system.e2e'\n"
            "assert parallel.__name__ == 'repro.system.parallel'")
        assert {"repro.system.e2e", "repro.system.parallel"} <= loaded
