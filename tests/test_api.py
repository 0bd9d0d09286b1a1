"""Public API surface: everything advertised in __all__ exists and the
README quickstart actually runs."""

import os
import subprocess
import sys

import repro


class TestSurface:
    def test_all_names_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_subpackages_importable(self):
        import repro.channel  # noqa: F401
        import repro.dram  # noqa: F401
        import repro.interleaver  # noqa: F401
        import repro.mapping  # noqa: F401
        import repro.system  # noqa: F401
        import repro.viz  # noqa: F401

    def test_dram_all_names_exist(self):
        import repro.dram as dram
        for name in dram.__all__:
            assert hasattr(dram, name), name

    def test_mapping_all_names_exist(self):
        import repro.mapping as mapping
        for name in mapping.__all__:
            assert hasattr(mapping, name), name

    def test_import_loads_neither_cffi_nor_numpy_random(self):
        """``import repro`` loads no NumPy and no cffi: the package
        re-exports lazily, so NumPy, the native backend and the
        channel's generators load at first use."""
        probe = ("import sys; before = set(sys.modules); import repro; "
                 "print(sorted(m for m in set(sys.modules) - before "
                 "if m.split('.')[0] in ('cffi', '_cffi_backend', 'numpy')))")
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_every_module_imports_with_only_src_on_the_path(self):
        """Library code never imports the test-only ``oracles`` package.

        A child interpreter whose only added path is ``src/`` imports
        every ``repro`` module except ``__main__``; a module importing
        from ``tests/oracles`` fails there.
        """
        probe = ("import importlib, pkgutil, repro\n"
                 "names = [info.name for info in pkgutil.walk_packages("
                 "repro.__path__, 'repro.')]\n"
                 "for name in names:\n"
                 "    if name != 'repro.__main__':\n"
                 "        importlib.import_module(name)\n"
                 "print(len(names))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", probe], cwd=src, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) > 40  # the whole package, not an empty walk


class TestQuickstart:
    def test_readme_quickstart(self):
        config = repro.get_config("DDR4-3200")
        space = repro.TriangularIndexSpace(64)
        mapping = repro.OptimizedMapping(space, config.geometry)
        result = repro.simulate_interleaver(config, mapping)
        assert 0 < result.write_utilization <= 1
        assert 0 < result.read_utilization <= 1

    def test_table1_config_names_public(self):
        assert len(repro.TABLE1_CONFIG_NAMES) == 10
