"""The generated documentation site builds clean (warnings are errors).

This is the tier-1 form of the CI ``docs`` job: the generator
introspects every public module, resolves every docstring
cross-reference, renders the hand-written reST pages strictly and
link-checks the site plus the README — any warning fails the build, so
a public API addition without a docstring (or a stale cross-reference)
breaks the test suite, not just the docs job.

The build runs under ``python -B``: it imports every module of the
package, and bytecode it wrote under ``src/`` would make a checkout the
suite ran in start faster than a fresh one.
"""

import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).parent.parent


def _build(tmp_path):
    return subprocess.run(
        [sys.executable, "-B", str(REPO / "docs" / "build_docs.py"),
         "--out", str(tmp_path / "site")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


def _bytecode_under_src():
    """Every ``__pycache__`` entry under ``src/``, with its mtime."""
    return {(str(path), path.stat().st_mtime_ns)
            for path in (REPO / "src").rglob("__pycache__/*")}


@pytest.fixture(scope="module")
def built_site(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("docs")
    before = _bytecode_under_src()
    result = _build(tmp_path)
    return result, tmp_path / "site", _bytecode_under_src() - before


class TestDocsBuild:
    def test_builds_without_warnings(self, built_site):
        result, _site, _written = built_site
        assert result.returncode == 0, result.stderr
        assert "warning" not in result.stderr

    def test_build_writes_no_bytecode_under_src(self, built_site):
        _result, _site, written = built_site
        assert written == set()

    def test_hand_written_pages_exist(self, built_site):
        _result, site, _written = built_site
        for page in ("index.html", "architecture.html", "reproduction.html"):
            assert (site / page).exists()

    def test_api_reference_covers_all_packages(self, built_site):
        _result, site, _written = built_site
        for module in ("repro.channel", "repro.interleaver", "repro.mapping",
                       "repro.dram", "repro.system"):
            assert (site / "api" / f"{module}.html").exists()
        index = (site / "api" / "index.html").read_text()
        assert "repro.system.e2e" in index
        assert "repro.dram.engine" in index

    def test_docstring_cross_references_are_links(self, built_site):
        _result, site, _written = built_site
        e2e = (site / "api" / "repro.system.e2e.html").read_text()
        # :class:`~repro.dram.engine.WorkloadSource` in the e2e module
        # docstring must have become a hyperlink to the engine page.
        assert 'href="../api/repro.dram.engine.html#WorkloadSource"' in e2e

    def test_architecture_page_documents_the_dataflow(self, built_site):
        _result, site, _written = built_site
        text = (site / "architecture.html").read_text()
        for stage in ("WorkloadSource", "eager row management", "CAS arbiter",
                      "FrameStreamSource"):
            assert stage in text
