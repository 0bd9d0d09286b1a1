"""Command-line interface."""

import ast
import inspect
import os
import subprocess
import sys

import pytest

import repro
from repro import cli
from repro.cli import build_parser, main
from repro.dram import _kernelc

#: The ``src`` directory holding the package, for child interpreters.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("table1", "mixed", "ablation", "energy", "fig1",
                        "downlink", "campaign", "e2e", "provision",
                        "trace", "configs"):
            assert command in text


#: One bad input per command that checks its input before any work.
BAD_INPUT = [
    ["table1", "--configs", "DDR9-1"],
    ["table1", "--cap", "0"],
    ["mixed", "--n", "48", "--group", "0"],
    ["policy", "--disciplines", "bogus"],
    ["ablation", "--variants", "half-tiling"],
    ["energy", "--max-channels", "0"],
    ["e2e", "--frames", "0"],
    ["provision", "--configs", "NOPE"],
    ["fig1", "--config", "HBM9"],
    ["trace", "--config", "HBM9"],
    ["downlink", "--frames", "0"],
    ["campaign", "--seeds", "0"],
]


class TestErrorBoundary:
    """``main`` is the one place a library error becomes ``error: ...``."""

    @pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
    def test_bad_input_is_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["table1", "--configs", "DDR9-1"],
        ["table1", "--n", "6000", "--configs", "LPDDR4-4266"],
    ], ids=" ".join)
    def test_bad_input_leaves_no_store_directory(self, argv, tmp_path,
                                                 capsys):
        store = tmp_path / "d"
        assert main([*argv, "--store", str(store)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not store.exists()

    def test_key_error_prints_its_message_unquoted(self, capsys):
        assert main(["fig1", "--config", "HBM9"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown DRAM configuration 'HBM9'; known: DDR3-800, ")

    def test_only_main_catches_library_errors(self):
        """Command handlers catch ``OSError`` (and ``serve`` its
        ``KeyboardInterrupt``), never ``KeyError`` or ``ValueError``."""
        caught = {}
        for function in ast.walk(ast.parse(inspect.getsource(cli))):
            if isinstance(function, ast.FunctionDef):
                for handler in ast.walk(function):
                    if isinstance(handler, ast.ExceptHandler):
                        types = handler.type
                        names = types.elts if isinstance(types, ast.Tuple) else [types]
                        caught.setdefault(function.name, set()).update(
                            name.id for name in names)
        assert caught.pop("main") == {"KeyError", "ValueError"}
        assert set().union(*caught.values()) == {"OSError", "KeyboardInterrupt"}


class TestConfigs:
    def test_lists_all_ten(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        for name in ("DDR3-800", "DDR5-6400", "LPDDR5-8533"):
            assert name in out


class TestTable1:
    def test_single_config(self, capsys):
        assert main(["table1", "--n", "48", "--configs", "DDR3-800"]) == 0
        out = capsys.readouterr().out
        assert "DDR3-800" in out
        assert "limits interleaver throughput" in out

    def test_unknown_config_fails(self, capsys):
        assert main(["table1", "--configs", "DDR9-1"]) == 2
        assert "unknown DRAM configuration" in capsys.readouterr().err

    #: The first cell each grid command checks on LPDDR4-4266.
    FIRST_CELL = {"table1": "row-major", "energy": "row-major",
                  "provision": "row-major", "mixed": "row-major",
                  "policy": "optimized", "ablation": "full",
                  "e2e": "row-major"}

    @pytest.mark.parametrize("command", list(FIRST_CELL))
    def test_device_too_small_is_a_named_error(self, command, capsys):
        assert main([command, "--n", "6000", "--configs", "LPDDR4-4266"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: LPDDR4-4266, {self.FIRST_CELL[command]} mapping, "
            f"n=6000: ")

    def test_no_refresh_flag(self, capsys):
        assert main(["table1", "--n", "48", "--no-refresh",
                     "--configs", "DDR3-800"]) == 0
        capsys.readouterr()

    def test_jobs_flag(self, capsys):
        assert main(["table1", "--n", "48", "--configs", "DDR3-800",
                     "--jobs", "2"]) == 0
        assert "DDR3-800" in capsys.readouterr().out

    def test_kernel_flag_removed(self, capsys):
        """Engine selection is automatic; the old opt-in flag is gone."""
        for command in ("table1", "mixed", "ablation", "energy", "policy"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--kernel"])
        capsys.readouterr()


def _child_stdout(argv, native, env=None):
    """Run ``python <argv>`` in a fresh process; its stdout.

    ``native=False`` sets ``REPRO_KERNEL_NATIVE=0``, the switch that
    routes every kernel phase to the general engine and every channel
    batch to the dense path.  ``env`` adds variables to the child's
    environment.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if not native:
        env["REPRO_KERNEL_NATIVE"] = "0"
    done = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


#: A small campaign whose channel sees a few hundred fades.
CAMPAIGN_FADES = [
    "campaign", "--fade-symbols", "60", "--fade-fraction", "0.02",
    "--triangle-n", "15", "--seeds", "2", "--frames", "200", "--no-chart",
]


class TestKernelFallbackIdentity:
    """The general-engine and dense-channel fallbacks print the same bytes."""

    @pytest.mark.parametrize("args", [
        ["table1", "--n", "32"],
        ["e2e", "--n", "15", "--frames", "4", "--configs", "DDR4-3200",
         "LPDDR4-4266"],
        CAMPAIGN_FADES,
    ], ids=["table1", "e2e", "campaign"])
    def test_stdout_identical_without_native_kernel(self, args):
        argv = ["-m", "repro", *args]
        assert (_child_stdout(argv, native=False)
                == _child_stdout(argv, native=True))

    @pytest.mark.parametrize("native", (True, False),
                             ids=("default", "no-native"))
    def test_fallback_is_flagged(self, native):
        probe = ("from repro.dram import _kernelc; "
                 "from repro.system.sweep import run_table1; "
                 "row, = run_table1(n=8, config_names=('DDR4-3200',)); "
                 "print(_kernelc.available(), "
                 "row.optimized.read.kernel_fallback)")
        available, flagged = _child_stdout(["-c", probe], native).split()
        assert flagged == str(available == "False")
        if not native:
            assert flagged == "True"

    def test_compiler_failing_at_first_use(self, tmp_path, monkeypatch,
                                           capsys):
        """No compiler, empty cache: the tables still print, same bytes."""
        commands = (["table1", "--n", "32", "--configs", "DDR4-3200"],
                    CAMPAIGN_FADES)
        expected = []
        for argv in commands:
            assert main(argv) == 0
            expected.append(capsys.readouterr().out)
        monkeypatch.setenv("REPRO_KERNELC_CACHE", str(tmp_path))
        monkeypatch.setattr(_kernelc, "which", lambda name: None)
        monkeypatch.setattr(_kernelc, "_libraries", {})
        for argv, out in zip(commands, expected):
            assert main(argv) == 0
            assert capsys.readouterr().out == out
        assert not _kernelc.available()
        assert _kernelc.load_sampler() is None
        assert os.listdir(str(tmp_path)) == []

    def test_corrupt_cache_entries_are_rebuilt(self, tmp_path):
        """A truncated shared object is rebuilt once, not a fallback for good."""
        if not _kernelc.available():
            pytest.skip("no native backend to corrupt")
        env = {"REPRO_KERNELC_CACHE": str(tmp_path)}
        probe = ("from repro.cli import main; from repro.dram import _kernelc; "
                 "main(['table1', '--n', '32', '--configs', 'DDR4-3200']); "
                 "print(_kernelc.available(), "
                 "_kernelc.load_sampler() is not None)")
        clean = _child_stdout(["-c", probe], native=True, env=env)
        entries = sorted(os.listdir(str(tmp_path)))
        assert any(name.startswith("kernel-") for name in entries)
        for name in entries:
            os.truncate(str(tmp_path / name), 100)
        assert _child_stdout(["-c", probe], native=True, env=env) == clean
        assert sorted(os.listdir(str(tmp_path))) == entries


class TestMixed:
    def test_runs_table(self, capsys):
        assert main(["mixed", "--n", "48", "--configs", "DDR4-3200"]) == 0
        out = capsys.readouterr().out
        assert "DDR4-3200" in out
        assert "row-major" in out and "optimized" in out
        assert "turnaround" in out

    def test_unknown_config_fails(self, capsys):
        assert main(["mixed", "--configs", "DDR9-1"]) == 2
        assert "unknown DRAM configuration" in capsys.readouterr().err

    def test_rejects_bad_group(self, capsys):
        assert main(["mixed", "--n", "48", "--group", "0"]) == 2
        assert "group must be >= 1" in capsys.readouterr().err

    def test_group_flag(self, capsys):
        assert main(["mixed", "--n", "48", "--group", "64",
                     "--configs", "DDR3-800"]) == 0
        assert "DDR3-800" in capsys.readouterr().out

    def test_jobs_flag(self, capsys):
        assert main(["mixed", "--n", "48", "--configs", "DDR4-3200",
                     "--jobs", "2"]) == 0
        capsys.readouterr()

    def test_no_refresh_flag(self, capsys):
        assert main(["mixed", "--n", "48", "--no-refresh",
                     "--configs", "DDR3-800"]) == 0
        capsys.readouterr()

    def test_read_frame_too_large_is_a_named_error(self, capsys):
        """The frame fits LPDDR4 at n=3000, its double buffer does not."""
        assert main(["mixed", "--n", "3000", "--configs", "LPDDR4-4266"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: LPDDR4-4266, optimized mapping, n=3000: shifted frame ")


class TestTrace:
    def test_schedules_and_checks(self, capsys):
        assert main(["trace", "--config", "DDR4-3200", "--mapping", "optimized",
                     "--phase", "read", "--n", "24"]) == 0
        out = capsys.readouterr().out
        assert "DDR4-3200" in out
        assert "violations: 0" in out

    def test_writes_trace_file(self, tmp_path, capsys):
        path = tmp_path / "phase.trace"
        assert main(["trace", "--n", "24", "--out", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert text.startswith("# repro-dram-trace-v1")
        assert " RD " in text or " ACT " in text

    def test_replay_round_trip(self, tmp_path, capsys):
        path = tmp_path / "phase.trace"
        assert main(["trace", "--n", "24", "--phase", "write",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "--config", "DDR4-3200",
                     "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "original violations: 0" in out
        assert "re-scheduled" in out

    def test_replay_missing_file_fails(self, tmp_path, capsys):
        assert main(["trace", "--replay", str(tmp_path / "nope.trace")]) == 2
        assert "error" in capsys.readouterr().err

    def test_replay_bad_header_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("not a trace\n")
        assert main(["trace", "--replay", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_config_fails(self, capsys):
        assert main(["trace", "--config", "HBM9"]) == 2
        capsys.readouterr()

    def test_device_too_small_is_a_named_error(self, capsys):
        assert main(["trace", "--config", "LPDDR4-4266", "--n", "6000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: LPDDR4-4266, optimized mapping, n=6000: ")


class TestAblation:
    def test_runs_variants(self, capsys):
        assert main(["ablation", "--n", "48", "--configs", "DDR4-3200",
                     "--variants", "full", "no-tiling"]) == 0
        out = capsys.readouterr().out
        assert "full" in out and "no-tiling" in out

    def test_unknown_config_fails(self, capsys):
        assert main(["ablation", "--configs", "DDR9-1"]) == 2
        assert "unknown DRAM configuration" in capsys.readouterr().err

    def test_unknown_variant_fails(self, capsys):
        assert main(["ablation", "--variants", "half-tiling"]) == 2
        assert "unknown ablation variants" in capsys.readouterr().err

    def test_jobs_flag(self, capsys):
        assert main(["ablation", "--n", "32", "--configs", "DDR4-3200",
                     "--variants", "full", "--jobs", "2"]) == 0
        capsys.readouterr()


class TestEnergy:
    def test_runs_table_and_pareto(self, capsys):
        assert main(["energy", "--n", "32", "--configs", "DDR3-800"]) == 0
        out = capsys.readouterr().out
        assert "DDR3-800" in out
        assert "pJ/bit" in out
        assert "row-major" in out and "optimized" in out
        assert "Pareto frontier" in out  # chart follows the table

    def test_no_pareto_flag(self, capsys):
        assert main(["energy", "--n", "32", "--configs", "DDR3-800",
                     "--no-pareto"]) == 0
        assert "Pareto frontier" not in capsys.readouterr().out

    def test_unknown_config_fails(self, capsys):
        assert main(["energy", "--configs", "DDR9-1"]) == 2
        assert "unknown DRAM configuration" in capsys.readouterr().err

    def test_rejects_bad_max_channels(self, capsys):
        assert main(["energy", "--n", "32", "--max-channels", "0"]) == 2
        assert "--max-channels" in capsys.readouterr().err

    def test_no_refresh_flag(self, capsys):
        # LPDDR4's per-bank interval is short enough that refresh fires
        # even at n=32, so the flag observably changes the output.
        args = ["energy", "--n", "32", "--configs", "LPDDR4-2133",
                "--no-pareto"]
        assert main(args) == 0
        with_refresh = capsys.readouterr().out
        assert main(args + ["--no-refresh"]) == 0
        without_refresh = capsys.readouterr().out
        assert with_refresh != without_refresh
        for line in without_refresh.splitlines()[1:-1]:
            assert line.split()[4] == "0.000"  # E_ref column collapses
        assert any(line.split()[4] != "0.000"
                   for line in with_refresh.splitlines()[1:-1])

    def test_jobs_determinism_bit_identical(self, capsys):
        """The full energy output (table + Pareto chart) must not depend
        on how the grid was fanned out."""
        args = ["energy", "--n", "32", "--configs", "DDR3-800", "LPDDR4-2133",
                "--max-channels", "2"]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestFig1:
    def test_default_renders_panels(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        for tag in ("(a)", "(b)", "(c)", "(d)"):
            assert tag in out

    def test_real_config_geometry(self, capsys):
        assert main(["fig1", "--size", "16", "--config", "DDR3-800"]) == 0
        capsys.readouterr()

    def test_unknown_config_fails(self, capsys):
        assert main(["fig1", "--config", "HBM9"]) == 2
        capsys.readouterr()


class TestDownlink:
    def test_runs(self, capsys):
        assert main(["downlink", "--frames", "5", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "code-word failures" in out
        assert "gain" in out

    def test_rejects_bad_fade(self, capsys):
        assert main(["downlink", "--fade-fraction", "1.5"]) == 2
        capsys.readouterr()

    def test_infinite_gain_prints_inf(self, capsys):
        # Regression: seed 5 rescues every interleaved code word while
        # the baseline fails some, so the gain line must print "inf".
        assert main(["downlink", "--frames", "20", "--fade-symbols", "40",
                     "--fade-fraction", "0.01", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "gain: inf" in out


CAMPAIGN_SMALL = [
    "campaign", "--fade-symbols", "60", "--fade-fraction", "0.004",
    "--triangle-n", "15", "--seeds", "2", "--frames", "10",
]


class TestCampaign:
    def test_runs_small_grid(self, capsys):
        assert main(CAMPAIGN_SMALL) == 0
        out = capsys.readouterr().out
        assert "campaign: 2 cells" in out
        assert "CWER" in out
        assert "95% CI" in out
        assert "gain (log scale)" in out  # chart follows the table

    def test_no_chart_flag(self, capsys):
        assert main(CAMPAIGN_SMALL + ["--no-chart"]) == 0
        assert "gain (log scale)" not in capsys.readouterr().out

    def test_jobs_flag(self, capsys):
        assert main(CAMPAIGN_SMALL + ["--jobs", "2"]) == 0
        capsys.readouterr()

    def test_exports(self, tmp_path, capsys):
        json_path = tmp_path / "campaign.json"
        csv_path = tmp_path / "campaign.csv"
        assert main(CAMPAIGN_SMALL + ["--json", str(json_path),
                                      "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        import json as json_module
        document = json_module.loads(json_path.read_text())
        assert len(document["cells"]) == 2
        assert len(csv_path.read_text().strip().splitlines()) == 3

    def test_resume_requires_store(self, capsys):
        assert main(CAMPAIGN_SMALL + ["--resume"]) == 2
        assert "requires --store" in capsys.readouterr().err

    def test_rejects_bad_fade_fraction(self, capsys):
        assert main(["campaign", "--fade-fraction", "1.5",
                     "--seeds", "1", "--frames", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rejects_invalid_geometry(self, capsys):
        # 16*17/2 = 136 elements x 4 symbols is not a whole number of
        # 4x24-symbol code-word groups.
        assert main(["campaign", "--triangle-n", "16",
                     "--seeds", "1", "--frames", "5"]) == 2
        assert "whole number" in capsys.readouterr().err

    def test_rejects_zero_seeds(self, capsys):
        assert main(["campaign", "--seeds", "0"]) == 2
        capsys.readouterr()


class TestCampaignAdaptiveModes:
    def test_adaptive_mode_runs(self, capsys):
        assert main(CAMPAIGN_SMALL + ["--ci-width", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "half-width" in out
        assert "budgeted frames" in out
        assert "frames spent / budget" in out  # savings chart follows

    def test_adaptive_no_chart(self, capsys):
        assert main(CAMPAIGN_SMALL + ["--ci-width", "0.05",
                                      "--no-chart"]) == 0
        assert "frames spent / budget" not in capsys.readouterr().out

    def test_adaptive_exports(self, tmp_path, capsys):
        json_path = tmp_path / "adaptive.json"
        csv_path = tmp_path / "adaptive.csv"
        assert main(CAMPAIGN_SMALL + ["--ci-width", "0.05",
                                      "--json", str(json_path),
                                      "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        import json as json_module
        document = json_module.loads(json_path.read_text())
        assert len(document["cells"]) == 2
        assert len(csv_path.read_text().strip().splitlines()) == 3

    def test_adaptive_store_runs_are_byte_identical(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        command = CAMPAIGN_SMALL + ["--ci-width", "0.05", "--store", store]
        assert main(command) == 0
        first = capsys.readouterr().out
        assert main(command) == 0
        assert capsys.readouterr().out == first

    def test_rare_event_mode_runs(self, capsys):
        assert main(CAMPAIGN_SMALL + ["--rare-event", "--boost", "4"]) == 0
        out = capsys.readouterr().out
        assert "ESS" in out
        assert "importance sampling" in out

    def test_scenario_mode_runs(self, capsys):
        assert main(CAMPAIGN_SMALL + ["--scenario", "contact-pass"]) == 0
        out = capsys.readouterr().out
        assert "triangle_n=15 (contact-pass, 2 seed(s))" in out
        assert "el=10" in out and "el=90" in out
        assert "total" in out

    def test_rejects_mixed_modes(self, capsys):
        assert main(CAMPAIGN_SMALL + ["--ci-width", "0.05",
                                      "--rare-event"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert main(CAMPAIGN_SMALL + ["--rare-event",
                                      "--scenario", "contact-pass"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_rejects_bad_targets(self, capsys):
        assert main(CAMPAIGN_SMALL + ["--ci-width", "-1"]) == 2
        assert "--ci-width must be positive" in capsys.readouterr().err
        assert main(CAMPAIGN_SMALL + ["--ci-rel", "0"]) == 2
        assert "--ci-rel must be positive" in capsys.readouterr().err
        assert main(CAMPAIGN_SMALL + ["--ci-width", "0.05",
                                      "--batch-frames", "0"]) == 2
        assert "--batch-frames must be >= 1" in capsys.readouterr().err
        assert main(CAMPAIGN_SMALL + ["--rare-event", "--boost", "0.5"]) == 2
        assert "--boost must be >= 1" in capsys.readouterr().err

    def test_rejects_exports_outside_supported_modes(self, tmp_path, capsys):
        csv_path = str(tmp_path / "out.csv")
        assert main(CAMPAIGN_SMALL + ["--rare-event",
                                      "--csv", csv_path]) == 2
        assert "naive and adaptive" in capsys.readouterr().err
        assert main(CAMPAIGN_SMALL + ["--scenario", "contact-pass",
                                      "--json", csv_path]) == 2
        assert "naive and adaptive" in capsys.readouterr().err


E2E_SMALL = ["e2e", "--n", "15", "--frames", "8",
             "--configs", "DDR4-3200", "LPDDR4-4266"]


class TestE2E:
    def test_runs_joint_table(self, capsys):
        assert main(E2E_SMALL) == 0
        out = capsys.readouterr().out
        assert "e2e: 4 cells" in out
        assert "CWER intl" in out
        assert "pJ/bit" in out
        assert "row-major" in out and "optimized" in out
        assert "frame latency p50..p99" in out  # chart follows the table

    def test_no_chart_flag(self, capsys):
        assert main(E2E_SMALL + ["--no-chart"]) == 0
        assert "frame latency p50..p99" not in capsys.readouterr().out

    def test_jobs_determinism_bit_identical(self, capsys):
        """The full e2e output (table + latency chart) must not depend
        on how the cell grid was fanned out."""
        assert main(E2E_SMALL + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(E2E_SMALL + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_no_refresh_changes_latency_tail(self, capsys):
        args = ["e2e", "--n", "15", "--frames", "64",
                "--configs", "DDR4-3200", "--no-chart"]
        assert main(args) == 0
        with_refresh = capsys.readouterr().out
        assert main(args + ["--no-refresh"]) == 0
        without_refresh = capsys.readouterr().out
        assert with_refresh != without_refresh

    def test_unknown_config_fails(self, capsys):
        assert main(["e2e", "--configs", "DDR9-1"]) == 2
        assert "unknown DRAM configuration" in capsys.readouterr().err

    def test_rejects_zero_frames(self, capsys):
        assert main(["e2e", "--frames", "0"]) == 2
        assert "frames must be >= 1" in capsys.readouterr().err

    def test_rejects_invalid_geometry(self, capsys):
        # 16*17/2 = 136 elements x 4 symbols is not a whole number of
        # 4x24-symbol code-word groups.
        assert main(["e2e", "--n", "16", "--frames", "2",
                     "--configs", "DDR3-800"]) == 2
        assert "whole number" in capsys.readouterr().err

    def test_rejects_bad_fade_fraction(self, capsys):
        assert main(["e2e", "--fade-fraction", "1.5", "--frames", "2",
                     "--configs", "DDR3-800"]) == 2
        assert "error:" in capsys.readouterr().err


class TestProvision:
    def test_ranks_options(self, capsys):
        assert main(["provision", "--n", "48", "--target-gbit", "50",
                     "--configs", "DDR3-800", "DDR4-3200"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert "optimized" in out and "row-major" in out

    def test_rejects_bad_target(self, capsys):
        assert main(["provision", "--target-gbit", "0"]) == 2
        capsys.readouterr()

    def test_rejects_unknown_config(self, capsys):
        assert main(["provision", "--configs", "NOPE"]) == 2
        capsys.readouterr()


class TestStoreFlag:
    """The shared --store flag and the store-backed resume/export paths."""

    def test_serve_command_registered(self):
        assert "serve" in build_parser().format_help()

    def test_serve_names_a_store_directory_it_cannot_make(self, tmp_path,
                                                          capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        store = str(blocker / "sub")
        assert main(["serve", "--store", store, "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: cannot create store directory {store} (")
        assert captured.err.count("\n") == 1

    def test_campaign_store_resume_is_byte_identical(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(CAMPAIGN_SMALL + ["--store", store]) == 0
        first = capsys.readouterr().out
        assert main(CAMPAIGN_SMALL + ["--store", store, "--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_resume_error_names_the_store_flag(self, capsys):
        """``--cache-dir``, the old synonym of ``--store``, is gone."""
        assert main(CAMPAIGN_SMALL + ["--resume"]) == 2
        assert capsys.readouterr().err == "error: --resume requires --store\n"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--cache-dir", "x"])
        capsys.readouterr()

    def test_resume_accepts_store_without_cache_dir(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(CAMPAIGN_SMALL + ["--store", store, "--resume"]) == 0
        capsys.readouterr()

    def test_table1_store_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["table1", "--n", "16", "--configs", "DDR4-3200",
                "--store", store]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        import os as os_module
        assert any(name.startswith("phase-")
                   for name in os_module.listdir(store))

    def test_energy_reuses_table1_store_via_cli(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["energy", "--n", "16", "--configs", "DDR4-3200",
                     "--no-pareto"]) == 0
        cold = capsys.readouterr().out
        assert main(["table1", "--n", "16", "--configs", "DDR4-3200",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["energy", "--n", "16", "--configs", "DDR4-3200",
                     "--no-pareto", "--store", store]) == 0
        assert capsys.readouterr().out == cold

    def test_mixed_store_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["mixed", "--n", "16", "--configs", "DDR4-3200",
                "--store", store]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_e2e_store_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = E2E_SMALL + ["--no-chart", "--store", store]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestExportPaths:
    """open_export discipline: nested directories and CSV newline bytes."""

    def test_campaign_exports_into_missing_directory(self, tmp_path, capsys):
        json_path = tmp_path / "out" / "deep" / "cells.json"
        csv_path = tmp_path / "out" / "deep" / "cells.csv"
        assert main(CAMPAIGN_SMALL + ["--json", str(json_path),
                                      "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        assert json_path.exists()
        body = csv_path.read_bytes()
        assert b"\r\r" not in body
        assert body.count(b"\r\n") == 3  # header + 2 cells, csv-style rows

    def test_energy_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "nested" / "pareto.csv"
        assert main(["energy", "--n", "16", "--configs", "DDR4-3200",
                     "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ("config_name,mapping_name,channels,"
                            "sustained_gbit,total_peak_gbit,pj_per_bit,"
                            "channel_power_mw,power_mw,on_frontier")
        assert len(lines) == 1 + 2 * 4  # 2 mappings x 4 channel counts
        assert all(line.split(",")[-1] in ("0", "1") for line in lines[1:])

    def test_energy_csv_conflicts_with_no_pareto(self, tmp_path, capsys):
        assert main(["energy", "--n", "16", "--configs", "DDR4-3200",
                     "--no-pareto", "--csv", str(tmp_path / "x.csv")]) == 2
        assert "--no-pareto" in capsys.readouterr().err

    def test_provision_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "nested" / "provision.csv"
        assert main(["provision", "--n", "48", "--target-gbit", "50",
                     "--configs", "DDR3-800", "DDR4-3200",
                     "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("rank,config_name,mapping_name,channels")
        assert len(lines) == 1 + 4  # 2 configs x 2 mappings
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]

    def test_trace_out_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "traces" / "run" / "t.jsonl"
        assert main(["trace", "--n", "24", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()
