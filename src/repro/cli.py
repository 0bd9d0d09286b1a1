"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1``    — regenerate the paper's Table I (any subset of configs)
* ``mixed``     — steady-state interleaved read/write utilization
* ``policy``    — utilization across the scheduling-policy zoo
  (config x discipline grid; see :mod:`repro.dram.policy`)
* ``ablation``  — per-optimization ablation of the optimized mapping
* ``energy``    — per-frame energy table and the provisioning Pareto chart
* ``fig1``      — render the Fig. 1 mapping panels as text
* ``downlink``  — run the optical-downlink reliability comparison
* ``campaign``  — Monte Carlo downlink campaign over a fade/geometry
  grid; ``--ci-width``/``--ci-rel`` switch to adaptive stopping,
  ``--rare-event`` to importance sampling, ``--scenario`` to
  time-varying channel trajectories (``contact-pass``, ``weather``
  cloud-attenuation traces, ``multi-pass`` contact windows)
* ``e2e``       — joint downlink -> DRAM co-simulation table (FER +
  utilization + per-frame latency percentiles + energy per cell)
* ``provision`` — size a DRAM system for a target line rate
* ``serve``     — HTTP job API over a shared result store (submit a
  campaign grid, poll progress, stream incremental results)
* ``trace``     — record a phase's command trace and replay-check it
* ``configs``   — list the built-in device configurations
* ``lint``      — run the repo-specific static analyzer (R002–R006)

Simulation grids (``table1``, ``mixed``, ``ablation``, ``energy``,
``e2e``) accept ``--jobs N`` to fan the (config x mapping x phase) work
items out over N worker processes (``--jobs 0`` = every CPU this
process may use); results are identical to a serial run.  ``table1``,
``mixed``, ``energy``, ``e2e`` and ``campaign`` also accept
``--store DIR``, the shared
content-addressed result store: cells already persisted by *any*
earlier run — the same command, a different sweep over the same
(config, mapping, n) cells, or the ``serve`` job engine — are reused
instead of re-simulated, byte-identically.  Every DRAM phase schedules
through the batch-advance kernel (:mod:`repro.dram.kernel`), which
falls back to the reference arbiter by itself where it has no compiled
path (no C toolchain, ``REPRO_KERNEL_NATIVE=0``, the closed-page and
FR-FCFS-cap disciplines); either way the output is byte-identical.
``table1``, ``mixed``, ``energy`` and ``e2e`` accept
``--policy DISCIPLINE`` (plus ``--cap K`` for ``frfcfs-cap``) to swap
the scheduling discipline; the default ``open-page`` reproduces the historical behaviour bit-for-bit.

Every command prints plain text, so the CLI is scriptable from shell
pipelines.  Bad input always ends as ``error: <message>`` on stderr and
exit code 2, never a traceback: the library checks a grid's inputs
before any work, and :func:`main` turns its ``KeyError`` or
``ValueError`` into that line.

Each command imports its library inside its handler, so ``--help``,
``configs`` and ``lint`` start without NumPy or cffi.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.dram.policy import POLICY_NAMES, POLICY_OPEN_PAGE
from repro.dram.presets import TABLE1_CONFIG_NAMES, all_configs, get_config
from repro.units import gbit_per_s

if TYPE_CHECKING:
    from repro.dram.controller import ControllerConfig
    from repro.store.store import ResultStore


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the simulation grid "
                             "(0 = every CPU this process may use, "
                             "default 1 = serial)")


def _add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", choices=POLICY_NAMES,
                        default=POLICY_OPEN_PAGE, metavar="DISCIPLINE",
                        help="scheduling discipline "
                             f"({', '.join(POLICY_NAMES)}; default "
                             f"{POLICY_OPEN_PAGE}, the paper's operating "
                             "point and bit-identical to pre-policy runs)")
    parser.add_argument("--cap", type=int, default=4, metavar="K",
                        help="row-hit streak cap under frfcfs-cap "
                             "(default 4; ignored by other disciplines)")


def _policy_from(args: argparse.Namespace) -> ControllerConfig:
    """The controller policy a CLI invocation selected."""
    from repro.dram.controller import ControllerConfig

    return ControllerConfig(refresh_enabled=not getattr(args, "no_refresh",
                                                        False),
                            discipline=getattr(args, "policy",
                                               POLICY_OPEN_PAGE),
                            cap=getattr(args, "cap", 4))


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", metavar="DIR",
                        help="shared content-addressed result store: reuse "
                             "cells any earlier run persisted, write back "
                             "the rest (created if missing)")


def _open_store(args: argparse.Namespace) -> Optional[ResultStore]:
    from repro.store.store import ResultStore

    return ResultStore(args.store) if args.store else None


def _add_table1(subparsers: Any) -> None:
    parser = subparsers.add_parser("table1", help="regenerate Table I")
    parser.add_argument("--n", type=int, default=256,
                        help="triangle dimension (default 256)")
    parser.add_argument("--no-refresh", action="store_true",
                        help="disable refresh (the paper's >99%% experiment)")
    parser.add_argument("--configs", nargs="*", metavar="NAME",
                        help="subset of configurations (default: all ten)")
    _add_policy_arguments(parser)
    _add_jobs_argument(parser)
    _add_store_argument(parser)
    parser.set_defaults(func=_cmd_table1)


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.system.sweep import format_table1, run_table1

    rows = run_table1(n=args.n,
                      config_names=args.configs or TABLE1_CONFIG_NAMES,
                      policy=_policy_from(args), jobs=args.jobs,
                      store=_open_store(args))
    print(format_table1(rows))
    return 0


def _add_mixed(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "mixed",
        help="steady-state interleaved read/write utilization (single device)")
    parser.add_argument("--n", type=int, default=256,
                        help="triangle dimension (default 256)")
    parser.add_argument("--group", type=int, default=16,
                        help="same-direction requests issued back to back "
                             "before switching (default 16)")
    parser.add_argument("--no-refresh", action="store_true",
                        help="disable refresh (the paper's >99%% experiment)")
    parser.add_argument("--configs", nargs="*", metavar="NAME",
                        help="subset of configurations (default: all ten)")
    _add_policy_arguments(parser)
    _add_jobs_argument(parser)
    _add_store_argument(parser)
    parser.set_defaults(func=_cmd_mixed)


def _cmd_mixed(args: argparse.Namespace) -> int:
    from repro.system.sweep import format_mixed_table, run_mixed_table

    rows = run_mixed_table(n=args.n,
                           config_names=args.configs or TABLE1_CONFIG_NAMES,
                           group=args.group, policy=_policy_from(args),
                           jobs=args.jobs, store=_open_store(args))
    print(format_mixed_table(rows))
    return 0


def _add_ablation(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "ablation", help="ablate the three mapping optimizations (Sec. II)")
    parser.add_argument("--n", type=int, default=256,
                        help="triangle dimension (default 256)")
    parser.add_argument("--configs", nargs="*", metavar="NAME",
                        help="configurations (default: DDR4-3200 LPDDR4-4266)")
    parser.add_argument("--variants", nargs="*", metavar="VARIANT",
                        help="subset of ablation variants (default: all)")
    _add_jobs_argument(parser)
    parser.set_defaults(func=_cmd_ablation)


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.system.sweep import sweep_ablation

    points = sweep_ablation(
        config_names=args.configs or ("DDR4-3200", "LPDDR4-4266"), n=args.n,
        variants=args.variants or None, jobs=args.jobs)
    print(f"{'configuration':14s} {'variant':18s} {'write':>8s} {'read':>8s} {'min':>8s}")
    for point in points:
        print(f"{point.config_name:14s} {point.variant:18s} "
              f"{point.write_utilization:8.2%} {point.read_utilization:8.2%} "
              f"{point.min_utilization:8.2%}")
    return 0


def _add_energy(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "energy",
        help="per-frame energy accounting and the provisioning Pareto chart")
    parser.add_argument("--n", type=int, default=256,
                        help="triangle dimension (default 256)")
    parser.add_argument("--no-refresh", action="store_true",
                        help="disable refresh (the paper's >99%% experiment)")
    parser.add_argument("--configs", nargs="*", metavar="NAME",
                        help="subset of configurations (default: all ten)")
    parser.add_argument("--max-channels", type=int, default=4, metavar="K",
                        help="channel counts spanned by the Pareto report "
                             "(default 4)")
    parser.add_argument("--no-pareto", action="store_true",
                        help="print only the energy table, skip the "
                             "provisioning Pareto chart")
    parser.add_argument("--csv", metavar="PATH",
                        help="write one CSV row per provisioning Pareto "
                             "point")
    _add_policy_arguments(parser)
    _add_jobs_argument(parser)
    _add_store_argument(parser)
    parser.set_defaults(func=_cmd_energy)


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.store.export import write_csv_rows
    from repro.system.sweep import format_energy_table, run_energy_table
    from repro.system.throughput import (
        PARETO_CSV_FIELDS,
        energy_pareto,
        pareto_csv_rows,
        throughput_report,
    )
    from repro.viz import render_energy_pareto

    if args.max_channels < 1:
        print("error: --max-channels must be >= 1", file=sys.stderr)
        return 2
    if args.csv and args.no_pareto:
        print("error: --csv exports the Pareto points, which --no-pareto "
              "skips", file=sys.stderr)
        return 2
    rows = run_energy_table(n=args.n,
                            config_names=args.configs or TABLE1_CONFIG_NAMES,
                            policy=_policy_from(args), jobs=args.jobs,
                            store=_open_store(args))
    print(format_energy_table(rows))
    if not args.no_pareto:
        cells = [
            (throughput_report(get_config(row.config_name), row.result),
             row.combined)
            for row in rows
        ]
        points = energy_pareto(cells, max_channels=args.max_channels)
        print()
        print(render_energy_pareto(points))
        if args.csv:
            write_csv_rows(args.csv, PARETO_CSV_FIELDS,
                           pareto_csv_rows(points))
    return 0


def _add_policy(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "policy",
        help="sweep the scheduling-policy axis: every configuration "
             "under every page-management discipline")
    parser.add_argument("--n", type=int, default=256,
                        help="triangle dimension (default 256)")
    parser.add_argument("--no-refresh", action="store_true",
                        help="disable refresh (the paper's >99%% experiment)")
    parser.add_argument("--configs", nargs="*", metavar="NAME",
                        help="subset of configurations (default: all ten)")
    parser.add_argument("--disciplines", nargs="*", metavar="DISCIPLINE",
                        help=f"subset of disciplines (default: all of "
                             f"{', '.join(POLICY_NAMES)})")
    parser.add_argument("--mapping", choices=("row-major", "optimized"),
                        default="optimized",
                        help="Table I mapping every cell uses "
                             "(default optimized)")
    parser.add_argument("--cap", type=int, default=4, metavar="K",
                        help="row-hit streak cap of the frfcfs-cap cells "
                             "(default 4)")
    _add_jobs_argument(parser)
    _add_store_argument(parser)
    parser.set_defaults(func=_cmd_policy)


def _cmd_policy(args: argparse.Namespace) -> int:
    from repro.dram.controller import ControllerConfig
    from repro.system.sweep import format_policy_table, run_policy_table

    base = ControllerConfig(refresh_enabled=not args.no_refresh,
                            cap=args.cap)
    rows = run_policy_table(n=args.n,
                            config_names=args.configs or TABLE1_CONFIG_NAMES,
                            disciplines=args.disciplines or POLICY_NAMES,
                            mapping=args.mapping, policy=base, jobs=args.jobs,
                            store=_open_store(args))
    print(format_policy_table(rows))
    return 0


def _add_fig1(subparsers: Any) -> None:
    parser = subparsers.add_parser("fig1", help="render the Fig. 1 panels")
    parser.add_argument("--size", type=int, default=8,
                        help="index-space excerpt size (default 8)")
    parser.add_argument("--config", default=None,
                        help="use a real device geometry instead of the "
                             "2-bank figure-scale one")
    parser.set_defaults(func=_cmd_fig1)


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.dram.geometry import Geometry
    from repro.interleaver.triangular import RectangularIndexSpace
    from repro.viz import render_figure1

    if args.config:
        geometry = get_config(args.config).geometry
    else:
        geometry = Geometry(bank_groups=2, banks_per_group=1, rows=256,
                            columns=32, bus_width_bits=64, burst_length=8)
    space = RectangularIndexSpace(args.size, args.size)
    print(render_figure1(space, geometry))
    return 0


def _add_downlink(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "downlink", help="optical-downlink reliability with/without interleaving")
    parser.add_argument("--frames", type=int, default=40)
    parser.add_argument("--triangle-n", type=int, default=48)
    parser.add_argument("--fade-symbols", type=float, default=60.0,
                        help="mean fade length in symbols")
    parser.add_argument("--fade-fraction", type=float, default=0.004)
    parser.add_argument("--seed", type=int, default=2024)
    parser.set_defaults(func=_cmd_downlink)


def _cmd_downlink(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.channel.codeword import CodewordConfig
    from repro.channel.gilbert_elliott import GilbertElliottParams
    from repro.interleaver.two_stage import TwoStageConfig
    from repro.system.downlink import OpticalDownlink, format_gain

    if args.fade_symbols <= 1 or not 0 < args.fade_fraction < 1:
        print("error: fade-symbols must be >1 and fade-fraction in (0,1)",
              file=sys.stderr)
        return 2
    downlink = OpticalDownlink(
        TwoStageConfig(triangle_n=args.triangle_n, symbols_per_element=4,
                       codeword_symbols=24),
        CodewordConfig(n_symbols=24, t_correctable=2),
        GilbertElliottParams(
            p_g2b=args.fade_fraction / (1 - args.fade_fraction) / args.fade_symbols,
            p_b2g=1.0 / args.fade_symbols,
            p_bad=0.7,
        ),
        rng=np.random.default_rng(args.seed),
    )
    result = downlink.run_batched(args.frames)
    print(f"channel errors: {result.channel_profile.error_symbols} "
          f"(longest burst {result.channel_profile.max_burst})")
    print(f"code-word failures without interleaver: {result.baseline.failed}"
          f" / {result.baseline.codewords}")
    print(f"code-word failures with    interleaver: {result.interleaved.failed}"
          f" / {result.interleaved.codewords}")
    print(f"gain: {format_gain(result.gain)}")
    return 0


def _add_campaign(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "campaign",
        help="Monte Carlo downlink campaign over a (fade x geometry x seed) grid")
    parser.add_argument("--fade-symbols", type=float, nargs="+",
                        default=[40.0, 60.0, 90.0], metavar="L",
                        help="mean fade lengths in symbols (default 40 60 90)")
    parser.add_argument("--fade-fraction", type=float, nargs="+",
                        default=[0.002, 0.004, 0.008], metavar="F",
                        help="long-run fade fractions (default .002 .004 .008)")
    parser.add_argument("--p-bad", type=float, default=0.7,
                        help="symbol error probability inside fades (default 0.7)")
    parser.add_argument("--p-good", type=float, default=0.0,
                        help="symbol error probability outside fades (default 0)")
    parser.add_argument("--triangle-n", type=int, nargs="+",
                        default=[15, 32, 48], metavar="N",
                        help="triangular stage dimensions (default 15 32 48; "
                             "the frame must hold whole code-word groups)")
    parser.add_argument("--symbols-per-element", type=int, default=4)
    parser.add_argument("--codeword-symbols", type=int, default=24)
    parser.add_argument("--t-correctable", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=6, metavar="K",
                        help="seeds per configuration (default 6)")
    parser.add_argument("--seed-base", type=int, default=2024,
                        help="first seed of each configuration (default 2024)")
    parser.add_argument("--frames", type=int, default=400,
                        help="frames per cell (default 400); in adaptive "
                             "mode the per-cell frame *budget*, in scenario "
                             "mode the frames per trajectory segment")
    parser.add_argument("--ci-width", type=float, metavar="W",
                        help="adaptive stopping: run each cell until the "
                             "interleaved arm's 95%% Wilson half-width is "
                             "<= W (or the --frames budget is spent)")
    parser.add_argument("--ci-rel", type=float, metavar="R",
                        help="adaptive stopping, relative target: stop once "
                             "the half-width is <= R x the observed failure "
                             "rate (combinable with --ci-width)")
    parser.add_argument("--batch-frames", type=int, default=128, metavar="B",
                        help="adaptive mode: frames between half-width "
                             "checks (default 128; any value is "
                             "bit-identical, only the stop point moves)")
    parser.add_argument("--rare-event", action="store_true",
                        help="estimate CWER by importance sampling on a "
                             "fade-boosted proposal chain (deep-fade cells)")
    parser.add_argument("--boost", type=float, default=8.0,
                        help="rare-event mode: fade tilt factor of the "
                             "proposal chain (default 8)")
    parser.add_argument("--scenario",
                        choices=("contact-pass", "weather", "multi-pass"),
                        help="run a time-varying channel scenario instead "
                             "of the static grid: contact-pass follows one "
                             "elevation profile, weather a cloud-"
                             "attenuation trace, multi-pass several "
                             "elevation passes in a row (--fade-symbols/"
                             "--fade-fraction set the zenith / clear-sky "
                             "anchor)")
    parser.add_argument("--passes", type=int, default=3, metavar="P",
                        help="multi-pass scenario: contact passes in the "
                             "window (default 3)")
    parser.add_argument("--attenuations-db", type=float, nargs="+",
                        metavar="A",
                        help="weather scenario: cloud attenuation steps in "
                             "dB (default: a 0->6->0 dB cloud transit)")
    parser.add_argument("--json", metavar="PATH",
                        help="write cells + summaries as JSON")
    parser.add_argument("--csv", metavar="PATH",
                        help="write one CSV row per cell")
    parser.add_argument("--resume", action="store_true",
                        help="reuse store entries from an earlier run "
                             "(requires --store)")
    parser.add_argument("--no-chart", action="store_true",
                        help="skip the gain-vs-fade chart")
    _add_jobs_argument(parser)
    _add_store_argument(parser)
    parser.set_defaults(func=_cmd_campaign)


def _campaign_spec(args: argparse.Namespace) -> Dict[str, Any]:
    """The grid spec of a ``campaign`` invocation (see ``grid_from_spec``)."""
    return {
        "fade_symbols": args.fade_symbols,
        "fade_fraction": args.fade_fraction,
        "p_bad": args.p_bad,
        "p_good": args.p_good,
        "triangle_n": args.triangle_n,
        "symbols_per_element": args.symbols_per_element,
        "codeword_symbols": args.codeword_symbols,
        "t_correctable": args.t_correctable,
        "seeds": args.seeds,
        "seed_base": args.seed_base,
        "frames": args.frames,
    }


def _campaign_mode_error(args: argparse.Namespace) -> Optional[str]:
    """Validate the estimator-mode flag combination; message on error."""
    adaptive = args.ci_width is not None or args.ci_rel is not None
    modes = sum((adaptive, bool(args.rare_event), bool(args.scenario)))
    if modes > 1:
        return ("--ci-width/--ci-rel, --rare-event and --scenario select "
                "mutually exclusive estimators")
    if args.ci_width is not None and args.ci_width <= 0:
        return f"--ci-width must be positive, got {args.ci_width}"
    if args.ci_rel is not None and args.ci_rel <= 0:
        return f"--ci-rel must be positive, got {args.ci_rel}"
    if args.batch_frames < 1:
        return f"--batch-frames must be >= 1, got {args.batch_frames}"
    if args.boost < 1.0:
        return f"--boost must be >= 1, got {args.boost}"
    if (args.rare_event or args.scenario) and (args.json or args.csv):
        return ("--json/--csv exports cover the naive and adaptive "
                "estimators only")
    return None


def _cmd_campaign_adaptive(args: argparse.Namespace,
                           store: Optional[ResultStore]) -> int:
    from repro.store.export import open_export
    from repro.store.jobs import grid_from_spec
    from repro.system.adaptive import AdaptiveCell, format_adaptive
    from repro.system.campaign import export_csv, export_json, summarize_campaign
    from repro.system.parallel import run_tasks
    from repro.viz import render_adaptive_savings

    cells = [
        AdaptiveCell(channel=cell.channel, interleaver=cell.interleaver,
                     code=cell.code, seed=cell.seed, max_frames=cell.frames,
                     ci_width=args.ci_width, ci_rel=args.ci_rel,
                     batch_frames=args.batch_frames)
        for cell in grid_from_spec(_campaign_spec(args))
    ]
    results = run_tasks(cells, jobs=args.jobs, store=store)
    print(format_adaptive(results))
    if not args.no_chart:
        print()
        print(render_adaptive_savings(results))
    cell_results = [outcome.result for outcome in results]
    if args.json:
        with open_export(args.json) as stream:
            export_json(cell_results, summarize_campaign(cell_results),
                        stream)
    if args.csv:
        with open_export(args.csv) as stream:
            export_csv(cell_results, stream)
    return 0


def _cmd_campaign_rare_event(args: argparse.Namespace,
                             store: Optional[ResultStore]) -> int:
    from repro.store.jobs import grid_from_spec
    from repro.system.adaptive import (
        RareEventCell,
        default_proposal,
        format_rare_event,
    )
    from repro.system.parallel import run_tasks

    cells = [
        RareEventCell(channel=cell.channel,
                      proposal=default_proposal(cell.channel, args.boost),
                      interleaver=cell.interleaver, code=cell.code,
                      seed=cell.seed, frames=cell.frames)
        for cell in grid_from_spec(_campaign_spec(args))
    ]
    results = run_tasks(cells, jobs=args.jobs, store=store)
    print(format_rare_event(results))
    return 0


def _scenario_segments(args: argparse.Namespace) -> Any:
    """Build the trajectory a ``--scenario`` invocation selected.

    ``--fade-symbols``/``--fade-fraction`` anchor the *benign* end of
    every trajectory — the zenith for the elevation scenarios, the
    clear sky for the weather one.

    Raises:
        ValueError: on anchor statistics or step values the builders
            reject.
    """
    from repro.system.adaptive import (
        contact_pass_segments,
        multi_pass_segments,
        weather_segments,
    )

    if args.scenario == "weather":
        attenuations = (tuple(args.attenuations_db)
                        if args.attenuations_db is not None else None)
        kwargs = {} if attenuations is None else {
            "attenuations_db": attenuations}
        return weather_segments(
            frames_per_segment=args.frames,
            clear_fade_symbols=args.fade_symbols[0],
            clear_fade_fraction=args.fade_fraction[0],
            p_bad=args.p_bad,
            p_good=args.p_good,
            **kwargs,
        )
    if args.scenario == "multi-pass":
        return multi_pass_segments(
            passes=args.passes,
            frames_per_segment=args.frames,
            zenith_fade_symbols=args.fade_symbols[0],
            zenith_fade_fraction=args.fade_fraction[0],
            p_bad=args.p_bad,
            p_good=args.p_good,
        )
    return contact_pass_segments(
        frames_per_segment=args.frames,
        zenith_fade_symbols=args.fade_symbols[0],
        zenith_fade_fraction=args.fade_fraction[0],
        p_bad=args.p_bad,
        p_good=args.p_good,
    )


def _cmd_campaign_scenario(args: argparse.Namespace,
                           store: Optional[ResultStore]) -> int:
    from repro.channel.codeword import CodewordConfig
    from repro.interleaver.two_stage import TwoStageConfig
    from repro.system.adaptive import ScenarioCell, format_scenario
    from repro.system.parallel import run_tasks

    segments = _scenario_segments(args)
    cells = [
        ScenarioCell(
            segments=segments,
            interleaver=TwoStageConfig(
                triangle_n=triangle_n,
                symbols_per_element=args.symbols_per_element,
                codeword_symbols=args.codeword_symbols,
            ),
            code=CodewordConfig(n_symbols=args.codeword_symbols,
                                t_correctable=args.t_correctable),
            seed=args.seed_base + offset,
        )
        for triangle_n in args.triangle_n
        for offset in range(args.seeds)
    ]
    results = run_tasks(cells, jobs=args.jobs, store=store)
    blocks = []
    for triangle_n in args.triangle_n:
        group = [result for result in results
                 if result.cell.interleaver.triangle_n == triangle_n]
        blocks.append(f"triangle_n={triangle_n} "
                      f"({args.scenario}, {args.seeds} seed(s))\n"
                      + format_scenario(group))
    print("\n\n".join(blocks))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.store.export import open_export
    from repro.store.jobs import grid_from_spec
    from repro.system.campaign import (
        campaign_report,
        export_csv,
        export_json,
        run_campaign,
        summarize_campaign,
    )
    from repro.viz import render_campaign_gains

    if args.seeds < 1 or args.frames < 1:
        print("error: --seeds and --frames must be >= 1", file=sys.stderr)
        return 2
    mode_error = _campaign_mode_error(args)
    if mode_error:
        print(f"error: {mode_error}", file=sys.stderr)
        return 2
    if args.resume and not args.store:
        print("error: --resume requires --store", file=sys.stderr)
        return 2
    store = _open_store(args)
    # The non-naive estimators follow the store-native contract (hits
    # always reused when a store is given), like every other task grid;
    # --resume is the naive path's original opt-in kept for
    # compatibility.
    if args.ci_width is not None or args.ci_rel is not None:
        return _cmd_campaign_adaptive(args, store)
    if args.rare_event:
        return _cmd_campaign_rare_event(args, store)
    if args.scenario:
        return _cmd_campaign_scenario(args, store)
    results = run_campaign(grid_from_spec(_campaign_spec(args)),
                           jobs=args.jobs, store=store, resume=args.resume)
    summaries = summarize_campaign(results)
    print(campaign_report(results, summaries))
    if not args.no_chart:
        print()
        print(render_campaign_gains(summaries))
    if args.json:
        with open_export(args.json) as stream:
            export_json(results, summaries, stream)
    if args.csv:
        with open_export(args.csv) as stream:
            export_csv(results, stream)
    return 0


def _add_e2e(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "e2e",
        help="joint downlink -> DRAM co-simulation: FER, utilization, "
             "per-frame latency percentiles and energy per cell")
    parser.add_argument("--n", type=int, default=32,
                        help="triangle dimension; the frame must hold whole "
                             "code-word groups — 15, 32 and 48 qualify at "
                             "the defaults (default 32)")
    parser.add_argument("--frames", type=int, default=40,
                        help="frames co-simulated per cell (default 40)")
    parser.add_argument("--fade-symbols", type=float, default=60.0,
                        help="mean fade length in symbols (default 60)")
    parser.add_argument("--fade-fraction", type=float, default=0.004,
                        help="long-run fade fraction (default 0.004)")
    parser.add_argument("--p-bad", type=float, default=0.7,
                        help="symbol error probability inside fades (default 0.7)")
    parser.add_argument("--p-good", type=float, default=0.0,
                        help="symbol error probability outside fades (default 0)")
    parser.add_argument("--symbols-per-element", type=int, default=4)
    parser.add_argument("--codeword-symbols", type=int, default=24)
    parser.add_argument("--t-correctable", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--no-refresh", action="store_true",
                        help="disable refresh (the paper's >99%% experiment)")
    parser.add_argument("--configs", nargs="*", metavar="NAME",
                        help="subset of configurations (default: all ten)")
    parser.add_argument("--no-chart", action="store_true",
                        help="skip the latency-percentile chart")
    _add_policy_arguments(parser)
    _add_jobs_argument(parser)
    _add_store_argument(parser)
    parser.set_defaults(func=_cmd_e2e)


def _cmd_e2e(args: argparse.Namespace) -> int:
    from repro.channel.gilbert_elliott import coherence_params
    from repro.system.sweep import format_e2e_table, run_e2e_table
    from repro.viz import render_e2e_latency

    channel = coherence_params(args.fade_symbols, args.fade_fraction,
                               p_bad=args.p_bad, p_good=args.p_good)
    rows = run_e2e_table(
        n=args.n, config_names=args.configs or TABLE1_CONFIG_NAMES,
        frames=args.frames, channel=channel,
        symbols_per_element=args.symbols_per_element,
        codeword_symbols=args.codeword_symbols,
        t_correctable=args.t_correctable, seed=args.seed,
        policy=_policy_from(args), jobs=args.jobs, store=_open_store(args))
    first = rows[0].result
    print(f"e2e: {len(rows)} cells, {args.frames} frames each, "
          f"{first.downlink.interleaved.codewords} code words per arm")
    print(format_e2e_table(rows))
    if not args.no_chart:
        print()
        print(render_e2e_latency(rows))
    return 0


def _add_provision(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "provision", help="size a DRAM system for a target line rate")
    parser.add_argument("--target-gbit", type=float, default=100.0)
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--configs", nargs="*", metavar="NAME")
    parser.add_argument("--csv", metavar="PATH",
                        help="write one CSV row per ranked choice")
    parser.set_defaults(func=_cmd_provision)


def _cmd_provision(args: argparse.Namespace) -> int:
    from repro.store.export import write_csv_rows
    from repro.system.sweep import run_table1
    from repro.system.throughput import (
        PROVISION_CSV_FIELDS,
        provision,
        provision_csv_rows,
        throughput_report,
    )

    if args.target_gbit <= 0:
        print("error: target-gbit must be positive", file=sys.stderr)
        return 2
    rows = run_table1(n=args.n, config_names=args.configs or TABLE1_CONFIG_NAMES)
    reports = [throughput_report(get_config(row.config_name), result)
               for row in rows for result in (row.row_major, row.optimized)]
    choices = provision(reports, args.target_gbit)
    print(f"{'rank':4s} {'configuration':14s} {'mapping':10s} "
          f"{'channels':>8s} {'raw Gbit/s':>11s} {'oversizing':>11s}")
    for rank, choice in enumerate(choices, start=1):
        report = choice.report
        print(f"{rank:4d} {report.config_name:14s} {report.mapping_name:10s} "
              f"{choice.channels:8d} {choice.total_peak_gbit:11.0f} "
              f"{choice.oversizing_factor:10.2f}x")
    if args.csv:
        write_csv_rows(args.csv, PROVISION_CSV_FIELDS,
                       provision_csv_rows(choices))
    return 0


def _add_serve(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="HTTP job API over a shared result store: submit campaign "
             "grids, poll progress, stream incremental results")
    parser.add_argument("--store", metavar="DIR", required=True,
                        help="result-store directory shared with the batch "
                             "commands (created if missing)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="bind port; 0 picks an ephemeral one "
                             "(default 8765)")
    _add_jobs_argument(parser)
    parser.set_defaults(func=_cmd_serve)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.store.server import create_server

    try:
        server = create_server(args.store, host=args.host, port=args.port,
                               jobs=args.jobs)
    except OSError as error:
        # The store directory is made first; only its errors name a file.
        target = (f"create store directory {args.store}"
                  if error.filename is not None
                  else f"bind {args.host}:{args.port}")
        print(f"error: cannot {target} ({error})", file=sys.stderr)
        return 2
    host, port = server.server_address[0], server.server_address[1]
    print(f"serving on http://{host}:{port} (store: {args.store})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass  # clean shutdown; jobs persist in the store
    finally:
        server.server_close()
    return 0


def _add_trace(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "trace",
        help="record a phase's DRAM command trace, dump it, replay-check it")
    parser.add_argument("--config", default="DDR4-3200", metavar="NAME",
                        help="DRAM configuration (default DDR4-3200)")
    parser.add_argument("--mapping", choices=("row-major", "optimized"),
                        default="optimized")
    parser.add_argument("--phase", choices=("write", "read"), default="read",
                        help="which access phase to schedule (default read)")
    parser.add_argument("--n", type=int, default=64,
                        help="triangle dimension (default 64)")
    parser.add_argument("--no-refresh", action="store_true",
                        help="disable refresh during the phase")
    parser.add_argument("--out", metavar="PATH",
                        help="write the command trace to this file")
    parser.add_argument("--replay", metavar="PATH",
                        help="instead of scheduling a phase, read a trace "
                             "file, re-schedule its request stream through "
                             "the engine and check both schedules")
    parser.set_defaults(func=_cmd_trace)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
    from repro.dram.engine import TraceReplaySource
    from repro.dram.kernel import KernelEngine
    from repro.dram.simulator import simulate_phase
    from repro.dram.trace import check_phase_commands, read_trace, write_trace
    from repro.store.export import open_export
    from repro.system.sweep import cell_mapping

    config = get_config(args.config)
    policy = ControllerConfig(refresh_enabled=not args.no_refresh,
                              record_commands=True)

    if args.replay:
        try:
            with open(args.replay) as stream:
                commands = read_trace(stream)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        original_violations = check_phase_commands(config, commands)
        result = KernelEngine(config, policy).run(TraceReplaySource(commands))
        replay_violations = check_phase_commands(config, result.commands)
        print(f"trace: {len(commands)} commands, "
              f"{result.stats.requests} data bursts "
              f"({result.reads} reads, {result.writes} writes)")
        print(f"original violations: {len(original_violations)}")
        print(f"re-scheduled: {len(result.commands)} commands, "
              f"utilization {result.stats.utilization:.2%}, "
              f"violations: {len(replay_violations)}")
        for violation in (original_violations + replay_violations)[:10]:
            print(f"  {violation}")
        if args.out:
            with open_export(args.out) as stream:
                write_trace(result.commands, stream)
            print(f"re-scheduled trace written to {args.out}")
        return 1 if original_violations or replay_violations else 0

    op = OP_WRITE if args.phase == "write" else OP_READ
    mapping = cell_mapping(config.name, args.mapping, args.n)
    result = simulate_phase(config, mapping, op, policy)
    violations = check_phase_commands(config, result.commands)
    print(f"{config.name} {mapping.name} {args.phase}: "
          f"{result.stats.requests} requests, "
          f"{len(result.commands)} commands, "
          f"utilization {result.stats.utilization:.2%}")
    print(f"replay-check violations: {len(violations)}")
    for violation in violations[:10]:
        print(f"  {violation}")
    if args.out:
        with open_export(args.out) as stream:
            count = write_trace(result.commands, stream)
        print(f"trace written to {args.out} ({count} commands)")
    return 1 if violations else 0


def _add_lint(subparsers: Any) -> None:
    parser = subparsers.add_parser(
        "lint",
        help="run the repo-specific static analyzer (proof-discipline "
             "rules R002-R006)")
    parser.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                        help="files/directories to analyze (default: src)")
    parser.add_argument("--select", nargs="*", metavar="RULE",
                        help="subset of rule ids to run (default: all)")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON report")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.set_defaults(func=_cmd_lint)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import list_rules_text, run_lint

    if args.list_rules:
        print(list_rules_text())
        return 0
    select = tuple(args.select) if args.select else None
    return run_lint(args.paths, select=select, json_output=args.json)


def _add_configs(subparsers: Any) -> None:
    parser = subparsers.add_parser("configs", help="list device configurations")
    parser.set_defaults(func=_cmd_configs)


def _cmd_configs(_args: argparse.Namespace) -> int:
    print(f"{'name':14s} {'banks':>5s} {'groups':>6s} {'page':>6s} "
          f"{'burst':>6s} {'peak':>11s} {'refresh':>9s}")
    for config in all_configs():
        geometry = config.geometry
        print(f"{config.name:14s} {geometry.banks:5d} {geometry.bank_groups:6d} "
              f"{geometry.row_bytes // 1024:5d}K {geometry.burst_bytes:5d}B "
              f"{gbit_per_s(config.peak_bandwidth_bytes_per_s):8.1f}Gb/s "
              f"{config.refresh_mode:>9s}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Triangular block interleavers on DRAM (DATE 2024 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_table1(subparsers)
    _add_mixed(subparsers)
    _add_policy(subparsers)
    _add_ablation(subparsers)
    _add_energy(subparsers)
    _add_fig1(subparsers)
    _add_downlink(subparsers)
    _add_campaign(subparsers)
    _add_e2e(subparsers)
    _add_provision(subparsers)
    _add_serve(subparsers)
    _add_trace(subparsers)
    _add_configs(subparsers)
    _add_lint(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The one error boundary: a ``KeyError`` or ``ValueError`` out of a
    command prints ``error: <message>`` to stderr and returns 2.
    """
    args = build_parser().parse_args(argv)
    try:
        code: int = args.func(args)
    except (KeyError, ValueError) as error:
        # str() of a KeyError is the repr of its message; print the text.
        message = error.args[0] if isinstance(error, KeyError) and error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
