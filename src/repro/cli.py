"""Command-line interface: ``python -m repro <command>``.

Gives a downstream user the paper's experiments and the simulator's
diagnostics without writing a kernel:

* ``run`` — execute any registered scenario from a declarative spec
  (``repro run histogram --set bins=4 --cores 16``);
* ``list`` — the scenario registry with tunable parameters and their
  defaults (``--long`` for the full per-workload detail, ``--probes``
  for the telemetry probe registry, ``--variants`` for the
  atomic-memory variant registry with its area cost model);
* ``sweep`` — a cartesian sweep over spec/param axes
  (``repro sweep histogram --axis bins=1,4,16``), exportable with
  ``--out DIR --format json|csv``;
* ``explore`` — a budgeted design-space search campaign over axes with
  objectives, samplers and a resumable journal (``repro explore
  histogram --axis bins=1,4,16 --axis variant=lrsc,colibri
  --objective min:cycles --sampler halving --budget 12 --out DIR``);
* ``frontier`` — rankings and the Pareto frontier of a saved campaign
  journal (``repro frontier DIR/journal.json``);
* ``cache`` — result-cache maintenance (``repro cache stats|prune
  --cache-dir DIR [--max-entries N]``), with lifetime hit/miss rates
  from the directory's counters sidecar;
* ``obs`` — platform observability readback: ``repro obs summary
  FILE`` renders utilization/cache/throughput from an ``--obs-trace``
  Chrome trace (record one with ``repro sweep/explore/reproduce
  --obs-trace FILE [--profile OUT]``), a campaign journal, or an
  ``events.jsonl`` control-plane log;
* ``status`` — live campaign monitoring: ``repro status DIR
  [--follow]`` reconstructs progress, budget burn, ETA and per-worker
  liveness purely from the on-disk control plane an ``explore
  --events`` campaign maintains (``events.jsonl`` and the journal) —
  running, finished or killed alike;
* ``trace`` — run a scenario with telemetry probes attached and render
  or export the diagnostics (``repro trace histogram --probe
  bank_contention --out report/ --format json``);
* ``area`` — Table I (model vs paper) and the scaling extrapolation;
* ``reproduce`` — every table and figure of the paper manifest
  (``--full`` for 256 cores, ``--only table2`` for one experiment).

All commands are deterministic for a given ``--seed``, and every
measurement-producing command routes through
:mod:`repro.scenarios`, so ``--jobs``/``--cache-dir`` behave the same
everywhere.
"""

from __future__ import annotations

import argparse
from typing import Optional

from .engine.errors import ReproError
from .obs import OBS
from .obs.status import DEFAULT_STALE_AFTER
from .eval import paper
from .eval.reporting import render_table
from .eval.runner import ResultCache, jobs_argument
from .eval.table1 import run_table1, scaling_table
from .scenarios import (
    apply_settings,
    default_spec,
    list_workloads,
    run_scenario,
)
from .scenarios.run import sweep as sweep_scenarios

def _add_jobs(parser: argparse.ArgumentParser) -> None:
    """Sweep-sharding options (commands that run many independent sims)."""
    parser.add_argument("--jobs", type=jobs_argument, default=1,
                        help="parallel simulation workers for sweeps "
                             "(0 = all CPUs; results are identical for "
                             "any value)")
    parser.add_argument("--cache-dir", default=None,
                        help="memoize finished points here; re-runs only "
                             "simulate configurations that changed")
    parser.add_argument("--cache-max-entries", type=int, default=None,
                        metavar="N",
                        help="bound the cache directory at N entries "
                             "with LRU eviction (default: unbounded; "
                             "see also 'repro cache prune')")


def _add_obs(parser: argparse.ArgumentParser) -> None:
    """Platform-observability options (commands that run many points)."""
    parser.add_argument("--obs-trace", default=None, metavar="FILE",
                        help="record harness spans and metrics (cache "
                             "hits, points/sec) and export "
                             "them as Chrome trace-event JSON to FILE "
                             "(open in Perfetto or chrome://tracing; "
                             "summarize with 'repro obs summary FILE')")
    parser.add_argument("--profile", default=None, metavar="FILE",
                        help="profile execution phases with cProfile "
                             "and dump the hottest phase's pstats to "
                             "FILE (requires --jobs 1)")


def _runner_options(args):
    """(jobs, cache) pair from parsed ``--jobs`` / ``--cache-dir``."""
    if not args.cache_dir:
        return args.jobs, None
    try:
        cache = ResultCache(args.cache_dir,
                            max_entries=getattr(args, "cache_max_entries",
                                                None))
    except OSError as exc:
        raise SystemExit(
            f"repro: cannot use --cache-dir {args.cache_dir!r}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"repro: --cache-max-entries: {exc}")
    return args.jobs, cache


def _parse_value(text: str):
    """A ``--set``/``--axis`` value: int, float, bool, none or string."""
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("none", "null"):
        return None
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def _parse_settings(pairs) -> dict:
    """``["k=v", ...]`` -> ``{k: parsed v}`` with error reporting."""
    settings = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"repro: --set expects KEY=VALUE, got {pair!r}")
        settings[key.strip()] = _parse_value(value.strip())
    return settings


def _parse_axes(pairs) -> dict:
    """``["k=v1,v2", ...]`` -> ``{k: [parsed v1, parsed v2]}``."""
    axes = {}
    for pair in pairs:
        key, sep, values = pair.partition("=")
        if not sep or not key or not values:
            raise SystemExit(
                f"repro: --axis expects KEY=V1,V2[,...], got {pair!r}")
        axes[key.strip()] = [_parse_value(v.strip())
                             for v in values.split(",")]
    return axes


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LRSCwait/Colibri manycore-synchronization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser(
        "run", help="run one registered scenario from a declarative spec")
    runp.add_argument("scenario", help="registered workload name "
                                       "(see 'repro list')")
    runp.add_argument("--set", action="append", default=[],
                      dest="settings", metavar="KEY=VALUE",
                      help="override a spec field (cores, variant, seed, "
                           "mode, horizon, metrics, shape) or a workload "
                           "parameter; repeatable")
    runp.add_argument("--cores", type=int, default=None,
                      help="shorthand for --set cores=N")
    runp.add_argument("--variant", default=None,
                      help="variant string, e.g. colibri, lrscwait:half")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--smoke", action="store_true",
                      help="apply the workload's tiny smoke parameters "
                           "(CI uses this on every registered scenario)")
    runp.add_argument("--show-spec", action="store_true",
                      help="also print the spec as canonical JSON")
    _add_jobs(runp)

    lst = sub.add_parser("list", help="registered scenarios and probes")
    lst.add_argument("--names", action="store_true",
                     help="names only, one per line (for scripting; "
                          "combines with --variants)")
    lst.add_argument("--long", action="store_true",
                     help="full per-scenario detail: every tunable "
                          "parameter with its default, spec-level "
                          "defaults, and smoke overrides")
    lst.add_argument("--probes", action="store_true",
                     help="list registered telemetry probes instead "
                          "(for 'repro trace --probe')")
    lst.add_argument("--samplers", action="store_true",
                     help="list registered search samplers instead "
                          "(for 'repro explore --sampler')")
    lst.add_argument("--variants", action="store_true",
                     help="list registered atomic-memory variants "
                          "instead: parameters, native method, and "
                          "modeled per-core area overhead (for "
                          "--variant / --set variant=...)")

    trace = sub.add_parser(
        "trace", help="run one scenario with telemetry probes attached")
    trace.add_argument("scenario", help="registered workload name "
                                        "(see 'repro list')")
    trace.add_argument("--probe", action="append", default=[],
                       dest="probes", metavar="NAME",
                       help="telemetry probe to attach (repeatable; "
                            "default: every registered probe; see "
                            "'repro list --probes')")
    trace.add_argument("--set", action="append", default=[],
                       dest="settings", metavar="KEY=VALUE",
                       help="spec/param override, as in 'repro run'")
    trace.add_argument("--cores", type=int, default=None,
                       help="shorthand for --set cores=N")
    trace.add_argument("--variant", default=None,
                       help="variant string, e.g. colibri, lrscwait:half")
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument("--smoke", action="store_true",
                       help="apply the workload's tiny smoke parameters")
    trace.add_argument("--window", type=int, default=None,
                       help="cycle-window width for windowed probes "
                            "(bank_contention; default 256)")
    trace.add_argument("--width", type=int, default=64,
                       help="character width of the ASCII heatmap/"
                            "timeline rendering")
    trace.add_argument("--out", default=None, metavar="DIR",
                       help="export the report into this directory "
                            "(created if missing)")
    trace.add_argument("--format", choices=("json", "csv", "vcd"),
                       default="json",
                       help="export format for --out: one JSON report, "
                            "one CSV per probe, or a VCD waveform of "
                            "the core-state timeline (needs the "
                            "core_timeline probe)")

    swp = sub.add_parser(
        "sweep", help="cartesian sweep of a scenario over axis values")
    swp.add_argument("scenario")
    swp.add_argument("--axis", action="append", required=True,
                     dest="axes", metavar="KEY=V1,V2,...",
                     help="axis to sweep; repeat for a cartesian grid")
    swp.add_argument("--set", action="append", default=[],
                     dest="settings", metavar="KEY=VALUE",
                     help="fixed overrides applied to every point")
    swp.add_argument("--cores", type=int, default=None)
    swp.add_argument("--variant", default=None)
    swp.add_argument("--seed", type=int, default=None)
    swp.add_argument("--out", default=None, metavar="DIR",
                     help="also export the sweep results into this "
                          "directory (created if missing)")
    swp.add_argument("--format", choices=("json", "csv"), default="json",
                     help="export format for --out: one JSON document "
                          "or one tidy CSV table")
    _add_jobs(swp)
    _add_obs(swp)

    explore = sub.add_parser(
        "explore", help="budgeted design-space search campaign "
                        "(samplers, objectives, Pareto frontier)")
    explore.add_argument("scenario", help="registered workload name "
                                          "(see 'repro list')")
    explore.add_argument("--axis", action="append", required=True,
                         dest="axes", metavar="KEY=V1,V2,...",
                         help="search axis (spec field or workload "
                              "param); repeat to span more dimensions")
    explore.add_argument("--constraint", action="append", default=[],
                         dest="constraints", metavar="EXPR",
                         help="boolean expression over axis keys that "
                              "prunes invalid combinations (e.g. "
                              "'bins <= cores'); repeatable")
    explore.add_argument("--objective", action="append", default=[],
                         dest="objectives", metavar="GOAL:METRIC",
                         help="optimization target, e.g. min:cycles, "
                              "max:throughput, min:energy; first is "
                              "primary, several build a Pareto "
                              "frontier (default: min:cycles)")
    explore.add_argument("--sampler", default="grid",
                         help="search strategy: grid, random, or "
                              "halving (see 'repro list --samplers')")
    explore.add_argument("--budget", type=int, required=True,
                         help="maximum number of *fresh* simulations; "
                              "cache hits, journal replays and repeat "
                              "proposals are free")
    explore.add_argument("--set", action="append", default=[],
                         dest="settings", metavar="KEY=VALUE",
                         help="fixed base-spec overrides, as in "
                              "'repro run'")
    explore.add_argument("--cores", type=int, default=None,
                         help="shorthand for --set cores=N")
    explore.add_argument("--variant", default=None,
                         help="base variant string (often an --axis "
                              "instead)")
    explore.add_argument("--seed", type=int, default=None,
                         help="seed for both the base spec and the "
                              "sampler's randomness")
    explore.add_argument("--smoke", action="store_true",
                         help="apply the workload's tiny smoke "
                              "parameters to the base spec (CI uses "
                              "this for the explore-smoke campaign)")
    explore.add_argument("--out", default=None, metavar="DIR",
                         help="campaign directory: the journal is "
                              "written (atomically, after every batch) "
                              "to DIR/journal.json")
    explore.add_argument("--resume", default=None, metavar="DIR",
                         help="resume the campaign journaled in DIR: "
                              "journaled evaluations replay without "
                              "re-simulating, then the search "
                              "continues")
    explore.add_argument("--top", type=int, default=10,
                         help="ranking rows to print")
    explore.add_argument("--width", type=int, default=56,
                         help="character width of the frontier plot")
    explore.add_argument("--events", action="store_true",
                         help="write the campaign control plane next to "
                              "the journal: an append-only "
                              "events.jsonl of state transitions and "
                              "per-process heartbeat records, which "
                              "with the journal is what 'repro "
                              "status' reads (needs --out/--resume)")
    _add_jobs(explore)
    _add_obs(explore)

    front = sub.add_parser(
        "frontier", help="rankings + Pareto frontier of a saved "
                         "campaign journal")
    front.add_argument("journal", help="journal.json file (or the "
                                       "campaign directory holding one)")
    front.add_argument("--top", type=int, default=10,
                       help="ranking rows to print")
    front.add_argument("--width", type=int, default=56,
                       help="character width of the frontier plot")

    cachep = sub.add_parser(
        "cache", help="result-cache maintenance (stats, LRU pruning)")
    cachep.add_argument("action", choices=("stats", "prune"),
                        help="'stats' reports entry count and bytes; "
                             "'prune' evicts least-recently-used "
                             "entries beyond --max-entries")
    cachep.add_argument("--cache-dir", required=True,
                        help="the cache directory to inspect or prune")
    cachep.add_argument("--max-entries", type=int, default=None,
                        help="entry bound for 'prune' (required there)")
    cachep.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable JSON instead of the "
                             "table (footprint + lifetime counters)")

    sub.add_parser("area", help="Table I area model")

    repro = sub.add_parser("reproduce",
                           help="every table and figure of the paper")
    repro.add_argument("--full", action="store_true",
                       help="paper scale (256 cores; slow)")
    repro.add_argument("--only", choices=list(paper.EXPERIMENTS),
                       default=None,
                       help="run only this experiment of the manifest")
    _add_jobs(repro)
    _add_obs(repro)

    obsp = sub.add_parser(
        "obs", help="platform-observability artifacts (trace summaries)")
    obsp.add_argument("action", choices=("summary",),
                      help="'summary' renders utilization, cache and "
                           "throughput figures from an artifact")
    obsp.add_argument("file",
                      help="an --obs-trace Chrome trace JSON, a "
                           "campaign journal.json (wall_ms "
                           "attribution), or an events.jsonl control-"
                           "plane log")

    statusp = sub.add_parser(
        "status", help="live campaign status — progress, ETA, worker "
                       "liveness — reconstructed purely from the "
                       "on-disk control plane (events.jsonl + "
                       "journal.json)")
    statusp.add_argument("path",
                         help="campaign directory, or its journal.json "
                              "/ events.jsonl")
    statusp.add_argument("--follow", action="store_true",
                         help="poll and re-render until the campaign "
                              "finishes or dies")
    statusp.add_argument("--interval", type=float, default=1.0,
                         help="seconds between --follow polls "
                              "(default 1)")
    statusp.add_argument("--timeout", type=float, default=None,
                         help="stop --follow after this many seconds "
                              "even if the campaign is still running")
    statusp.add_argument("--stale-after", type=float,
                         default=DEFAULT_STALE_AFTER,
                         help="seconds without a record before a live "
                              "worker is reported stale (default "
                              f"{DEFAULT_STALE_AFTER:g})")
    statusp.add_argument("--json", action="store_true", dest="as_json",
                         help="one machine-readable JSON snapshot "
                              "instead of the rendering")
    statusp.add_argument("--width", type=int, default=40,
                         help="character width of the progress bar")
    return parser


# -- scenario commands ---------------------------------------------------------


def _build_spec(args):
    """Layer defaults <- smoke <- flags <- --set into one spec."""
    from .scenarios import get_workload
    workload = get_workload(args.scenario)
    spec = default_spec(args.scenario)
    if getattr(args, "smoke", False):
        spec = apply_settings(spec, dict(workload.smoke))
    flags = {}
    if getattr(args, "cores", None) is not None:
        flags["cores"] = args.cores
    if getattr(args, "variant", None) is not None:
        flags["variant"] = args.variant
    if getattr(args, "seed", None) is not None:
        flags["seed"] = args.seed
    if flags:
        spec = apply_settings(spec, flags)
    spec = apply_settings(spec, _parse_settings(args.settings))
    spec.validate()
    return spec


def cmd_run(args) -> str:
    spec = _build_spec(args)
    jobs, cache = _runner_options(args)
    result = run_scenario(spec, jobs=jobs, cache=cache)
    rows = [("scenario", spec.workload),
            ("spec", spec.describe()),
            ("spec hash", spec.stable_hash()[:16])]
    rows.extend(sorted(result.scalars().items()))
    out = render_table(["field", "value"], rows,
                       title=f"scenario: {spec.workload}")
    if args.show_spec:
        out += "\n\nspec JSON:\n" + spec.to_json()
    return out


def cmd_list(args) -> str:
    from .telemetry import list_probes
    if args.variants:
        from .memory.variants import VariantSpec, list_variants
        from .power.area import TILE_CORES, variant_overhead_kge
        entries = list_variants()
        if args.names:
            # One *runnable* string per line: variants whose schema
            # requires an argument (lrscwait) get their example value,
            # so `for v in $(repro list --variants --names)` can feed
            # `repro run --set variant=$v` directly (the CI smoke loop).
            lines = []
            for name, plugin in entries:
                required = {key: schema.listing_value()
                            for key, schema in plugin.params.items()
                            if schema.required}
                lines.append(plugin.string(plugin.fill_defaults(required))
                             if required else name)
            return "\n".join(lines)
        reference_cores = 256                # the paper's full scale
        rows = []
        for name, plugin in entries:
            params = ", ".join(
                f"{key}={schema.listing_value()}"
                for key, schema in sorted(plugin.params.items()))
            variant = VariantSpec(name, params=plugin.listing_params())
            per_core = (variant_overhead_kge(variant, reference_cores)
                        / TILE_CORES)
            rows.append((name, plugin.description, params or "(none)",
                         plugin.native_method, f"{per_core:.2f}"))
        return render_table(
            ["variant", "description", "params (defaults)", "native",
             f"kGE/core @{reference_cores}"],
            rows,
            title=f"{len(rows)} registered atomic-memory variants "
                  f"(use: repro run <scenario> --variant "
                  f"<name[:params]>)")
    if args.probes:
        rows = [(name, cls.description) for name, cls in list_probes()]
        return render_table(["probe", "description"], rows,
                            title=f"{len(rows)} registered telemetry probes "
                                  f"(attach: repro trace <scenario> "
                                  f"--probe <name>)")
    if args.samplers:
        from .dse import list_samplers
        rows = [(name, cls.description) for name, cls in list_samplers()]
        return render_table(["sampler", "description"], rows,
                            title=f"{len(rows)} registered search samplers "
                                  f"(use: repro explore <scenario> "
                                  f"--sampler <name>)")
    entries = list_workloads()
    if args.names:
        return "\n".join(name for name, _workload in entries)
    if args.long:
        blocks = []
        for name, workload in entries:
            lines = [f"{name} — {workload.description}"]
            lines.append("  parameters (override with --set key=value):")
            if workload.params:
                for key, value in sorted(workload.params.items()):
                    lines.append(f"    {key} = {value!r}")
            else:
                lines.append("    (none)")
            if workload.spec_defaults:
                defaults = ", ".join(
                    f"{key}={value}" for key, value
                    in sorted(workload.spec_defaults.items()))
                lines.append(f"  spec defaults: {defaults}")
            if workload.smoke:
                smoke = ", ".join(f"{key}={value}" for key, value
                                  in sorted(workload.smoke.items()))
                lines.append(f"  smoke overrides: {smoke}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)
    rows = []
    for name, workload in entries:
        params = ", ".join(f"{key}={value}" for key, value
                           in sorted(workload.params.items()))
        rows.append((name, workload.description, params or "(none)"))
    return render_table(["scenario", "description",
                         "tunable params (defaults)"],
                        rows,
                        title=f"{len(rows)} registered scenarios "
                              f"(run one: repro run <scenario> "
                              f"[--set param=value]; details: "
                              f"repro list --long)")


def cmd_sweep(args) -> str:
    from .engine.errors import ConfigError
    if not args.out and args.format != "json":
        raise ConfigError(f"--format {args.format} needs --out DIR")
    axes = _parse_axes(args.axes)
    base = _build_spec(args)
    jobs, cache = _runner_options(args)
    outcomes = sweep_scenarios(base, axes, jobs=jobs, cache=cache)
    axis_keys = list(axes)
    metric_keys = sorted({key for _combo, result in outcomes
                          for key in result.metrics})
    headers = axis_keys + ["cycles", "throughput", "messages"] + metric_keys
    rows = []
    for combo, result in outcomes:
        row = [combo[key] for key in axis_keys]
        row.extend([result.cycles, result.throughput, result.messages])
        row.extend(result.metrics.get(key, "") for key in metric_keys)
        rows.append(row)
    title = (f"sweep: {base.workload} over "
             + " x ".join(f"{key}[{len(axes[key])}]" for key in axis_keys))
    out = render_table(headers, rows, title=title)
    if args.out:
        import os

        from .eval.export import (
            sweep_table,
            sweep_to_dict,
            write_csv,
            write_json,
        )
        if args.format == "json":
            path = write_json(os.path.join(args.out, "sweep.json"),
                              sweep_to_dict(base, axes, outcomes))
        else:
            csv_headers, csv_rows = sweep_table(axes, outcomes)
            path = write_csv(os.path.join(args.out, "sweep.csv"),
                             csv_headers, csv_rows)
        out += f"\n\nexported:\n  {path}"
    return out


def _make_probes(args) -> list:
    """Instantiate the requested (or all registered) telemetry probes."""
    import inspect

    from .telemetry import create_probe, get_probe, list_probes
    names = args.probes or [name for name, _cls in list_probes()]
    probes = []
    for name in names:
        options = {}
        if args.window is not None:
            accepts = inspect.signature(get_probe(name).__init__).parameters
            if "window" in accepts:
                options["window"] = args.window
        probes.append(create_probe(name, **options))
    return probes


def cmd_trace(args) -> str:
    from .engine.errors import ConfigError
    from .telemetry.vcd import write_vcd
    from .scenarios.run import run_scenario as run_probed
    spec = _build_spec(args)
    probes = _make_probes(args)
    # Export-option problems must surface *before* the (possibly long)
    # simulation runs, not after.
    if not args.out and args.format != "json":
        raise ConfigError(f"--format {args.format} needs --out DIR")
    if args.format == "vcd" and not any(p.name == "core_timeline"
                                        for p in probes):
        raise ConfigError("--format vcd needs the core_timeline probe "
                          "(add --probe core_timeline)")
    result = run_probed(spec, probes=probes)
    report = result.telemetry
    parts = [report.render(width=args.width)]
    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        if args.format == "json":
            written = [report.save_json(
                os.path.join(args.out, "telemetry.json"))]
        elif args.format == "csv":
            written = sorted(report.to_csv(args.out).values())
        else:  # vcd (core_timeline presence checked pre-run)
            section = report.probes["core_timeline"]
            core_states = {core["core"]: [tuple(span)
                                          for span in core["spans"]]
                           for core in section["cores"]}
            path = os.path.join(args.out, "trace.vcd")
            write_vcd(None, spec.system_config(), path,
                      core_states=core_states)
            written = [path]
        parts.append("exported:\n" + "\n".join(f"  {p}" for p in written))
    else:
        # No --out: the JSON report goes to stdout after the rendering,
        # so `repro trace <scenario>` alone already yields machine-
        # readable telemetry.
        parts.append("JSON report:\n" + report.to_json(indent=2))
    return "\n\n".join(parts)


# -- design-space exploration --------------------------------------------------


def cmd_explore(args) -> str:
    import os

    from .dse import (
        Campaign,
        SearchSpace,
        journal_path,
        load_journal,
        parse_objectives,
        render_journal,
    )
    from .engine.errors import ConfigError
    if args.resume and args.out and \
            os.path.realpath(args.resume) != os.path.realpath(args.out):
        raise ConfigError(
            "--resume DIR and --out DIR must agree (resume continues "
            "the campaign in place)")
    directory = args.out or args.resume
    base = _build_spec(args)
    space = SearchSpace.from_axes(_parse_axes(args.axes),
                                  tuple(args.constraints))
    objectives = parse_objectives(args.objectives or ["min:cycles"])
    jobs, cache = _runner_options(args)
    journal_file = journal_path(directory) if directory else None
    if args.out and not args.resume and journal_file \
            and os.path.exists(journal_file):
        raise ConfigError(
            f"{journal_file} already holds a campaign journal; pass "
            f"--resume {args.out} to continue it, or choose a fresh "
            f"--out directory (paid evaluations are never overwritten "
            f"silently)")
    resume_doc = None
    if args.resume:
        resume_file = journal_path(args.resume)
        if not os.path.exists(resume_file):
            raise ConfigError(
                f"--resume {args.resume!r}: no {resume_file} to resume "
                f"(start the campaign with --out first)")
        resume_doc = load_journal(resume_file)
    campaign = Campaign(
        base=base, space=space, sampler=args.sampler,
        objectives=objectives, budget=args.budget, seed=base.seed,
        jobs=jobs, cache=cache, journal_file=journal_file,
        resume=resume_doc)
    events_file = None
    if args.events:
        if not directory:
            raise ConfigError(
                "--events needs --out DIR (or --resume DIR): the event "
                "log lives next to the journal")
        from .obs.eventlog import events_path
        events_file = events_path(directory)
        OBS.open_events(events_file)
    try:
        result = campaign.run()
    finally:
        if events_file is not None:
            OBS.close_events()
    parts = [render_journal(result.journal, width=args.width,
                            top=args.top)]
    if journal_file:
        parts.append(f"journal: {journal_file}")
    if events_file is not None:
        parts.append(f"events: {events_file} (inspect with "
                     f"'repro status {directory}')")
    if result.status == "budget":
        if directory:
            parts.append(f"budget exhausted after {result.paid} paid "
                         f"evaluations; continue with "
                         f"'repro explore ... --resume {directory}' "
                         f"and a larger --budget")
        else:
            parts.append(f"budget exhausted after {result.paid} paid "
                         f"evaluations; no journal was written — "
                         f"re-run with --out DIR (and a larger "
                         f"--budget) to make the campaign resumable")
    return "\n\n".join(parts)


def cmd_frontier(args) -> str:
    import os

    from .dse import journal_path, load_journal, render_journal
    path = args.journal
    if os.path.isdir(path):
        path = journal_path(path)
    journal = load_journal(path)
    return render_journal(journal, width=args.width, top=args.top)


def cmd_cache(args) -> str:
    import os

    from .engine.errors import ConfigError
    if not os.path.isdir(args.cache_dir):
        raise ConfigError(
            f"no cache directory at {args.cache_dir!r}")
    cache = ResultCache(args.cache_dir)
    removed = None
    if args.action == "prune":
        if args.max_entries is None:
            raise ConfigError("cache prune needs --max-entries N")
        if args.max_entries < 0:
            raise ConfigError(
                f"--max-entries must be >= 0, got {args.max_entries}")
        removed = cache.prune(args.max_entries)
        # Persist the eviction count so future 'stats' runs see it.
        cache.flush_counters()
    stats = cache.stats()
    lifetime = cache.lifetime_stats()
    looked = lifetime["hits"] + lifetime["misses"]
    if args.as_json:
        import json as json_module
        document = {
            "path": stats["path"],
            "entries": stats["entries"],
            "bytes": stats["bytes"],
            "evicted": removed,
            "lifetime": lifetime,
            "lifetime_hit_rate": (lifetime["hits"] / looked
                                  if looked else None),
        }
        return json_module.dumps(document, indent=2, sort_keys=True)
    rows = [("path", stats["path"]),
            ("entries", stats["entries"]),
            ("bytes", stats["bytes"])]
    if removed is not None:
        rows.append(("evicted (LRU)", removed))
    rows.extend([
        ("lifetime hits", lifetime["hits"]),
        ("lifetime misses", lifetime["misses"]),
        ("lifetime stores", lifetime["stores"]),
        ("lifetime evictions", lifetime["evictions"]),
        ("lifetime hit rate",
         f"{100.0 * lifetime['hits'] / looked:.1f}%" if looked
         else "n/a"),
    ])
    return render_table(["field", "value"], rows,
                        title=f"result cache {args.action}")


def cmd_obs(args) -> str:
    from .obs.summary import render_summary
    return render_summary(args.file)


def cmd_status(args) -> str:
    from .engine.errors import ConfigError
    from .obs.status import collect_status, follow, render_status
    if args.as_json:
        if args.follow:
            raise ConfigError(
                "--json emits one snapshot; drop --follow (poll "
                "'repro status --json' yourself instead)")
        import json as json_module
        status = collect_status(args.path, stale_after=args.stale_after)
        return json_module.dumps(status, indent=2, sort_keys=True)
    if args.follow:
        status = follow(args.path, interval=args.interval,
                        timeout=args.timeout,
                        stale_after=args.stale_after, width=args.width)
        return f"follow: stopped ({status['state']})"
    status = collect_status(args.path, stale_after=args.stale_after)
    return render_status(status, width=args.width)


# -- paper tables/figures ------------------------------------------------------


def cmd_area(_args) -> str:
    from .eval.table1 import variant_area_table
    return (run_table1().render() + "\n\n" + scaling_table()
            + "\n\n" + variant_area_table())


def cmd_reproduce(args) -> str:
    jobs, cache = _runner_options(args)
    scale = paper.FULL if args.full else paper.CI
    names = [args.only] if args.only else paper.EXPERIMENTS
    return "\n\n".join(paper.EXPERIMENTS[name](scale, jobs, cache).render()
                       for name in names)


COMMANDS = {
    "run": cmd_run,
    "list": cmd_list,
    "sweep": cmd_sweep,
    "explore": cmd_explore,
    "frontier": cmd_frontier,
    "cache": cmd_cache,
    "obs": cmd_obs,
    "status": cmd_status,
    "trace": cmd_trace,
    "area": cmd_area,
    "reproduce": cmd_reproduce,
}


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    trace_file = getattr(args, "obs_trace", None)
    profile_file = getattr(args, "profile", None)
    observing = bool(trace_file or profile_file)
    try:
        if profile_file and getattr(args, "jobs", 1) != 1:
            from .engine.errors import ConfigError
            raise ConfigError(
                "--profile needs --jobs 1 (cProfile cannot follow "
                "worker processes)")
        if observing:
            OBS.enable(profile=bool(profile_file))
        try:
            out = COMMANDS[args.command](args)
            notes = []
            if trace_file:
                notes.append(f"obs trace: "
                             f"{OBS.export_chrome_trace(trace_file)}")
            if profile_file:
                phase = OBS.dump_profile(profile_file)
                notes.append(f"profile ({phase or 'no phase ran'}): "
                             f"{profile_file}"
                             if phase else "profile: no phase ran, "
                                           "nothing dumped")
            if notes:
                out += "\n\n" + "\n".join(notes)
            print(out)
        finally:
            if observing:
                OBS.disable()
    except ReproError as exc:
        print(f"repro: {exc}")
        return 2
    return 0
