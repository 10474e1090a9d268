"""Command-line interface: regenerate the paper's experiments.

Installed as the ``lcmm`` console script::

    lcmm table1              # UMM vs LCMM across the benchmark matrix
    lcmm table2              # on-chip memory utilisation + POL
    lcmm table3              # comparison with published designs
    lcmm fig2a               # Inception-v4 roofline characterisation
    lcmm fig2b --stride 16   # per-block allocation design space
    lcmm fig8                # GoogLeNet per-block breakdown
    lcmm run resnet152 --precision int16   # one design pair in detail
    lcmm run googlenet --explain           # executed pipeline + diagnostics
    lcmm passes              # registered compilation passes
    lcmm sweep googlenet     # speedup vs on-chip memory budget
    lcmm simulate googlenet  # event-driven timeline (Gantt)
    lcmm export resnet50 -o alloc.json     # allocation report for codegen
    lcmm doublebuffer        # legacy double-buffer baseline on linear nets
    lcmm batch resnet152 --images 16       # steady-state throughput
    lcmm pipeline resnet152 --devices 4 --link-gbps 12.5   # multi-die chain
    lcmm run googlenet --trace trace.json  # Chrome trace of the compilation
    lcmm stats googlenet     # span/metric profile of one compilation
    lcmm run googlenet --cache .lcmm-cache # content-addressed result cache
    lcmm batch-compile --cache .lcmm-cache --workers 4   # precompile the zoo
    lcmm serve --cache .lcmm-cache --workers 4           # compilation daemon

Exit codes follow the error taxonomy (see the README table): 0 success,
1 internal failure, 2 user/configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.metrics import average_speedup
from repro.analysis.reference import (
    BENCHMARKS,
    model_reference_design,
    reference_design,
)
from repro.analysis.report import (
    fig8_table,
    format_table,
    table1_table,
    table2_table,
    table3_table,
)
from repro.errors import ConfigError, ReproError, exit_code
from repro.hw.precision import precision_by_name
from repro.ir.graph import ComputationGraph
from repro.models.zoo import get_model, list_models


def _load_model(name: str) -> ComputationGraph:
    """Build and structurally validate a model at the CLI boundary.

    Unknown names and malformed graphs surface as :class:`ReproError`
    subclasses, which :func:`main` turns into a one-line message and a
    non-zero exit instead of a traceback.
    """
    graph = get_model(name)
    graph.validate()
    return graph


def _cmd_table1(args: argparse.Namespace) -> None:
    from repro.analysis.experiments import run_table1

    rows = run_table1()
    print(format_table(*table1_table(rows)))
    speedups = [r.speedup for r in rows if r.design == "LCMM"]
    print(f"\nAverage speedup: {average_speedup(speedups):.2f}x (paper: 1.36x)")


def _cmd_table2(args: argparse.Namespace) -> None:
    from repro.analysis.experiments import run_table2

    print(format_table(*table2_table(run_table2())))


def _cmd_table3(args: argparse.Namespace) -> None:
    from repro.analysis.experiments import run_table3

    print(format_table(*table3_table(run_table3())))


def _cmd_fig2a(args: argparse.Namespace) -> None:
    from repro.analysis.experiments import run_fig2a

    roofline = run_fig2a(precision_by_name(args.precision))
    bound, total = roofline.memory_bound_count(convs_only=True)
    print(f"Ridge point: {roofline.ridge_point():.1f} ops/byte")
    print(f"Memory-bound conv layers: {bound}/{total} ({bound / total:.0%})")
    if args.points:
        print(
            format_table(
                ("Layer", "OI(ops/B)", "Attainable(Tops)", "BW need(GB/s)", "Bound"),
                [
                    (
                        p.node,
                        f"{p.operation_intensity:.1f}",
                        f"{p.attainable_ops / 1e12:.3f}",
                        f"{p.bandwidth_requirement / 1e9:.1f}",
                        "memory" if p.memory_bound else "compute",
                    )
                    for p in roofline.points(convs_only=True)
                ],
            )
        )


def _cmd_fig2b(args: argparse.Namespace) -> None:
    from repro.analysis.design_space import enumerate_design_space

    graph = get_model("inception_v4")
    accel = reference_design("inception_v4", precision_by_name(args.precision), "lcmm")
    points = enumerate_design_space(graph, accel, stride=args.stride)
    best = max(points, key=lambda p: p.tops)
    print(f"Evaluated {len(points)} allocation points")
    print(f"Best: {best.tops:.3f} Tops at {best.onchip_bytes / 2**20:.1f} MB on-chip")
    print(
        "Pareto sample (memory MB -> best Tops at or under it):"
    )
    points.sort(key=lambda p: p.onchip_bytes)
    best_so_far = 0.0
    shown = 0
    for p in points:
        if p.tops > best_so_far:
            best_so_far = p.tops
            print(f"  {p.onchip_bytes / 2**20:8.1f} MB  {p.tops:.3f} Tops")
            shown += 1
            if shown >= 20:
                break


def _cmd_fig8(args: argparse.Namespace) -> None:
    from repro.analysis.experiments import run_fig8

    print(format_table(*fig8_table(run_fig8())))


def _traced(trace_path, body) -> None:
    """Run ``body`` under tracing when ``--trace`` was given.

    Dumps the run's spans plus a metrics snapshot as a Chrome trace JSON
    (openable in ``chrome://tracing`` or https://ui.perfetto.dev).
    """
    if not trace_path:
        body()
        return
    from repro import obs

    obs.reset_registry()
    with obs.tracing("main") as tracer:
        body()
    count = obs.write_chrome_trace(
        trace_path, tracer, metrics=obs.registry().snapshot()
    )
    print(f"\nWrote Chrome trace ({count} spans) to {trace_path}")


def _add_trace(parser: argparse.ArgumentParser, help: str) -> None:
    """Give a command ``--trace PATH``: :func:`main` runs it under :func:`_traced`."""
    parser.add_argument("--trace", metavar="PATH", default=None, help=help)


def _require_images(images: int) -> None:
    """Reject a batch size below one before anything compiles."""
    if images < 1:
        raise ConfigError(f"--images must be at least 1, got {images}")


def _open_cache(path):
    """Build a :class:`CompilationCache` for ``--cache PATH`` (None if unset)."""
    if not path:
        return None
    from repro.cache import CompilationCache

    return CompilationCache(path)


def _cmd_run(args: argparse.Namespace) -> None:
    from repro.analysis.experiments import run_comparison

    cache = _open_cache(args.cache)
    options = None
    if args.fuse or args.transfer_schedule:
        from repro.lcmm.options import LCMMOptions

        options = LCMMOptions(
            fuse_layers=args.fuse, transfer_schedule=args.transfer_schedule
        )
    cmp = run_comparison(
        args.model,
        precision_by_name(args.precision),
        options=options,
        strict=args.strict,
        fallback=not args.no_fallback,
        cache=cache,
    )
    print(f"Model:      {cmp.model_name} ({args.precision})")
    print(f"UMM:        {cmp.umm.latency * 1e3:.3f} ms  ({cmp.umm.tops:.3f} Tops)")
    print(f"LCMM:       {cmp.lcmm.latency * 1e3:.3f} ms  ({cmp.lcmm.tops:.3f} Tops)")
    print(f"Speedup:    {cmp.speedup:.2f}x")
    print(f"On-chip tensors: {len(cmp.lcmm.onchip_tensors)}")
    print(f"Physical buffers: {len(cmp.lcmm.physical_buffers)}")
    print(f"SRAM: {cmp.lcmm.sram_utilization:.0%}  "
          f"(URAM {cmp.lcmm.sram_usage.uram_utilization:.0%}, "
          f"BRAM {cmp.lcmm.sram_usage.bram_utilization:.0%})")
    print(f"POL:  {cmp.lcmm.percentage_onchip_layers(cmp.lcmm_model):.0%}")
    if cmp.lcmm.fused_edges:
        shortcuts = sum(1 for e in cmp.lcmm.fused_edges if e.shortcut)
        saved = sum(e.bytes_saved for e in cmp.lcmm.fused_edges)
        print(
            f"Fused edges: {len(cmp.lcmm.fused_edges)} "
            f"({shortcuts} shortcut-aware, {saved / 1e6:.2f} MB DDR elided)"
        )
    if cmp.lcmm.transfer_timeline is not None:
        tl = cmp.lcmm.transfer_timeline
        print(
            f"Transfer schedule: {len(tl.records)} DMA streams, "
            f"{tl.improvement * 1e3:.3f} ms hidden by prefetch windows"
        )
    if cache is not None:
        print(f"Cache: {cache.stats.hits} hits, {cache.stats.misses} misses "
              f"({args.cache})")
    if args.explain:
        result = cmp.lcmm
        print(f"\nPipeline: {result.pipeline_description}")
        for name, seconds in result.pass_timings:
            print(f"  {name:18s} {seconds * 1e3:9.3f} ms")
        if result.degradation_level:
            path = " -> ".join(result.degradation_path) or "-"
            print(
                f"Degradation: level {result.degradation_level} "
                f"(failed attempts: {path})"
            )
        else:
            print("Degradation: none (requested pipeline succeeded)")
        print(_bound_line(result, cmp.lcmm_model))
        recovery = [
            d for d in result.diagnostics
            if d.category in ("pass-failed", "degraded")
        ]
        if recovery:
            print(f"Recovery events ({len(recovery)}):")
            for diag in recovery:
                print(f"  {diag}")
        if result.diagnostics:
            print(f"Diagnostics ({len(result.diagnostics)}):")
            for diag in result.diagnostics:
                print(f"  {diag}")
        else:
            print("Diagnostics: none")
    if args.profile_passes:
        stats = cmp.lcmm.engine_stats
        if stats is None:
            print("\n(no engine stats: the run fell back to the UMM-only floor)")
            return
        print("\nEvaluation engine profile:")
        for name, seconds in stats.pass_seconds.items():
            print(f"  {name:16s} {seconds * 1e3:9.3f} ms")
        print(f"  node evaluations: {stats.node_evaluations}")
        print(f"  full rescores:    {stats.full_rescores}")
        print(f"  applies/undos:    {stats.applies}/{stats.undos}")
        hits, misses = stats.gain_cache_hits, stats.gain_cache_misses
        total = hits + misses
        rate = hits / total if total else 0.0
        print(f"  gain cache:       {hits}/{total} hits ({rate:.0%})")


def _bound_line(result, model) -> str:
    """The ``--explain`` line: the result's exact lower bound and its gap.

    The bound is the capacity form of ``compute_bound_latency`` on the
    model the result was scored on (the fused one when fusion was
    accepted).  It covers whole-tensor Eq. 1 scores only.
    """
    if result.fractions:
        return "Lower bound: n/a (fractional fill pins partial tensors)"
    if result.transfer_timeline is not None:
        return "Lower bound: n/a (the transfer schedule overlaps loads across nodes)"
    if result.fused_edges:
        from repro.lcmm.fusion import apply_fusion

        model = apply_fusion(model, result.fused_edges)
    bound = model.compute_bound_latency(result.dnnk_result.capacity_bytes)
    gap = f"{result.latency / bound - 1:.4%}" if bound > 0 else "n/a"
    return f"Lower bound: {bound * 1e3:.3f} ms (latency / bound - 1 = {gap})"


def _cmd_passes(args: argparse.Namespace) -> None:
    from repro.lcmm.options import LCMMOptions
    from repro.lcmm.passes import default_pipeline, registered_passes

    print("Registered compilation passes:")
    for name, cls in sorted(registered_passes().items()):
        instance = cls()
        requires = ", ".join(instance.requires) or "-"
        produces = ", ".join(instance.produces) or "-"
        print(f"  {name:18s} {instance.describe()}")
        print(f"  {'':18s} requires: {requires}  produces: {produces}")
    default = " -> ".join(p.name for p in default_pipeline(LCMMOptions()))
    print(f"\nDefault pipeline: {default}")


def _cmd_sweep(args: argparse.Namespace) -> None:
    from repro.lcmm.framework import LCMMOptions, run_lcmm
    from repro.perf.latency import LatencyModel

    graph = get_model(args.model)
    accel = reference_design(args.model, precision_by_name(args.precision), "lcmm")
    model = LatencyModel(graph, accel)
    umm_latency = model.umm_latency()
    tile = accel.tile_buffer_bytes()
    print(f"Speedup vs on-chip memory budget ({args.model}, {args.precision}):")
    total = accel.device.sram_bytes
    for fraction in (0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0):
        budget = tile + int((total - tile) * fraction)
        result = run_lcmm(
            graph, accel, options=LCMMOptions(sram_budget=budget), model=model
        )
        print(
            f"  {budget / 2**20:6.1f} MB  speedup {umm_latency / result.latency:5.2f}x  "
            f"({len(result.onchip_tensors)} tensors on chip)"
        )


def _cmd_simulate(args: argparse.Namespace) -> None:
    from repro.analysis.plots import simulation_gantt
    from repro.lcmm.framework import run_lcmm
    from repro.perf.latency import LatencyModel
    from repro.sim import simulate

    graph = get_model(args.model)
    accel = reference_design(args.model, precision_by_name(args.precision), "lcmm")
    model = LatencyModel(graph, accel)
    lcmm = run_lcmm(graph, accel, model=model)
    sim = simulate(model, lcmm.onchip_tensors, prefetch=lcmm.prefetch_result)
    print(f"Simulated {graph.name}: makespan {sim.makespan * 1e3:.3f} ms "
          f"(analytical {lcmm.latency * 1e3:.3f} ms, "
          f"stalls {sim.stall_time * 1e6:.1f} us)")
    for kind in ("if", "wt", "of"):
        print(f"  {kind} channel busy: {sim.channel_utilization(kind):.0%}")
    print()
    print(simulation_gantt(sim, max_rows=args.rows))


def _cmd_export(args: argparse.Namespace) -> None:
    from repro.io import save_allocation_report
    from repro.lcmm.framework import run_lcmm
    from repro.perf.latency import LatencyModel

    graph = _load_model(args.model)
    accel = model_reference_design(
        args.model, precision_by_name(args.precision), "lcmm"
    )
    model = LatencyModel(graph, accel)
    lcmm = run_lcmm(graph, accel, model=model)
    save_allocation_report(lcmm, args.output)
    print(f"Wrote allocation report for {graph.name} to {args.output}")
    print(f"  {len(lcmm.physical_buffers)} buffers, "
          f"{len(lcmm.onchip_tensors)} tensors, "
          f"{len(lcmm.residuals)} unhidden prefetches")


def _cmd_doublebuffer(args: argparse.Namespace) -> None:
    from repro.lcmm.double_buffer import LinearityError, run_double_buffer
    from repro.lcmm.umm import run_umm
    from repro.perf.latency import LatencyModel

    accel = reference_design("resnet152", precision_by_name(args.precision), "lcmm")
    for name in ("alexnet", "vgg16", "resnet152", "googlenet"):
        graph = get_model(name)
        model = LatencyModel(graph, accel)
        umm = run_umm(graph, accel, model)
        try:
            db = run_double_buffer(graph, accel, model)
            print(f"{name:12s} linear: double-buffer {db.latency * 1e3:8.3f} ms "
                  f"({umm.latency / db.latency:.2f}x over UMM, "
                  f"2 x {db.buffer_bytes / 2**20:.2f} MB buffers)")
        except LinearityError:
            print(f"{name:12s} NON-LINEAR: traditional double buffering "
                  "does not apply (the paper's motivation for LCMM)")


def _cmd_batch(args: argparse.Namespace) -> None:
    _require_images(args.images)
    from repro.lcmm.framework import run_lcmm
    from repro.perf.batching import batched_latency, umm_batched_latency
    from repro.perf.latency import LatencyModel

    graph = get_model(args.model)
    accel = reference_design(args.model, precision_by_name(args.precision), "lcmm")
    model = LatencyModel(graph, accel)
    lcmm = run_lcmm(graph, accel, model=model)
    batch = batched_latency(model, lcmm, args.images)
    umm = umm_batched_latency(model, args.images)
    print(f"Batch of {args.images} images on {graph.name} ({args.precision}):")
    print(f"  LCMM first image:  {batch.first_image_latency * 1e3:8.3f} ms")
    print(f"  LCMM steady state: {batch.steady_image_latency * 1e3:8.3f} ms "
          f"({batch.images_per_second:.1f} img/s)")
    print(f"  LCMM amortized:    {batch.amortized_latency * 1e3:8.3f} ms/img")
    print(f"  UMM  per image:    {umm.steady_image_latency * 1e3:8.3f} ms")
    print(f"  Steady-state speedup: "
          f"{umm.steady_image_latency / batch.steady_image_latency:.2f}x")


def _cmd_pipeline(args: argparse.Namespace) -> None:
    _require_images(args.images)
    from repro.perf.partition import (
        InterDieLink,
        design_partition,
        partition_batched_latency,
    )

    graph = _load_model(args.model)
    accel = model_reference_design(args.model, precision_by_name(args.precision), "lcmm")
    try:
        link = None if args.no_link else InterDieLink(
            gbps=args.link_gbps, efficiency=args.link_efficiency
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = design_partition(graph, accel, args.devices, link=link)
    print(
        f"Multi-die pipeline on {graph.name} ({args.precision}), "
        f"{result.num_devices} of {result.devices_requested} requested dies"
    )
    if result.link is not None:
        print(
            f"Inter-die link: {result.link.gbps:g} GB/s at "
            f"{result.link.efficiency:.0%} efficiency"
        )
    if result.fell_back:
        print(f"Fell back to single die: {result.fell_back}")
    print(
        format_table(
            ("Die", "Nodes", "SRAM", "Compute(ms)", "Recv(MB)", "Send(MB)",
             "Link(ms)", "Stage(ms)", "Bound"),
            [
                (
                    s.index,
                    len(s.nodes),
                    f"{s.lcmm.sram_utilization:.0%}",
                    f"{s.steady_compute_latency * 1e3:.3f}",
                    f"{s.recv_bytes / 2**20:.2f}",
                    f"{s.send_bytes / 2**20:.2f}",
                    f"{max(s.recv_latency, s.send_latency) * 1e3:.3f}",
                    f"{s.steady_latency * 1e3:.3f}",
                    "link" if s.link_bound else "compute",
                )
                for s in result.stages
            ],
        )
    )
    batch = partition_batched_latency(result, args.images)
    print(f"Image latency (pipeline fill): {result.image_latency * 1e3:.3f} ms")
    print(f"Steady-state period:           {result.period * 1e3:.3f} ms "
          f"({result.steady_state_throughput:.1f} img/s)")
    if result.num_devices > 1:
        print(f"Speedup vs single die:         {result.speedup_vs_single:.2f}x")
    print(f"Batch of {batch.batch}: {batch.total_latency * 1e3:.3f} ms total, "
          f"{batch.amortized_latency * 1e3:.3f} ms/img amortized")


def _cmd_batch_compile(args: argparse.Namespace) -> None:
    from repro.cache import batch_compile

    configs = args.configs.split(",") if args.configs else None
    report = batch_compile(
        models=args.models or None,
        configs=configs,
        precision=args.precision,
        cache_dir=args.cache,
        workers=args.workers,
    )
    print(
        format_table(
            ("Model", "Config", "Latency(ms)", "Cache", "Seconds"),
            [
                (
                    o.model,
                    o.config,
                    f"{o.latency * 1e3:.3f}",
                    "hit" if o.cache_hit else "miss",
                    f"{o.seconds:.3f}",
                )
                for o in report.outcomes
            ],
        )
    )
    print(
        f"\n{len(report.outcomes)} jobs in {report.seconds:.2f}s "
        f"(workers={report.workers}): "
        f"{report.hits} cache hits, {report.misses} misses"
        + (", pool unavailable (ran serially)" if report.pool_unavailable else "")
    )
    if args.verify_golden:
        problems = report.verify_golden(args.verify_golden)
        if problems:
            for problem in problems:
                print(f"  golden mismatch: {problem}", file=sys.stderr)
            raise ReproError(
                f"{len(problems)} cached result(s) disagree with the golden "
                f"fingerprints in {args.verify_golden}"
            )
        print(f"All results match the golden fingerprints in {args.verify_golden}")
    if args.require_all_hits and not report.all_hits:
        raise ReproError(
            f"--require-all-hits: {report.misses} of {len(report.outcomes)} "
            "jobs missed the cache"
        )


def _cmd_dot(args: argparse.Namespace) -> None:
    from repro.analysis.dot import (
        computation_graph_dot,
        interference_graph_dot,
        prefetch_graph_dot,
    )
    from repro.lcmm.framework import run_lcmm
    from repro.perf.latency import LatencyModel

    graph = _load_model(args.model)
    accel = model_reference_design(args.model, precision_by_name(args.precision), "lcmm")
    model = LatencyModel(graph, accel)
    if args.view == "graph":
        bound = frozenset(model.memory_bound_nodes())
        output = computation_graph_dot(graph, highlight=bound)
    else:
        lcmm = run_lcmm(graph, accel, model=model)
        if args.view == "interference":
            output = interference_graph_dot(lcmm.feature_result.interference)
        else:
            output = prefetch_graph_dot(lcmm.prefetch_result)
    with open(args.output, "w") as handle:
        handle.write(output + "\n")
    print(f"Wrote {args.view} DOT for {graph.name} to {args.output}")


def _cmd_dse(args: argparse.Namespace) -> None:
    from repro.perf.dse import WorkerStats, candidate_tiles
    from repro.perf.space import SampledSpace, explore_space, large_space, small_space

    graph = _load_model(args.model)
    budget = int(args.budget * 2**20)
    stats = WorkerStats()
    if args.space:
        space = small_space() if args.space == "small" else large_space()
        swept = space if args.sample is None else space.sample(args.sample)
        prune = args.prune
    else:
        base = model_reference_design(
            args.model, precision_by_name(args.precision), "lcmm"
        )
        # One base, unpruned: every feasible tile is listed, tn duplicates too.
        swept = SampledSpace([(base, candidate_tiles())])
        prune = False
    result = explore_space(
        graph,
        swept,
        budget,
        workers=args.workers,
        prune=prune,
        stats=stats,
        cache=_open_cache(args.cache),
        pool_mode=args.pool,
    )
    if args.space:
        sample_note = f", {args.sample}-point sample" if args.sample else ""
        print(
            f"Design-space DSE on {graph.name} ({args.space} space{sample_note}), "
            f"{args.budget:.1f} MB tile-buffer budget:"
        )
        print(
            f"  {result.total_points} feasible points, "
            f"{result.scored_points} scored, {result.pruned_points} pruned "
            f"({result.pruned_dominated} tile-dominated, "
            f"{result.pruned_bounded} roofline-bounded, "
            f"{result.bases_pruned}/{result.bases_total} bases skipped whole)"
        )
        for point in result.points[: args.top]:
            print(
                f"  {point.accel.name:38s} {str(point.accel.tile):24s} "
                f"UMM {point.umm_latency * 1e3:8.3f} ms"
            )
    else:
        print(
            f"Tile DSE on {graph.name} ({args.precision}), "
            f"{args.budget:.1f} MB tile-buffer budget, "
            f"{result.total_points} feasible points, workers={args.workers}:"
        )
        for point in result.points[: args.top]:
            print(
                f"  {str(point.accel.tile):28s} "
                f"UMM {point.umm_latency * 1e3:8.3f} ms  "
                f"tile buffers {point.tile_buffer_bytes / 2**20:5.2f} MB"
            )
    if args.workers > 1:
        print(
            f"Pool ({args.pool}): {stats.chunks} chunks, "
            f"{stats.chunks_reused_pool} on an already-warm pool, "
            f"{stats.init_seconds:.2f}s spinning up workers"
        )
    if stats.recovered():
        print(
            "Worker recovery: "
            f"{stats.retries} retries, {stats.timeouts} timeouts, "
            f"{stats.serial_chunks} chunks re-scored serially"
            + (", pool broken" if stats.pool_broken else "")
            + (", pool unavailable" if stats.pool_unavailable else "")
        )


def _cmd_serve(args: argparse.Namespace) -> None:
    import asyncio

    from repro.serve import (
        CompileServer,
        CompileService,
        ServerConfig,
        ServiceConfig,
    )

    service_config = ServiceConfig(
        cache_dir=args.cache,
        workers=args.workers,
        inline=args.inline,
        precision=args.precision,
        default_deadline=args.deadline,
        retries=args.retries,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
    )
    server_config = ServerConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        drain_seconds=args.drain_seconds,
    )

    async def _serve() -> bool:
        service = CompileService(service_config)
        server = CompileServer(service, server_config)
        host, port = await server.start()
        mode = "inline threads" if args.inline else "process pool"
        print(
            f"lcmm serve listening on {host}:{port} "
            f"({args.workers} workers, {mode})",
            flush=True,
        )
        clean = await server.run()
        print(
            "lcmm serve drained cleanly"
            if clean
            else "lcmm serve drain timed out; in-flight work abandoned",
            flush=True,
        )
        return clean

    asyncio.run(_serve())


def _cmd_cotune(args: argparse.Namespace) -> None:
    from repro.lcmm.cotuning import cotune

    graph = get_model(args.model)
    base = reference_design(args.model, precision_by_name(args.precision), "lcmm")
    result = cotune(graph, base)
    print(f"Tile/allocation co-tuning on {graph.name} ({args.precision}):")
    for point in sorted(result.points, key=lambda p: p.lcmm_latency):
        marker = " <-- best" if point.tile == result.best_accel.tile else ""
        print(
            f"  {str(point.tile):28s} UMM {point.umm_latency * 1e3:8.3f} ms  "
            f"LCMM {point.lcmm_latency * 1e3:8.3f} ms{marker}"
        )


def _cmd_stats(args: argparse.Namespace) -> None:
    from repro import obs
    from repro.lcmm.framework import run_lcmm
    from repro.perf.latency import LatencyModel

    graph = _load_model(args.model)
    accel = model_reference_design(
        args.model, precision_by_name(args.precision), "lcmm"
    )
    model = LatencyModel(graph, accel)
    obs.reset_registry()
    with obs.tracing("main") as tracer:
        result = run_lcmm(graph, accel, model=model)
    print(f"LCMM on {graph.name} ({args.precision}): "
          f"{result.latency * 1e3:.3f} ms, "
          f"degradation level {result.degradation_level}\n")
    print(obs.stats_table(tracer.records, obs.registry().snapshot()))
    if args.dump_trace:
        count = obs.write_chrome_trace(
            args.dump_trace, tracer, metrics=obs.registry().snapshot()
        )
        print(f"\nWrote Chrome trace ({count} spans) to {args.dump_trace}")


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.analysis.report_generator import write_report

    target = write_report(args.output)
    print(f"Wrote live experiment report to {target}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="lcmm",
        description="Reproduce the DAC 2019 LCMM paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="UMM vs LCMM main results").set_defaults(func=_cmd_table1)
    sub.add_parser("table2", help="on-chip memory utilisation").set_defaults(func=_cmd_table2)
    sub.add_parser("table3", help="state-of-the-art comparison").set_defaults(func=_cmd_table3)

    p2a = sub.add_parser("fig2a", help="Inception-v4 roofline")
    p2a.add_argument("--precision", default="int8")
    p2a.add_argument("--points", action="store_true", help="print every layer")
    p2a.set_defaults(func=_cmd_fig2a)

    p2b = sub.add_parser("fig2b", help="per-block design space")
    p2b.add_argument("--precision", default="int8")
    p2b.add_argument("--stride", type=int, default=1, help="evaluate every Nth point")
    p2b.set_defaults(func=_cmd_fig2b)

    sub.add_parser("fig8", help="GoogLeNet per-block breakdown").set_defaults(func=_cmd_fig8)

    prun = sub.add_parser("run", help="one design pair in detail")
    prun.add_argument("model", choices=list_models())
    prun.add_argument("--precision", default="int8")
    prun.add_argument(
        "--profile-passes",
        action="store_true",
        help="print per-pass wall time and evaluation-engine counters",
    )
    prun.add_argument(
        "--explain",
        action="store_true",
        help="print the executed pipeline, per-pass timings and diagnostics",
    )
    prun.add_argument(
        "--fuse",
        action="store_true",
        help="enable the fused-layer tiling pass (fuse_layers)",
    )
    prun.add_argument(
        "--schedule-transfers",
        action="store_true",
        dest="transfer_schedule",
        help="enable the DMA transfer scheduling pass (transfer_schedule)",
    )
    prun.add_argument(
        "--strict",
        action="store_true",
        help="run invariant checks after every pass (fail fast on corruption)",
    )
    prun.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the degradation chain: a pipeline failure is fatal",
    )
    _add_trace(prun, "record a Chrome trace (chrome://tracing) of the run to PATH")
    prun.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="reuse/populate a content-addressed compilation cache under DIR",
    )
    prun.set_defaults(func=_cmd_run)

    sub.add_parser(
        "passes", help="list registered compilation passes"
    ).set_defaults(func=_cmd_passes)

    psweep = sub.add_parser("sweep", help="speedup vs on-chip memory budget")
    psweep.add_argument("model", choices=list(BENCHMARKS))
    psweep.add_argument("--precision", default="int16")
    _add_trace(psweep, "record a Chrome trace of the sweep to PATH")
    psweep.set_defaults(func=_cmd_sweep)

    psim = sub.add_parser("simulate", help="event-driven timeline (Gantt)")
    psim.add_argument("model", choices=list(BENCHMARKS))
    psim.add_argument("--precision", default="int8")
    psim.add_argument("--rows", type=int, default=30, help="Gantt rows to show")
    psim.set_defaults(func=_cmd_simulate)

    pexp = sub.add_parser("export", help="write a JSON allocation report")
    pexp.add_argument("model")
    pexp.add_argument("--precision", default="int16")
    pexp.add_argument("-o", "--output", default="allocation.json")
    pexp.set_defaults(func=_cmd_export)

    pdb = sub.add_parser(
        "doublebuffer", help="legacy double-buffer baseline on linear nets"
    )
    pdb.add_argument("--precision", default="int8")
    pdb.set_defaults(func=_cmd_doublebuffer)

    pbatch = sub.add_parser("batch", help="steady-state multi-image throughput")
    pbatch.add_argument("model", choices=list(BENCHMARKS))
    pbatch.add_argument("--precision", default="int8")
    pbatch.add_argument("--images", type=int, default=16)
    _add_trace(pbatch, "record a Chrome trace of the batch analysis to PATH")
    pbatch.set_defaults(func=_cmd_batch)

    ppipe = sub.add_parser(
        "pipeline", help="multi-die layer-pipelined partitioning"
    )
    ppipe.add_argument("model", choices=list_models())
    ppipe.add_argument("--precision", default="int8")
    ppipe.add_argument(
        "--devices", type=int, default=2, help="dies in the chain (1-8)"
    )
    ppipe.add_argument(
        "--link-gbps",
        type=float,
        default=12.5,
        help="per-direction inter-die link bandwidth, GB/s "
        "(12.5 = a 100 GbE chain)",
    )
    ppipe.add_argument(
        "--link-efficiency",
        type=float,
        default=1.0,
        help="achievable fraction of the raw link bandwidth (0, 1]",
    )
    ppipe.add_argument(
        "--no-link",
        action="store_true",
        help="disable the link model (degrades to the single-die design)",
    )
    ppipe.add_argument(
        "--images", type=int, default=16, help="batch size for the fill profile"
    )
    _add_trace(ppipe, "record a Chrome trace of the partitioning to PATH")
    ppipe.set_defaults(func=_cmd_pipeline)

    pbc = sub.add_parser(
        "batch-compile",
        help="compile a model/config matrix through the compilation cache",
    )
    pbc.add_argument(
        "models",
        nargs="*",
        help="models to compile (default: the full zoo)",
    )
    pbc.add_argument(
        "--configs",
        default=None,
        help="comma-separated config labels (default: all standard configs "
        "incl. fused/fused_sched)",
    )
    pbc.add_argument("--precision", default="int8")
    pbc.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persistent cache directory (omit for a cold in-memory run)",
    )
    pbc.add_argument(
        "--workers", type=int, default=1, help="process count for the compile matrix"
    )
    pbc.add_argument(
        "--verify-golden",
        metavar="PATH",
        default=None,
        help="check results against the golden fingerprints in PATH; "
        "exit non-zero on any mismatch",
    )
    pbc.add_argument(
        "--require-all-hits",
        action="store_true",
        help="exit non-zero unless every job was served from the cache",
    )
    _add_trace(pbc, "record a Chrome trace of the batch compile to PATH")
    pbc.set_defaults(func=_cmd_batch_compile)

    preport = sub.add_parser("report", help="regenerate the full markdown report")
    preport.add_argument("-o", "--output", default="experiment_report.md")
    preport.set_defaults(func=_cmd_report)

    pdse = sub.add_parser("dse", help="tile design-space sweep by UMM latency")
    pdse.add_argument("model")
    pdse.add_argument("--precision", default="int8")
    pdse.add_argument(
        "--budget", type=float, default=8.0, help="tile-buffer budget in MB"
    )
    pdse.add_argument(
        "--workers", type=int, default=1, help="process count for the scoring sweep"
    )
    pdse.add_argument("--top", type=int, default=10, help="design points to print")
    pdse.add_argument(
        "--space",
        choices=("small", "large"),
        default=None,
        help="sweep an exploded design-space preset (arrays x clocks x "
        "precisions x DDR configs x tiles) instead of one base design; "
        "--precision is ignored in this mode",
    )
    pdse.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="with --space: score a uniform random N-point sample of it",
    )
    pdse.add_argument(
        "--prune",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="with --space: tile-dominance + roofline pre-pruning "
        "(exact: same best design either way; --no-prune scores everything)",
    )
    pdse.add_argument(
        "--pool",
        choices=("keep", "fresh"),
        default="keep",
        help="worker-pool lifetime: 'keep' leaves the pool warm for later "
        "sweeps in this process, 'fresh' builds and closes a private pool",
    )
    _add_trace(pdse, "record a Chrome trace of the sweep (worker spans merged in)")
    pdse.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="warm-start the sweep from cached (graph, tile) scores under DIR",
    )
    pdse.set_defaults(func=_cmd_dse)

    pstats = sub.add_parser(
        "stats", help="profile one LCMM compilation: span/metric summary"
    )
    pstats.add_argument("model")
    pstats.add_argument("--precision", default="int8")
    # stats always traces itself; its own dest keeps main from nesting
    # a second tracer around it.
    pstats.add_argument(
        "--trace",
        metavar="PATH",
        dest="dump_trace",
        default=None,
        help="additionally dump the Chrome trace to PATH",
    )
    pstats.set_defaults(func=_cmd_stats)

    pserve = sub.add_parser(
        "serve", help="compilation daemon: compile/DSE jobs over HTTP/JSON"
    )
    pserve.add_argument("--host", default="127.0.0.1")
    pserve.add_argument(
        "--port", type=int, default=8347, help="0 picks an ephemeral port"
    )
    pserve.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="shared artifact cache directory (warm hits skip the pool)",
    )
    pserve.add_argument(
        "--workers", type=int, default=2, help="compile worker count"
    )
    pserve.add_argument(
        "--inline",
        action="store_true",
        help="run jobs on threads in-process (no crash isolation; tests)",
    )
    pserve.add_argument("--precision", default="int8")
    pserve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="concurrent compute requests actually executing",
    )
    pserve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="requests allowed to wait for a slot before shedding with 429",
    )
    pserve.add_argument(
        "--quota-rate",
        type=float,
        default=None,
        help="per-tenant requests/second (default: quotas off)",
    )
    pserve.add_argument(
        "--quota-burst", type=float, default=None, help="per-tenant burst size"
    )
    pserve.add_argument(
        "--deadline",
        type=float,
        default=60.0,
        help="default per-request deadline, seconds",
    )
    pserve.add_argument(
        "--retries",
        type=int,
        default=2,
        help="transient worker-failure retries per request",
    )
    pserve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive pool failures that open the circuit",
    )
    pserve.add_argument(
        "--breaker-reset",
        type=float,
        default=10.0,
        help="circuit cool-down seconds before half-open probing",
    )
    pserve.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        help="grace for in-flight jobs on SIGTERM/SIGINT",
    )
    pserve.set_defaults(func=_cmd_serve)

    pcotune = sub.add_parser("cotune", help="tile/allocation co-tuning sweep")
    pcotune.add_argument("model", choices=list(BENCHMARKS))
    pcotune.add_argument("--precision", default="int16")
    _add_trace(pcotune, "record a Chrome trace of the co-tuning sweep to PATH")
    pcotune.set_defaults(func=_cmd_cotune)

    pdot = sub.add_parser("dot", help="export graphviz views of the analysis")
    pdot.add_argument("model")
    pdot.add_argument(
        "--view", choices=("graph", "interference", "pdg"), default="graph"
    )
    pdot.add_argument("--precision", default="int8")
    pdot.add_argument("-o", "--output", default="graph.dot")
    pdot.set_defaults(func=_cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Any :class:`~repro.errors.ReproError` is reported as a single
    actionable line on stderr, and the exit status distinguishes whose
    fault it was (:func:`repro.errors.exit_code`): user/configuration
    errors — unknown model, invalid graph, infeasible budget — exit 2;
    internal failures — pipeline bugs with fallback disabled, worker
    crashes — exit 1.  A reader that closes the pipe early (``lcmm
    table1 | head -1``) ends the command unfinished: exit 1, no traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        _traced(getattr(args, "trace", None), lambda: args.func(args))
        sys.stdout.flush()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc)
    except BrokenPipeError:
        # Nothing more can reach the reader; point stdout at devnull so
        # the interpreter's exit flush does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
