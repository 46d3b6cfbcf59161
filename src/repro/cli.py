"""Command-line interface for the CapsAcc reproduction.

Usage::

    python -m repro.cli list                 # available artifacts
    python -m repro.cli run table1 fig16     # regenerate specific artifacts
    python -m repro.cli run all              # everything (incl. training)
    python -m repro.cli sweep --array 8 32   # design-space sweep (analytic tier)
    python -m repro.cli sweep --array 8 16 --window 1 2 --prestage 1 4 \
        --processes 4 --json sweep.json      # window/prestage/array DSE
    python -m repro.cli sweep --tier serving --policy fifo deadline  # fast-sim tier
    python -m repro.cli info                 # network + accelerator summary
    python -m repro.cli compile mnist --check     # graph -> ISA, golden-checked
    python -m repro.cli compile mlp --json mlp.json   # dump a compiled program
    python -m repro.cli simulate --batch-size 8   # batched engine simulation
    python -m repro.cli simulate --network cnn --batch-size 8  # zoo baseline
    python -m repro.cli simulate --batch-size 8 --images 32 --pipeline
    python -m repro.cli serve-sim --rate 400 --arrays 2   # serving simulator
    python -m repro.cli serve-sim --pipeline --trace-file arrivals.jsonl
    python -m repro.cli serve-sim --fast --requests 1000000   # streaming stats
    python -m repro.cli serve --rate 8000 --requests 2000 --max-batch 128
    python -m repro.cli serve --listen 127.0.0.1:8707   # JSONL request socket

The CLI is a thin shell over :mod:`repro.experiments`; everything it prints
is available programmatically.
"""

from __future__ import annotations

import argparse
import sys

from repro.capsnet.config import mnist_capsnet_config
from repro.compiler.cost import program_stats
from repro.experiments import ablations, accuracy, runner
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import capsacc_layer_cycles, capsacc_program
from repro.version import __version__


def _cmd_list(_: argparse.Namespace) -> int:
    print("Available artifacts:")
    for key in runner.STANDARD_DRIVERS:
        print(f"  {key}")
    print("  ablations")
    print("  accuracy")
    print("  all")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    requested = args.artifacts
    if "all" in requested:
        suite = runner.run_all()
        print(suite.report_text())
        return 0
    unknown = [
        name
        for name in requested
        if name not in runner.STANDARD_DRIVERS and name not in ("ablations", "accuracy")
    ]
    if unknown:
        print(f"unknown artifacts: {', '.join(unknown)}", file=sys.stderr)
        return 2
    reports = []
    for name in requested:
        if name == "ablations":
            reports.append(ablations.format_report(ablations.run_all()))
        elif name == "accuracy":
            reports.append(accuracy.format_report(accuracy.run()))
        else:
            driver = runner.STANDARD_DRIVERS[name]
            reports.append(driver.format_report(driver.run()))
    print(("\n\n" + "=" * 72 + "\n\n").join(reports))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.hw.pipeline import DEFAULT_PRESTAGE_DEPTH, DEFAULT_WINDOW
    from repro.sweep import SweepSpec, run_sweep

    if args.smoke:
        networks = args.network or ["tiny"]
        arrays_axis = args.array or [4, 8]
        windows = args.window or [1, 2]
        prestages = args.prestage or [1, 4]
        requests = args.requests or 512
    else:
        networks = args.network or ["mnist"]
        arrays_axis = args.array or [8, 16, 32]
        windows = args.window or [DEFAULT_WINDOW]
        prestages = args.prestage or [DEFAULT_PRESTAGE_DEPTH]
        requests = args.requests or 2000
    network = networks[0]
    axes: dict = {}
    if len(networks) > 1:
        # Several networks sweep the model-zoo axis (outermost).
        axes["network"] = tuple(networks)
    axes["array"] = tuple(arrays_axis)
    if args.tier == "analytic":
        if (
            args.policy
            or args.rate_multiplier
            or args.crash_rate
            or args.max_attempts
            or args.corrupt_rate
            or args.integrity
        ):
            print(
                "sweep: --policy/--rate-multiplier/--crash-rate/--max-attempts/"
                "--corrupt-rate/--integrity"
                " are serving-tier axes (pass --tier serving)",
                file=sys.stderr,
            )
            return 2
        axes["window"] = tuple(windows)
        axes["prestage_depth"] = tuple(prestages)
        axes["batch"] = tuple(args.batch or [1])
    else:
        if args.batch:
            print(
                "sweep: --batch is an analytic-tier axis (the serving tier"
                " forms batches dynamically)",
                file=sys.stderr,
            )
            return 2
        # Window/prestage only matter with warm (pipelined) costs; sweep
        # them only when asked, so the default grid stays meaningful.
        if args.window or (args.pipeline and args.smoke):
            axes["window"] = tuple(windows)
        if args.prestage or (args.pipeline and args.smoke):
            axes["prestage_depth"] = tuple(prestages)
        if args.policy:
            axes["policy"] = tuple(args.policy)
        if args.rate_multiplier:
            axes["rate_multiplier"] = tuple(args.rate_multiplier)
        if args.crash_rate:
            axes["crash_rate"] = tuple(args.crash_rate)
        if args.max_attempts:
            axes["max_attempts"] = tuple(args.max_attempts)
        if args.corrupt_rate:
            axes["corrupt_rate"] = tuple(args.corrupt_rate)
        if args.integrity:
            axes["integrity"] = tuple(args.integrity)
    try:
        spec = SweepSpec(
            tier=args.tier,
            network=network,
            axes=axes,
            requests=requests,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            deadline_ms=args.deadline_ms,
            arrays=args.arrays,
            pipeline=args.pipeline,
            seed=args.seed,
        )
        result = run_sweep(spec, processes=args.processes)
    except ConfigError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    print(result.format_table())
    if args.json:
        result.write_json(args.json)
        print(f"wrote {args.json}")
    if args.csv:
        result.write_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_info(_: argparse.Namespace) -> int:
    network = mnist_capsnet_config()
    accel = AcceleratorConfig()
    cycles = sum(capsacc_layer_cycles(network, accel).values())
    macs = program_stats(accel, capsacc_program(network), 1).mac_count
    print(f"repro {__version__} — CapsAcc (DATE 2019) reproduction")
    print(f"Network: MNIST CapsuleNet, {network.total_parameter_count:,} parameters,")
    print(
        f"  {network.num_primary_capsules} primary capsules x"
        f" {network.primary.capsule_dim}D ->"
        f" {network.classcaps.num_classes} class capsules x"
        f" {network.classcaps.out_dim}D"
    )
    print(
        f"Accelerator: {accel.rows}x{accel.cols} PEs @ {accel.clock_mhz:.0f} MHz,"
        f" {accel.data_bits}-bit data, {accel.acc_bits}-bit accumulation"
    )
    print(
        f"Modelled inference: {cycles / accel.clock_mhz / 1e3:.3f} ms"
        f" ({macs / (cycles * accel.num_pes) * 100:.0f}% PE utilization)"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.compiler.cost import program_stream_timing
    from repro.compiler.executor import StreamExecutor
    from repro.compiler.zoo import get_network
    from repro.data.synthetic import SyntheticDigits
    from repro.hw.pipeline import DEFAULT_PRESTAGE_DEPTH, DEFAULT_WINDOW
    from repro.hw.report import LayerReport

    if args.batch_size < 1 or args.images is not None and args.images < 1:
        print("batch size and image count must be positive", file=sys.stderr)
        return 2
    compiled = get_network(args.network)
    count = args.images if args.images is not None else args.batch_size
    dataset = SyntheticDigits(
        size=compiled.input_shape[-1], seed=args.seed
    ).generate(count)
    images = dataset.images
    if compiled.input_shape[0] != 1:
        images = np.repeat(images[:, np.newaxis], compiled.input_shape[0], axis=1)

    executor = StreamExecutor.for_network(compiled, engine=args.engine)
    config = executor.accelerator.config
    start = time.perf_counter()
    results = [
        executor.run_batch(images[lo : lo + args.batch_size])
        for lo in range(0, count, args.batch_size)
    ]
    predictions = np.concatenate([result.predictions for result in results])

    if args.pipeline:
        timing = program_stream_timing(
            config, compiled.program, [result.batch for result in results]
        )
        wall = time.perf_counter() - start
        print(
            f"Pipelined stream simulation: {count} images,"
            f" batch size {args.batch_size}, {len(results)} batches,"
            f" {args.network} network, {args.engine} engine"
            f" (window {DEFAULT_WINDOW}, prestage {DEFAULT_PRESTAGE_DEPTH} tiles)"
        )
        print(f"{'batch':>6s} {'start':>12s} {'finish':>12s} {'marginal':>12s}")
        for bt in timing.batches:
            print(
                f"{bt.index:6d} {bt.start_cycle:12d} {bt.finish_cycle:12d}"
                f" {bt.marginal_cycles:12d}"
            )
        cold = timing.cold_cycles / timing.batches[0].images
        warm = timing.cycles_per_image(steady=True)
        steady_label = (
            "steady-state"
            if timing.converged
            else "steady-state (approximate: stream shorter than 6 batches)"
        )
        print(
            f"Cold: {cold:,.0f} cycles/image; {steady_label}:"
            f" {warm:,.0f} cycles/image"
            f" = {config.clock_mhz * 1e6 / warm:,.0f} images/s at"
            f" {config.clock_mhz:.0f} MHz"
        )
        overlapped = sum(result.overlapped_cycles for result in results)
        finish = timing.finish_cycles
        speedup = overlapped / finish if finish else 0.0
        print(
            f"Stream speedup over per-batch double-buffered scheduling:"
            f" {speedup:.2f}x ({finish:,d} vs {overlapped:,d} cycles)"
        )
    else:
        wall = time.perf_counter() - start
        layers: dict[str, LayerReport] = {}
        for result in results:
            for name, report in result.layers.items():
                layers.setdefault(name, LayerReport(name=name)).merge(report)
        total = LayerReport(name="total")
        for report in layers.values():
            total.merge(report)
        print(
            f"Batched simulation: {count} images, batch size {args.batch_size},"
            f" {args.network} network, {args.engine} engine"
        )
        print(f"{'layer':14s} {'cycles':>10s} {'w/ reuse':>10s} {'jobs':>6s} {'util':>6s}")
        for report in list(layers.values()) + [total]:
            print(
                f"{report.name:14s} {report.stats.total_cycles:10d}"
                f" {report.overlapped_cycles:10d} {report.jobs:6d}"
                f" {report.utilization(config.num_pes):5.1%}"
            )
        cycles_per_image = total.overlapped_cycles / count
        modeled = config.clock_mhz * 1e6 / cycles_per_image
        print(f"Modeled: {cycles_per_image:,.0f} cycles/image"
              f" = {config.cycles_to_us(cycles_per_image):.1f} us/image"
              f" = {modeled:,.0f} images/s at {config.clock_mhz:.0f} MHz")
    print(f"Simulator wall clock: {wall:.3f} s = {count / wall:,.1f} images/s")
    accuracy = float(np.mean(predictions == dataset.labels))
    shown = predictions[:16].tolist()
    suffix = f" ... ({count} total)" if count > 16 else ""
    print(f"Predictions: {shown}{suffix} (synthetic-label accuracy {accuracy:.0%})")
    return 0


def _zoo_names() -> tuple[str, ...]:
    from repro.compiler.zoo import zoo_names

    return zoo_names()


def _cmd_compile(args: argparse.Namespace) -> int:
    from pathlib import Path

    import numpy as np

    from repro.compiler import (
        check_network,
        compile_graph,
        get_network,
        graph_from_json,
        program_batch_cycles,
    )
    from repro.data.synthetic import SyntheticDigits
    from repro.errors import CompileError, ConfigError, GraphError, ShapeError

    try:
        network = None
        if args.graph is not None:
            if args.network is not None:
                raise ConfigError("pass a zoo network name or --graph, not both")
            graph = graph_from_json(Path(args.graph).read_text())
            program = compile_graph(graph)
        elif args.network is not None:
            network = get_network(args.network)
            program = network.program
        else:
            raise ConfigError(
                f"compile needs a zoo network ({', '.join(_zoo_names())})"
                " or --graph FILE"
            )
        config = AcceleratorConfig()
        cycles = program_batch_cycles(config, program, args.batch)
        print(program.text())
        print(
            f"; batch {args.batch} on {config.rows}x{config.cols}:"
            f" {cycles['overlapped']:,d} cycles overlapped,"
            f" {cycles['sequential']:,d} sequential"
            f" ({len(program.gemm_instructions())} array jobs)"
        )
        if args.check:
            if network is None:
                raise ConfigError(
                    "--check needs a zoo network (a bare graph has no"
                    " golden parameters)"
                )
            shape = network.input_shape
            images = SyntheticDigits(size=shape[-1], seed=args.seed).generate(
                args.check_images
            ).images
            if shape[0] != 1:
                images = np.repeat(images[:, np.newaxis], shape[0], axis=1)
            summary = check_network(network, images)
            print(
                f"; golden check: {summary['images']} images,"
                f" {summary['outputs_checked']} stored outputs bit-identical"
                " to the graph interpretation"
            )
        if args.json:
            Path(args.json).write_text(program.to_json() + "\n")
            print(f"wrote {args.json}")
    except (CompileError, ConfigError, GraphError, ShapeError, OSError) as error:
        print(f"compile: {error}", file=sys.stderr)
        return 2
    return 0


def _parse_tenant_spec(text: str) -> dict:
    """Parse one ``--tenant`` value: comma-separated ``key=value`` pairs."""
    from repro.errors import ConfigError

    known = {
        "name",
        "rate",
        "requests",
        "trace",
        "network",
        "deadline-ms",
        "weight",
    }
    spec: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in known:
            raise ConfigError(
                f"bad tenant field {item!r} (known keys: {sorted(known)})"
            )
        spec[key] = value.strip()
    if "name" not in spec:
        raise ConfigError(f"tenant spec {text!r} needs a name=... field")
    return spec


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.compiler.zoo import get_network
    from repro.data.synthetic import SyntheticDigits
    from repro.errors import ConfigError
    from repro.obs import RecordingTracer, export_trace, pipeline_op_lane
    from repro.serve import (
        ScheduledBatchCost,
        ServerConfig,
        ServingSimulator,
        TenantSpec,
        load_trace_file,
        make_trace,
    )

    def spec_value(spec: dict, key: str, default, convert):
        raw = spec.get(key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except ValueError as error:
            raise ConfigError(
                f"tenant {spec['name']}: bad {key}={raw!r} ({error})"
            ) from error

    try:
        accel_config = AcceleratorConfig(acc_fifo_depth=args.fifo_depth)
        cost_by_network: dict[str, object] = {}

        def build_cost(network_name: str):
            # One cost model (and per-batch-size memo) per distinct zoo
            # network, priced from its compiled instruction stream.
            if network_name not in cost_by_network:
                cost_by_network[network_name] = ScheduledBatchCost(
                    qnet=get_network(network_name),
                    accel_config=accel_config,
                    accounting=args.accounting,
                    pipeline=args.pipeline,
                )
            return cost_by_network[network_name]

        cost = build_cost(args.network)

        server = ServerConfig.from_cli_args(args, cost, accel_config=accel_config)
        tracer = RecordingTracer() if args.trace_out else None

        # One Generator seeds everything — the arrival traces and (in
        # execute mode) the request images — so a run is reproducible end
        # to end.
        rng = np.random.default_rng(args.seed)
        if args.tenant:
            if args.execute:
                raise ConfigError("--execute is single-tenant only")
            if args.trace_file is not None:
                raise ConfigError("--trace-file is single-tenant only")
            tenants = []
            for text in args.tenant:
                spec = _parse_tenant_spec(text)
                kind = spec.get("trace", args.trace)
                rate = spec_value(spec, "rate", args.rate, float)
                count = spec_value(spec, "requests", args.requests, int)
                trace_kwargs = (
                    {"burst_size": args.burst_size} if kind == "bursty" else {}
                )
                tenant_network = spec.get("network", args.network)
                deadline_ms = spec_value(spec, "deadline-ms", None, float)
                tenants.append(
                    TenantSpec(
                        name=spec["name"],
                        trace=make_trace(kind, rate, count, rng, **trace_kwargs),
                        cost=(
                            build_cost(tenant_network)
                            if tenant_network != args.network
                            else None
                        ),
                        deadline_us=(
                            deadline_ms * 1000.0 if deadline_ms is not None else None
                        ),
                        weight=spec_value(spec, "weight", 1.0, float),
                    )
                )
            simulator = ServingSimulator(server=server, tenants=tenants, tracer=tracer)
            report = simulator.run(
                record_requests=not args.fast,
                latency_bin_us=args.latency_bin_us,
            )
        else:
            if args.trace_file is not None:
                trace = load_trace_file(args.trace_file)
                requests = trace.count
            else:
                trace_kwargs = (
                    {"burst_size": args.burst_size} if args.trace == "bursty" else {}
                )
                trace = make_trace(
                    args.trace, args.rate, args.requests, rng, **trace_kwargs
                )
                requests = args.requests
            images = None
            if args.execute:
                shape = get_network(args.network).input_shape
                images = SyntheticDigits(size=shape[-1], rng=rng).generate(
                    requests
                ).images
                if shape[0] != 1:
                    # Grayscale synthetic digits replicated across the
                    # network's input channels (e.g. the CIFAR-shape net).
                    images = np.repeat(images[:, np.newaxis], shape[0], axis=1)
            simulator = ServingSimulator(
                trace,
                server=server,
                images=images,
                execute=args.execute,
                tracer=tracer,
            )
            report = simulator.run(
                record_requests=not args.fast,
                latency_bin_us=args.latency_bin_us,
            )
    except ConfigError as error:
        print(f"serve-sim: {error}", file=sys.stderr)
        return 2
    print(report.format_table())
    if report.predictions is not None:
        shown = report.predictions[:16].tolist()
        suffix = f" ... ({report.completed} total)" if report.completed > 16 else ""
        print(f"  predictions: {shown}{suffix}")
    if tracer is not None:
        # The op drill-down lane (paper Fig. 11) needs the pipelined
        # schedule, which only a pipeline=True cost prices; the default
        # export stays schema-identical to `repro serve --trace-out`.
        op_lane = None
        if args.pipeline:
            op_lane = pipeline_op_lane(cost, args.max_batch)
        export_trace(tracer, args.trace_out, op_lane=op_lane)
        print(f"wrote {args.trace_out} ({len(tracer.events)} events)")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal
    import time

    import numpy as np

    from repro.compiler.zoo import get_network
    from repro.data.synthetic import SyntheticDigits
    from repro.errors import ConfigError
    from repro.obs import RecordingTracer, ServingMetrics, export_trace, serve_metrics
    from repro.serve import ServerConfig, ServingSimulator, load_trace_file, make_trace
    from repro.serve.compare import compare_reports
    from repro.serve.runtime import MeasuredBatchCost, ServingRuntime
    from repro.serve.trace import ArrivalTrace
    from repro.serve.workers import CompiledStreamExecutor, ProcessWorkerPool

    def parse_hostport(text: str, flag: str) -> tuple[str, int]:
        host, _, port_text = text.rpartition(":")
        try:
            return host or "127.0.0.1", int(port_text)
        except ValueError as error:
            raise ConfigError(f"{flag} expects HOST:PORT, got {text!r}") from error

    try:
        compiled = get_network(args.network)
        accel_config = AcceleratorConfig(acc_fifo_depth=args.fifo_depth)
        rng = np.random.default_rng(args.seed)
        if args.trace_file is not None:
            trace = load_trace_file(args.trace_file)
        else:
            trace_kwargs = (
                {"burst_size": args.burst_size} if args.trace == "bursty" else {}
            )
            trace = make_trace(args.trace, args.rate, args.requests, rng, **trace_kwargs)
        tracer = RecordingTracer() if args.trace_out else None

        if args.pipeline:
            raise ConfigError(
                "--pipeline is simulation-only (a live host has no warm-cost"
                " model); use serve-sim"
            )
        if args.array_sizes:
            raise ConfigError(
                "--array-sizes is simulation-only (live arrays are homogeneous"
                " execution slots)"
            )
        if args.trace_out and args.listen is not None:
            raise ConfigError(
                "--trace-out needs a bounded run (the socket server never"
                " finishes a trace); use the load-generation mode"
            )
        metrics = ServingMetrics() if args.metrics_listen else None

        if args.workers == "process":
            executor = ProcessWorkerPool(
                args.network, arrays=args.arrays, max_batch=args.max_batch
            )
        else:
            executor = CompiledStreamExecutor(compiled)
        try:
            calibration = SyntheticDigits(
                size=compiled.input_shape[-1], rng=rng
            ).generate(min(512, max(args.max_batch, 64))).images
            sizes = [s for s in (1, 2, 4, 8, 16, 32, 64, 128, 256) if s <= args.max_batch]
            cost = MeasuredBatchCost.calibrate(
                executor, calibration, sizes=sizes, config=accel_config
            )
            server = ServerConfig.from_cli_args(args, cost, accel_config=accel_config)

            if args.listen is not None:
                host, port = parse_hostport(args.listen, "--listen")

                async def serve_forever() -> None:
                    runtime = ServingRuntime(
                        server,
                        executor=executor,
                        max_pending=args.max_pending,
                        metrics=metrics,
                    )
                    if args.metrics_listen:
                        m_host, m_port = parse_hostport(
                            args.metrics_listen, "--metrics-listen"
                        )
                        await serve_metrics(metrics, m_host, m_port)
                        print(f"metrics on http://{m_host}:{m_port}/metrics")
                    socket_server = await runtime.serve_socket(host, port)
                    bound = socket_server.sockets[0].getsockname()
                    print(
                        f"serving {args.network} on {bound[0]}:{bound[1]}"
                        f" ({server.describe()}; ctrl-c to stop)"
                    )
                    # ctrl-c ends the wait rather than interrupting the loop:
                    # asyncio.run would cancel the in-flight requests before
                    # they reply (Python 3.10), and serve_forever()'s
                    # cancellation waits for every client to hang up (3.12).
                    interrupted = asyncio.Event()
                    asyncio.get_running_loop().add_signal_handler(
                        signal.SIGINT, interrupted.set
                    )
                    try:
                        await interrupted.wait()
                    finally:
                        # Stop accepting, then finish the requests already in
                        # flight (their replies go out) before exit.
                        socket_server.close()
                        await runtime.stop()

                try:
                    asyncio.run(serve_forever())
                except KeyboardInterrupt:
                    pass  # ctrl-c before the server was up
                print("stopped")
                return 0

            async def run_load():
                runtime = ServingRuntime(
                    server,
                    executor=executor,
                    max_pending=args.max_pending,
                    tracer=tracer,
                    metrics=metrics,
                )
                metrics_server = None
                if args.metrics_listen:
                    m_host, m_port = parse_hostport(
                        args.metrics_listen, "--metrics-listen"
                    )
                    metrics_server = await serve_metrics(metrics, m_host, m_port)
                    print(f"metrics on http://{m_host}:{m_port}/metrics")
                wall_start = time.perf_counter()
                await runtime.run_load(trace)
                await runtime.drain()
                wall = time.perf_counter() - wall_start
                report = runtime.report(
                    trace_name=trace.name,
                    offered_rps=trace.offered_rps,
                    wall_seconds=wall,
                )
                await runtime.stop()
                if metrics_server is not None:
                    metrics_server.close()
                    await metrics_server.wait_closed()
                return report

            live = asyncio.run(run_load())
            print(live.format_table())
            if tracer is not None:
                export_trace(tracer, args.trace_out)
                print(f"wrote {args.trace_out} ({len(tracer.events)} events)")
            served = live.served
            live_rps = 0.0
            if served:
                span_us = max(r.done_us for r in served) - min(
                    r.arrival_us for r in served
                )
                if span_us > 0:
                    live_rps = len(served) / span_us * 1e6
                print(
                    f"  live throughput: {live_rps:,.0f} req/s"
                    f" over {span_us / 1e6:.2f} s of wall clock"
                )
            crosscheck = None
            if args.crosscheck:
                # Re-simulate the recorded arrivals with in-situ batch
                # costs: the simulator should predict the live latency
                # distribution.
                insitu = MeasuredBatchCost.from_report(live, config=accel_config)
                sim_server = ServerConfig.from_cli_args(
                    args, insitu, accel_config=accel_config
                )
                arrivals = np.array(sorted(r.arrival_us for r in live.requests))
                arrivals -= arrivals[0]
                sim = ServingSimulator(
                    ArrivalTrace(times_us=arrivals, name="live-arrivals"),
                    server=sim_server,
                ).run()
                crosscheck = compare_reports(sim, live, rel_tol=0.2)
                for metric in ("p50_us", "p99_us"):
                    entry = crosscheck[metric]
                    print(
                        f"  sim-vs-live {metric}: sim={entry['sim']:,.0f}"
                        f" live={entry['live']:,.0f} ratio={entry['ratio']:.2f}"
                    )
                verdict = "within" if crosscheck["within_tol"] else "OUTSIDE"
                print(f"  sim-vs-live crosscheck: {verdict} 20% tolerance")
            if args.json:
                payload = live.to_dict()
                payload["live_rps"] = live_rps
                payload["sim_vs_live"] = crosscheck
                with open(args.json, "w") as handle:
                    json.dump(payload, handle, indent=2)
                print(f"wrote {args.json}")
            if crosscheck is not None and not crosscheck["within_tol"]:
                return 1
        finally:
            executor.close()
    except ConfigError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.serve.policies import add_server_arguments

    parser = argparse.ArgumentParser(
        prog="repro", description="CapsAcc (DATE 2019) reproduction toolkit"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available artifacts").set_defaults(func=_cmd_list)

    run_parser = sub.add_parser("run", help="regenerate paper artifacts")
    run_parser.add_argument("artifacts", nargs="+", help="artifact ids or 'all'")
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep",
        help="design-space sweep: array / window / prestage grids through the"
        " compiled program's stream timing or the fast serving simulator",
    )
    sweep_parser.add_argument(
        "--tier",
        choices=("analytic", "serving"),
        default="analytic",
        help="cheap closed-form tier, or the accurate fast-simulator tier",
    )
    sweep_parser.add_argument(
        "--array", type=int, nargs="+", default=None, help="array sizes (NxN)"
    )
    sweep_parser.add_argument(
        "--window", type=int, nargs="+", default=None, help="pipeline windows"
    )
    sweep_parser.add_argument(
        "--prestage", type=int, nargs="+", default=None, help="prestage FIFO depths"
    )
    sweep_parser.add_argument(
        "--batch", type=int, nargs="+", default=None, help="batch sizes (analytic tier)"
    )
    sweep_parser.add_argument(
        "--policy",
        nargs="+",
        choices=("fifo", "deadline", "greedy"),
        default=None,
        help="serving-policy axis (serving tier)",
    )
    sweep_parser.add_argument(
        "--rate-multiplier",
        type=float,
        nargs="+",
        default=None,
        help="offered-rate axis, as multiples of batch-1 capacity (serving tier)",
    )
    sweep_parser.add_argument(
        "--crash-rate",
        type=float,
        nargs="+",
        default=None,
        help="fault-injection crash-probability axis (serving tier)",
    )
    sweep_parser.add_argument(
        "--max-attempts",
        type=int,
        nargs="+",
        default=None,
        help="retry-budget axis: attempts per request under faults (serving tier)",
    )
    sweep_parser.add_argument(
        "--corrupt-rate",
        type=float,
        nargs="+",
        default=None,
        help="silent-corruption injection-probability axis (serving tier)",
    )
    sweep_parser.add_argument(
        "--integrity",
        nargs="+",
        choices=("none", "checksum", "checksum+canary"),
        default=None,
        help="integrity check-mode axis countering corruption (serving tier)",
    )
    sweep_parser.add_argument(
        "--network",
        nargs="+",
        choices=_zoo_names(),
        default=None,
        help="model-zoo network(s); several values sweep the network axis"
        " (default mnist; tiny with --smoke)",
    )
    sweep_parser.add_argument(
        "--requests", type=int, default=None, help="trace length per serving point"
    )
    sweep_parser.add_argument("--max-batch", type=int, default=8)
    sweep_parser.add_argument("--max-wait-us", type=float, default=2000.0)
    sweep_parser.add_argument("--deadline-ms", type=float, default=None)
    sweep_parser.add_argument(
        "--arrays", type=int, default=1, help="arrays per serving point"
    )
    sweep_parser.add_argument(
        "--pipeline",
        action="store_true",
        help="serving tier: charge warm (stream-pipelined) batch costs",
    )
    sweep_parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="fan sweep points out across this many worker processes",
    )
    sweep_parser.add_argument("--seed", type=int, default=7)
    sweep_parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny network and a small grid (CI gate)",
    )
    sweep_parser.add_argument("--json", type=str, default=None, help="write artifact JSON")
    sweep_parser.add_argument("--csv", type=str, default=None, help="write rows CSV")
    sweep_parser.set_defaults(func=_cmd_sweep)

    compile_parser = sub.add_parser(
        "compile",
        help="compile a model-zoo network or a JSON graph file to the"
        " accelerator ISA and print the instruction stream",
    )
    compile_parser.add_argument(
        "network",
        nargs="?",
        choices=_zoo_names(),
        default=None,
        help="model-zoo network to compile",
    )
    compile_parser.add_argument(
        "--graph",
        type=str,
        default=None,
        metavar="FILE",
        help="compile an IR graph from its JSON serialization instead",
    )
    compile_parser.add_argument(
        "--batch", type=int, default=1, help="batch size for the cycle summary"
    )
    compile_parser.add_argument(
        "--check",
        action="store_true",
        help="run the compiled stream on synthetic images and assert every"
        " stored output is bit-identical to the golden graph interpretation",
    )
    compile_parser.add_argument(
        "--check-images", type=int, default=4, help="images for --check"
    )
    compile_parser.add_argument(
        "--seed", type=int, default=7, help="synthetic image seed for --check"
    )
    compile_parser.add_argument(
        "--json", type=str, default=None, help="write the compiled program JSON"
    )
    compile_parser.set_defaults(func=_cmd_compile)

    sim_parser = sub.add_parser(
        "simulate", help="run the batched execution engine on synthetic images"
    )
    sim_parser.add_argument(
        "--batch-size", type=int, default=1, help="images per scheduled batch"
    )
    sim_parser.add_argument(
        "--images", type=int, default=None, help="total images (default: one batch)"
    )
    sim_parser.add_argument(
        "--network",
        choices=_zoo_names(),
        default="mnist",
        help="model-zoo network to simulate",
    )
    sim_parser.add_argument(
        "--engine",
        choices=("fast", "stepped"),
        default="fast",
        help="execution engine (stepped is clock-edge accurate but slow)",
    )
    sim_parser.add_argument(
        "--pipeline",
        action="store_true",
        help="stream-pipeline across batches (cross-batch weight prestaging)",
    )
    sim_parser.add_argument("--seed", type=int, default=7, help="synthetic data seed")
    sim_parser.set_defaults(func=_cmd_simulate)

    serve_parser = sub.add_parser(
        "serve-sim",
        help="discrete-event serving simulation (dynamic batching, N arrays)",
    )
    # The policy/pool surface is shared with `repro serve` so the two
    # front-ends cannot drift apart flag by flag.
    add_server_arguments(serve_parser, network_default="mnist")
    serve_parser.add_argument(
        "--rate", type=float, default=400.0, help="mean arrival rate (requests/s)"
    )
    serve_parser.add_argument(
        "--requests", type=int, default=64, help="requests in the trace"
    )
    serve_parser.add_argument(
        "--trace",
        choices=("poisson", "bursty", "uniform"),
        default="poisson",
        help="arrival process",
    )
    serve_parser.add_argument(
        "--trace-file",
        type=str,
        default=None,
        help="replay recorded arrival times from a .jsonl/.csv file"
        " (overrides --trace/--rate/--requests)",
    )
    serve_parser.add_argument(
        "--burst-size", type=int, default=8, help="requests per burst (bursty trace)"
    )
    serve_parser.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="SPEC",
        help="add a tenant (repeatable): comma-separated key=value pairs,"
        " e.g. name=a,rate=400,requests=64,network=tiny,deadline-ms=10,"
        "weight=2 (unset keys inherit the top-level flags)",
    )
    serve_parser.add_argument(
        "--accounting",
        choices=("overlapped", "sequential"),
        default="overlapped",
        help="cycle accounting charged per batch",
    )
    serve_parser.add_argument(
        "--execute",
        action="store_true",
        help="run every batch through the engine on real images (predictions)",
    )
    serve_parser.add_argument(
        "--fast",
        action="store_true",
        help="streaming fast path (record_requests=False): identical counts,"
        " O(1) memory, percentiles at histogram resolution — for long traces",
    )
    serve_parser.add_argument(
        "--latency-bin-us",
        type=float,
        default=50.0,
        help="latency histogram bin width for --fast (microseconds)",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=7, help="seed for the trace and image generator"
    )
    serve_parser.add_argument("--json", type=str, default=None, help="write report JSON")
    serve_parser.set_defaults(func=_cmd_serve_sim)

    live_parser = sub.add_parser(
        "serve",
        help="live serving runtime: real requests through the quantized engine"
        " under the same policies as serve-sim",
    )
    add_server_arguments(live_parser, network_default="tiny")
    live_parser.add_argument(
        "--rate", type=float, default=8000.0, help="offered load (requests/s)"
    )
    live_parser.add_argument(
        "--requests", type=int, default=2000, help="requests in the generated trace"
    )
    live_parser.add_argument(
        "--trace",
        choices=("poisson", "bursty", "uniform"),
        default="uniform",
        help="arrival process for the offered load",
    )
    live_parser.add_argument(
        "--trace-file",
        type=str,
        default=None,
        help="replay recorded arrival times from a .jsonl/.csv file"
        " (overrides --trace/--rate/--requests)",
    )
    live_parser.add_argument(
        "--burst-size", type=int, default=8, help="requests per burst (bursty trace)"
    )
    live_parser.add_argument(
        "--workers",
        choices=("inline", "process"),
        default="inline",
        help="execution back-end: the engine in-process, or one worker"
        " process per array over shared memory",
    )
    live_parser.add_argument(
        "--max-pending",
        type=int,
        default=2048,
        help="backpressure bound on queued + in-flight requests",
    )
    live_parser.add_argument(
        "--listen",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="serve a JSONL request socket instead of generating load",
    )
    live_parser.add_argument(
        "--metrics-listen",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="expose live Prometheus metrics (counters, gauges, windowed"
        " p50/p99) over HTTP while the run is in flight",
    )
    live_parser.add_argument(
        "--crosscheck",
        action="store_true",
        help="after the live run, simulate the recorded arrivals with in-situ"
        " measured batch costs and compare latency percentiles",
    )
    live_parser.add_argument(
        "--seed", type=int, default=7, help="seed for the trace and image generator"
    )
    live_parser.add_argument("--json", type=str, default=None, help="write report JSON")
    live_parser.set_defaults(func=_cmd_serve)

    sub.add_parser("info", help="network and accelerator summary").set_defaults(
        func=_cmd_info
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
