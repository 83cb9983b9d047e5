"""Command-line interface for running experiments.

Examples::

    python -m repro.eval.cli run --system edgeis --dataset kitti_like \
        --network wifi_2.4ghz --frames 200 --json results/kitti.json
    python -m repro.eval.cli compare --dataset xiph_like
    python -m repro.eval.cli trace fig9 --frames 150 --out results/traces/fig9
    python -m repro.eval.cli bench run --suite smoke --label dev
    python -m repro.eval.cli bench run --suite chaos --label dev
    python -m repro.eval.cli bench compare results/BENCH_smoke_old.json \
        results/BENCH_smoke_new.json
    python -m repro.eval.cli bench trend
    python -m repro.eval.cli why fleet --scenario edf-1srv-batch --session 1
    python -m repro.eval.cli serve --scenario wifi-to-lte --fault replica-outage
    python -m repro.eval.cli list

``serve``/``bench run``/``why`` all take ``--list`` to print the names
they accept (deterministic order, exit 0) without running anything.
``bench run`` simulates each cell of a suite once and writes the BENCH
artifact, the ops report (markdown + HTML) and the miss console from
that one run.  It certifies the suites that carry a claim (``chaos``:
every cell holds its SLO error budget; ``tenants``: premium isolation
under saturation) and exits 1 when the claim does not hold or when a
deadline miss has no cause.  ``why`` is the zoom verb: it runs only the
selected cells and prints their waterfalls.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..chaos import FAULTS, SCENARIOS
from ..network.channel import CHANNELS
from ..obs import (
    DEFAULT_SLO_TARGET,
    FRAME_BUDGET_MS,
    build_report,
    build_why,
    compare_payloads,
    evaluate_slo,
    mean_frame_latency_ms,
    render_comparison,
    stage_table,
    write_bench,
    write_chrome_trace,
    write_jsonl,
    write_report,
    write_trend_report,
    write_why,
)
from ..serve import POLICY_NAMES
from ..tenancy import DEFAULT_TENANTS, QOS_CLASSES
from ..synthetic.datasets import COMPLEXITY_LEVELS, DATASET_NAMES
from ..synthetic.trajectory import MOTION_PRESETS
from .experiments import (
    ABLATION_NAMES,
    SYSTEM_NAMES,
    ExperimentSpec,
    FleetSpec,
    run_experiment,
    run_fleet,
)
from .reporting import Table, result_payload, save_json
from .suites import SUITES, run_suite, suite_cells

__all__ = ["main", "TRACE_BENCHES"]

# Named trace scenarios: one per evaluation setting worth a timeline.
# Each maps to the (dataset, network, motion) cell it reproduces.
TRACE_BENCHES = {
    "fig9": {"dataset": "xiph_like", "network": "wifi_5ghz", "motion": "walk"},
    "fig10-wifi24": {"dataset": "xiph_like", "network": "wifi_2.4ghz", "motion": "walk"},
    "fig10-lte": {"dataset": "xiph_like", "network": "lte", "motion": "walk"},
    "fig12-jog": {"dataset": "kitti_like", "network": "wifi_5ghz", "motion": "jog"},
}


_TRACE_FORMATS = ("table", "jsonl", "chrome")


def _trace_formats(value: str) -> list[str]:
    """argparse ``type=`` for ``trace --format``: a comma-separated
    subset of the exports ``trace`` can write."""
    formats = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in _TRACE_FORMATS:
            raise argparse.ArgumentTypeError(
                f"unknown format {part!r}; choose from {','.join(_TRACE_FORMATS)}"
            )
        if part not in formats:
            formats.append(part)
    if not formats:
        raise argparse.ArgumentTypeError("at least one format required")
    return formats


def _print_listing(sections: dict) -> int:
    """Shared ``--list`` renderer: one ``name: a, b, c`` line per
    section in a deterministic order, exit 0 without running anything."""
    width = max((len(name) for name in sections), default=0)
    for name, values in sections.items():
        print(f"{name}:".ljust(width + 1), ", ".join(values))
    return 0


def _add_list_flag(sub) -> None:
    sub.add_argument(
        "--list",
        dest="list_names",
        action="store_true",
        help="list the names this verb accepts and exit",
    )


def _spec_from_args(args, system: str | None = None) -> ExperimentSpec:
    return ExperimentSpec(
        system=system or args.system,
        dataset=args.dataset,
        network=args.network,
        num_frames=args.frames,
        motion_grade=args.motion,
        seed=args.seed,
        server_device=args.server,
        monitor_resources=getattr(args, "resources", False),
    )


def _cmd_run(args) -> int:
    spec = _spec_from_args(args)
    outcome = run_experiment(spec)
    result = outcome.result
    table = Table(
        f"{spec.system} on {spec.dataset} over {spec.network}",
        ["metric", "value"],
    )
    payload = result_payload(result)
    for key in (
        "mean_iou",
        "false_rate_75",
        "false_rate_50",
        "mean_latency_ms",
        "offload_count",
        "server_utilization",
    ):
        table.add_row(key, payload[key])
    table.print()
    if args.json:
        save_json(args.json, payload)
        print(f"saved {args.json}")
    return 0


def _cmd_compare(args) -> int:
    table = Table(
        f"comparison on {args.dataset} over {args.network}",
        ["system", "mean IoU", "false@0.75", "latency ms"],
    )
    payloads = {}
    for system in SYSTEM_NAMES:
        result = run_experiment(_spec_from_args(args, system=system)).result
        payload = result_payload(result)
        payloads[system] = payload
        table.add_row(
            system,
            payload["mean_iou"],
            payload["false_rate_75"],
            payload["mean_latency_ms"],
        )
    table.print()
    if args.json:
        save_json(args.json, payloads)
        print(f"saved {args.json}")
    return 0


def _cmd_trace(args) -> int:
    """Run one scenario with tracing on and write every export."""
    preset = TRACE_BENCHES[args.bench]
    spec = ExperimentSpec(
        system=args.system,
        dataset=preset["dataset"],
        network=preset["network"],
        motion_grade=preset["motion"],
        num_frames=args.frames,
        seed=args.seed,
        server_device=args.server,
        trace=True,
        trace_wall_clock=args.wall_clock,
    )
    outcome = run_experiment(spec)
    tracer = outcome.tracer
    result = outcome.result

    out_dir = Path(args.out or f"results/traces/{args.bench}")
    written = []
    if "jsonl" in args.formats:
        written.append(write_jsonl(tracer, out_dir / "trace.jsonl"))
    if "chrome" in args.formats:
        written.append(
            write_chrome_trace(
                tracer,
                out_dir / "trace_chrome.json",
                process_name=f"{spec.system}:{args.bench}",
            )
        )
    if "table" in args.formats:
        table = stage_table(
            tracer,
            title=f"per-stage latency — {spec.system} on {spec.dataset} over {spec.network}",
        )
        table_path = out_dir / "stage_latency.txt"
        out_dir.mkdir(parents=True, exist_ok=True)
        table_path.write_text(table.render() + "\n")
        table.print()
        written.append(table_path)

    # Reconcile: the trace's per-frame client spans must reproduce the
    # run's mean display latency (same simulation, finer grain).
    traced_ms = mean_frame_latency_ms(tracer, warmup_frames=spec.warmup_frames)
    reported_ms = result.mean_latency_ms()
    delta = abs(traced_ms - reported_ms) / max(reported_ms, 1e-9)
    print(f"spans:  {len(tracer.spans)}   events: {len(tracer.events)}")
    for path in written:
        print(f"wrote  {path}")
    print(
        f"reconciliation: trace {traced_ms:.3f} ms vs run {reported_ms:.3f} ms "
        f"({delta * 100:.3f}% apart)"
    )
    if delta > 0.01:
        print("ERROR: trace does not reconcile with the run result (> 1%)")
        return 1
    return 0


def _cmd_serve(args) -> int:
    """Run a client fleet through the serving layer and report on it."""
    if args.list_names:
        return _print_listing(
            {
                "systems": SYSTEM_NAMES + ABLATION_NAMES,
                "datasets": DATASET_NAMES,
                "networks": tuple(sorted(CHANNELS)),
                "policies": tuple(sorted(POLICY_NAMES)),
                "scenarios": tuple(sorted(SCENARIOS)),
                "faults": tuple(sorted(FAULTS)),
                "qos": tuple(sorted(QOS_CLASSES)),
            }
        )
    spec = FleetSpec(
        num_clients=args.clients,
        system=args.system,
        dataset=args.dataset,
        network=args.network,
        num_frames=args.frames,
        motion_grade=args.motion,
        server_device=args.server,
        scenario=args.scenario,
        faults=args.fault,
        num_servers=args.servers,
        policy=args.policy,
        queue_limit=args.queue_limit,
        deadline_horizon=args.horizon,
        degrade=not args.no_degrade,
        batch_window_ms=args.batch_window_ms,
        max_batch_size=args.max_batch_size,
        warmup_frames=args.warmup,
        seed=args.seed,
        trace=True,
        tenants=args.tenants,
    )
    outcome = run_fleet(spec)
    slo = evaluate_slo(
        outcome.tracer, budget_ms=args.budget_ms, warmup_frames=spec.warmup_frames
    )
    topology = f"{spec.policy} x{spec.num_servers} server(s)"
    table = Table(
        f"fleet: {spec.num_clients} x {spec.system} over {spec.network} — {topology}",
        ["session", "mean IoU", "latency ms", "offloads", "KiB up"],
    )
    payloads = []
    for index, result in enumerate(outcome.results):
        payload = result_payload(result)
        payloads.append(payload)
        table.add_row(
            index,
            payload["mean_iou"],
            payload["mean_latency_ms"],
            payload["offload_count"],
            payload["bytes_up"] / 1024.0,
        )
    table.print()

    serve_stats = outcome.scheduler.stats(outcome.duration_ms)
    degrade = serve_stats["degrade"]
    print(
        "serve:    submitted={submitted} admitted={admitted} "
        "rejected(queue)={rejected_queue_full} "
        "rejected(deadline)={rejected_infeasible} shed={shed} "
        "completed={completed}".format(**serve_stats)
    )
    print(
        f"degrade:  events={degrade['degrade_events']} "
        f"recoveries={degrade['recover_events']} "
        f"degraded_at_end={degrade['degraded_at_end']}"
    )
    batching = serve_stats.get("batching")
    if batching is not None:
        print(
            "batching: window={window_ms:g} ms max_size={max_size} "
            "batches={batches} items={batched_items} "
            "mean_size={mean_batch_size:.2f} "
            "saved={batch_saved_ms:.1f} ms".format(**batching)
        )
    for entry in serve_stats["per_server"]:
        print(
            f"server{entry['index']}:  completed={entry['completed']} "
            f"shed={entry['shed']} utilization={entry.get('utilization', 0.0):.3f}"
        )
    tenancy = serve_stats.get("tenancy")
    if tenancy is not None:
        for name, entry in tenancy["per_tenant"].items():
            print(
                f"tenant {name} ({entry['qos']}): "
                f"submitted={entry['submitted']} admitted={entry['admitted']} "
                f"shed={entry['shed']} displaced={entry['displaced']} "
                f"completed={entry['completed']} "
                f"server_ms={entry['server_ms']:.1f}"
            )
    if outcome.chaos is not None and outcome.chaos.log:
        print(
            "chaos:    "
            + " ".join(entry["event"] for entry in outcome.chaos.log)
        )
    print(
        f"fleet SLO: miss_rate={slo['miss_rate']:.4f} "
        f"p50={slo['latency_p50_ms']:.2f} ms p99={slo['latency_p99_ms']:.2f} ms "
        f"({slo['frames']} frames, {args.budget_ms:.2f} ms budget)"
    )
    if args.json:
        save_json(
            args.json,
            {"sessions": payloads, "serve": serve_stats, "slo": slo},
        )
        print(f"saved {args.json}")
    return 0


def _cmd_bench_run(args) -> int:
    """Run a benchmark suite once and write its BENCH artifact, ops
    report and miss console."""
    if args.list_names:
        return _print_listing(
            {
                suite: tuple(cell.name for cell in SUITES[suite])
                for suite in sorted(SUITES)
            }
        )
    payload, observed = run_suite(
        args.suite,
        args.label,
        degrade=args.degrade,
        budget_ms=args.budget_ms,
        slo_target=args.slo_target,
    )
    why = build_why(payload, observed)
    paths = [
        write_bench(payload, args.out),
        *write_report(build_report(payload, observed), args.out),
        write_why(why["markdown"], args.out, args.suite, args.label),
    ]
    table = Table(
        f"bench {args.suite} [{args.label}] — {args.budget_ms:.2f} ms budget",
        [
            "scenario",
            "frames",
            "mean IoU",
            "frame p50 ms",
            "frame p99 ms",
            "miss rate",
            "worst streak",
        ],
    )
    kernel_table = Table(
        f"kernels [{args.label}]",
        ["kernel", "n", "vectorized µs", "reference µs", "speedup", "equiv"],
    )
    have_kernels = False
    for name in sorted(payload["scenarios"]):
        scenario = payload["scenarios"][name]
        kernel = scenario.get("kernel")
        if kernel is not None:
            have_kernels = True
            kernel_table.add_row(
                kernel.get("name", name),
                kernel.get("n", 0),
                kernel.get("vectorized_us", "-"),
                kernel.get("reference_us", "-"),
                kernel.get("speedup_x", "-"),
                "yes" if kernel.get("equivalent") else "NO",
            )
            continue
        slo = scenario["slo"]
        table.add_row(
            name,
            slo["frames"],
            scenario["result"]["mean_iou"],
            slo["latency_p50_ms"],
            slo["latency_p99_ms"],
            slo["miss_rate"],
            slo["worst_streak"],
        )
    table.print()
    if have_kernels:
        kernel_table.print()
    for path in paths:
        print(f"wrote  {path}")
    code = _unclassified_exit(why)
    certification = payload.get("certification")
    if certification is None:
        return code
    checks = certification.get("checks", {})
    for check_name in sorted(checks):
        check = checks[check_name]
        detail = " ".join(f"{k}={check[k]}" for k in sorted(check) if k != "ok")
        print(f"{'PASS' if check['ok'] else 'FAIL'}  {check_name}  {detail}")
    if not certification["certified"]:
        error = certification.get("error")
        print(f"NOT CERTIFIED: suite {args.suite}" + (f" ({error})" if error else ""))
        return 1
    print(f"certified: suite {args.suite}, all {len(checks)} checks hold")
    return code


def _unclassified_exit(why: dict) -> int:
    """1 (after saying so) when a deadline miss has no cause, else 0:
    an unclassified miss is a classifier hole, not data."""
    if why["unclassified"] > 0:
        print(f"UNCLASSIFIED: {why['unclassified']} miss(es) have no cause")
        return 1
    return 0


def _cmd_bench_compare(args) -> int:
    """Diff two BENCH artifacts; exit non-zero on any regression."""
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    report = compare_payloads(old, new, threshold_scale=args.threshold_scale)
    render_comparison(report).print()
    print(
        f"{len(report['improved'])} improved, {len(report['regressed'])} "
        f"regressed, {report['neutral_count']} neutral"
    )
    for path in report["missing"]:
        print(f"note: metric disappeared: {path}")
    if report["regressed"]:
        for path in report["regressed"]:
            print(f"REGRESSED: {path}")
        return 1
    return 0


def _cmd_bench_trend(args) -> int:
    """Fold every BENCH artifact in the results dir into the trend report."""
    out = write_trend_report(args.results_dir, args.out)
    print(out.read_text())
    print(f"wrote  {out}")
    return 0


def _cmd_why(args) -> int:
    """Run the selected traced cells of a suite and explain every
    deadline miss: ranked root causes per cell plus per-frame
    critical-path waterfalls."""
    if args.list_names:
        return _print_listing(
            {
                "suites": tuple(sorted(SUITES)),
                "scenarios": tuple(
                    cell.name for cell in SUITES.get(args.suite, ())
                ),
            }
        )
    payload, observed = run_suite(
        args.suite,
        args.label,
        budget_ms=args.budget_ms,
        cells=suite_cells(args.suite, traced=True, scenario=args.scenario),
    )
    why = build_why(payload, observed, session=args.session, frame=args.frame)
    print(why["markdown"], end="")
    table = Table(
        f"why {args.suite} [{args.label}] — miss root causes",
        ["scenario", "misses", "classified", "unclassified", "top cause"],
    )
    for name in sorted(why["scenarios"]):
        summary = why["scenarios"][name]
        table.add_row(
            name,
            summary["misses"],
            summary["classified"],
            summary["unclassified"],
            summary["top_cause"] or "-",
        )
    table.print()
    if args.out is not None:
        path = write_why(why["markdown"], args.out, args.suite, args.label)
        print(f"wrote  {path}")
    return _unclassified_exit(why)


def _cmd_list(args) -> int:
    return _print_listing(
        {
            "systems": SYSTEM_NAMES,
            "ablations": ABLATION_NAMES,
            "datasets": DATASET_NAMES,
            "complexity": COMPLEXITY_LEVELS,
            "networks": tuple(sorted(CHANNELS)),
            "traces": tuple(TRACE_BENCHES),
            "suites": tuple(sorted(SUITES)),
            "policies": tuple(sorted(POLICY_NAMES)),
            "scenarios": tuple(sorted(SCENARIOS)),
            "faults": tuple(sorted(FAULTS)),
            "qos": tuple(sorted(QOS_CLASSES)),
            "tenants": tuple(
                f"{spec.name}:{spec.qos}:{spec.num_sessions}"
                for spec in DEFAULT_TENANTS
            ),
        }
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.eval.cli", description="edgeIS experiment runner"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--dataset", default="xiph_like", choices=DATASET_NAMES)
        sub.add_argument("--network", default="wifi_5ghz", choices=sorted(CHANNELS))
        sub.add_argument("--frames", type=int, default=150)
        sub.add_argument("--motion", default="walk", choices=sorted(MOTION_PRESETS))
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--server", default="jetson_tx2", choices=("jetson_tx2", "jetson_xavier", "titan_v")
        )
        sub.add_argument("--json", default=None, help="save metrics to this path")

    run_parser = subparsers.add_parser("run", help="run one system")
    run_parser.add_argument(
        "--system", default="edgeis", choices=SYSTEM_NAMES + ABLATION_NAMES
    )
    run_parser.add_argument("--resources", action="store_true")
    add_common(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = subparsers.add_parser("compare", help="run all systems")
    add_common(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    trace_parser = subparsers.add_parser(
        "trace", help="run one scenario with frame-level tracing and export it"
    )
    trace_parser.add_argument(
        "bench",
        nargs="?",
        default="fig9",
        choices=sorted(TRACE_BENCHES),
        help="named scenario (dataset+network+motion preset)",
    )
    trace_parser.add_argument(
        "--system", default="edgeis", choices=SYSTEM_NAMES + ABLATION_NAMES
    )
    trace_parser.add_argument("--frames", type=int, default=150)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--server", default="jetson_tx2", choices=("jetson_tx2", "jetson_xavier", "titan_v")
    )
    trace_parser.add_argument(
        "--out", default=None, help="output directory (default results/traces/<bench>)"
    )
    trace_parser.add_argument(
        "--wall-clock",
        action="store_true",
        help="additionally record wall-clock span times (breaks trace diffability)",
    )
    trace_parser.add_argument(
        "--format",
        dest="formats",
        type=_trace_formats,
        default=list(_TRACE_FORMATS),
        help="comma-separated outputs to write (subset of table,jsonl,chrome;"
        " default all three)",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run a multi-client fleet through the deadline-aware serving layer",
    )
    serve_parser.add_argument("--clients", type=int, default=8)
    serve_parser.add_argument("--servers", type=int, default=1)
    serve_parser.add_argument(
        "--policy", default="edf", choices=sorted(POLICY_NAMES)
    )
    serve_parser.add_argument("--queue-limit", type=int, default=4)
    serve_parser.add_argument(
        "--horizon",
        type=float,
        default=12.0,
        help="request deadline = send time + horizon x frame budget",
    )
    serve_parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="disable MAMT-fallback degradation on reject/shed",
    )
    serve_parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=0.0,
        help="how long a replica may hold a servable request open for co-riders",
    )
    serve_parser.add_argument(
        "--max-batch-size",
        type=int,
        default=1,
        help="cross-session batch size cap (1 disables batching)",
    )
    serve_parser.add_argument(
        "--system", default="baseline+mamt", choices=SYSTEM_NAMES + ABLATION_NAMES
    )
    serve_parser.add_argument(
        "--scenario",
        default=None,
        help="adversarial scenario from the chaos registry "
        f"({', '.join(sorted(SCENARIOS))}) — replaces --dataset/--motion",
    )
    serve_parser.add_argument(
        "--fault",
        default="none",
        help="named fault program to inject "
        f"({', '.join(sorted(FAULTS))})",
    )
    serve_parser.add_argument("--warmup", type=int, default=10)
    serve_parser.add_argument(
        "--budget-ms",
        type=float,
        default=FRAME_BUDGET_MS,
        help="per-frame deadline for SLO evaluation (default 33.33 ms = 30 fps)",
    )
    serve_parser.add_argument(
        "--tenants",
        default=None,
        help="tenant directory as name:qos:count[,...] — session counts"
        " must sum to --clients (qos: premium, standard, best_effort)",
    )
    add_common(serve_parser)
    _add_list_flag(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve, frames=60)

    bench_parser = subparsers.add_parser(
        "bench",
        help="benchmark suites: SLO tracking, percentiles, regression gate",
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run",
        help="run a suite once and write BENCH_<suite>_<label>.json,"
        " REPORT_<suite>_<label>.md/.html and WHY_<suite>_<label>.md",
    )
    # No argparse ``choices``: unknown suites get the runner's one-line
    # error (listing what exists) instead of an argparse usage dump.
    bench_run.add_argument(
        "--suite",
        default="smoke",
        help=f"suite to run ({', '.join(sorted(SUITES))})",
    )
    bench_run.add_argument(
        "--label", default="dev", help="artifact label (BENCH_<suite>_<label>.json etc.)"
    )
    bench_run.add_argument(
        "--out", default="results", help="output directory (default results/)"
    )
    bench_run.add_argument(
        "--degrade",
        type=float,
        default=1.0,
        help="synthetically slow the edge server by this factor (gate self-test)",
    )
    bench_run.add_argument(
        "--budget-ms",
        type=float,
        default=FRAME_BUDGET_MS,
        help="per-frame deadline for SLO evaluation (default 33.33 ms = 30 fps)",
    )
    bench_run.add_argument(
        "--slo-target",
        type=float,
        default=DEFAULT_SLO_TARGET,
        help="error-budget miss-rate target (default %(default)s)",
    )
    _add_list_flag(bench_run)
    bench_run.set_defaults(func=_cmd_bench_run)

    bench_compare = bench_sub.add_parser(
        "compare", help="diff two BENCH artifacts; non-zero exit on regression"
    )
    bench_compare.add_argument("old", help="baseline BENCH json")
    bench_compare.add_argument("new", help="candidate BENCH json")
    bench_compare.add_argument(
        "--threshold-scale",
        type=float,
        default=1.0,
        help="scale every per-metric threshold (loose CI gates use > 1)",
    )
    bench_compare.set_defaults(func=_cmd_bench_compare)

    bench_trend = bench_sub.add_parser(
        "trend", help="fold results/BENCH_*.json into the trend report"
    )
    bench_trend.add_argument("--results-dir", default="results")
    bench_trend.add_argument(
        "--out", default=None, help="report path (default <results-dir>/README.md)"
    )
    bench_trend.set_defaults(func=_cmd_bench_trend)

    why_parser = subparsers.add_parser(
        "why",
        help="explain deadline misses: per-frame critical-path waterfalls"
        " and a ranked miss-cause table for a bench suite",
    )
    why_parser.add_argument(
        "suite",
        nargs="?",
        default="fleet",
        help=f"suite to analyze ({', '.join(sorted(SUITES))})",
    )
    why_parser.add_argument(
        "--scenario", default=None, help="restrict to one suite cell"
    )
    why_parser.add_argument(
        "--session", type=int, default=None, help="show only this session's misses"
    )
    why_parser.add_argument(
        "--frame", type=int, default=None, help="show only this frame's miss"
    )
    why_parser.add_argument(
        "--label", default="dev", help="report label (WHY_<suite>_<label>.md)"
    )
    why_parser.add_argument(
        "--out",
        default=None,
        help="also write WHY_<suite>_<label>.md into this directory",
    )
    why_parser.add_argument(
        "--budget-ms",
        type=float,
        default=FRAME_BUDGET_MS,
        help="per-frame deadline for miss attribution (default 33.33 ms = 30 fps)",
    )
    _add_list_flag(why_parser)
    why_parser.set_defaults(func=_cmd_why)

    list_parser = subparsers.add_parser("list", help="list available names")
    list_parser.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        # Unknown suite/scenario/fault names and missing artifact paths
        # are user errors: one clear line on stderr, not a traceback.
        if isinstance(exc, OSError):
            message = f"{exc.strerror}: {exc.filename}"
        else:
            message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
