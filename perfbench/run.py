"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bag_graph_grid --seed 7 --seconds 12 --trace 0

The program under test is imported from ``src/`` of the same checkout.
Set-up is repeated ``SETUP_REPS`` times and reported as its median;
passes then repeat on fresh pipelines until ``--seconds`` would be
exceeded (at least one pass). With ``--trace 0`` the passes run
unmodified and the end-to-end metrics are reported. With ``--trace 1``
untraced and traced passes alternate, the per-layer metrics come from
the traced passes' spans, the traced/untraced wall ratio is reported as
``obs.trace_overhead_ratio``, and the spans are written to
``.perfbench/traces/`` when the run ends.

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_unit_median(passes, field: str) -> dict[str, float]:
    """Each unit's median time over the passes that measured it.

    Every pass repeats the same units on the same inputs, so what
    differs between passes is the machine; the median discards a pass
    caught in a slow spell as well as one whose calibration overshot.
    """
    times: dict[str, list[float]] = {}
    for result in passes:
        for key, seconds in getattr(result, field).items():
            times.setdefault(key, []).append(seconds)
    return {key: statistics.median(values) for key, values in times.items()}


def end_to_end_metrics(setup_times, plain, peak_mib: float) -> dict[str, tuple[float, str]]:
    """The gated metrics: (value, unit) by name, times in reference s."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_unit_median(plain, "segments").values()), "s"),
        "ttime_s": (sum(per_unit_median(plain, "ttime").values()), "s"),
        "etime_s": (sum(per_unit_median(plain, "etime").values()), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }


def run_passes(workload, setup, seconds: float, trace: bool, recorder):
    """Closed loop of passes; returns (untraced results, traced results)."""
    from spans import instrumented

    plain, traced = [], []
    started = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            recorder.represented.clear()
            with instrumented(recorder):
                traced.append(workload.run_pass(setup))
        else:
            plain.append(workload.run_pass(setup))
        elapsed = time.perf_counter() - started
        done = len(plain) + len(traced)
        need_traced = trace and not traced
        if not need_traced and elapsed + elapsed / done > seconds:
            return plain, traced


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    import oracle

    oracle.pin_hash_seed(sys.argv)
    sys.path.insert(0, str(ROOT / "src"))

    from spans import SpanRecorder, instrumented, layer_metrics
    from speed import Meter
    from workloads import WORKLOADS, stream_parity

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    recorder = SpanRecorder()

    setup_times = []
    meter = Meter()
    for _ in range(SETUP_REPS):
        setup = None  # release the previous set-up before timing the next
        with meter.segment() as segment:
            if trace:
                with instrumented(recorder):
                    setup = workload.setup(args.seed)
            else:
                setup = workload.setup(args.seed)
        setup_times.append(segment.scale(segment.raw))
    first_pass_span = len(recorder)

    plain, traced = run_passes(workload, setup, args.seconds, trace, recorder)
    peak = peak_rss_mib()
    passes = plain + traced

    # -- correctness ---------------------------------------------------------
    expected, tolerance = oracle.load_reference(workload.name, args.seed)
    problems: list[str] = []
    failed = 0
    for result in passes:
        cell_problems = list(result.failures)
        if expected is not None:
            cell_problems += oracle.check_outputs(result.outputs, expected, tolerance)
        else:
            cell_problems += oracle.check_outputs(result.outputs, passes[0].outputs, {})
        cell_problems += oracle.check_range(result.outputs)
        failed += len({line.split(": ", 1)[0] for line in cell_problems})
        problems += cell_problems
    if workload.name == "profile_stream":
        parity = stream_parity(setup)
        failed += len(parity)
        problems += parity
    attempted = sum(result.attempted for result in passes)
    failed = min(failed, attempted)

    # -- report ---------------------------------------------------------------
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}; users {len(setup.users)} {list(setup.users)}; "
          f"passes {len(plain)} untraced + {len(traced)} traced")
    reference = (
        f"reference MAPs for seed {args.seed} (tolerances {tolerance})"
        if expected is not None
        else f"no stored reference for seed {args.seed}: passes checked against pass 1"
    )
    print("pass wall_s (reference s / raw s): "
          + " ".join(f"{r.wall_s:.3f}/{r.raw_wall_s:.3f}" for r in plain)
          + (" | traced: " + " ".join(f"{r.wall_s:.3f}/{r.raw_wall_s:.3f}" for r in traced)
             if traced else ""))
    print(f"oracle: {reference}; attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.4f}")
    for line in problems[:20]:
        print(f"  FAIL {line}")

    model_times: dict[str, list[float]] = {}
    for result in passes:
        for model, (t, e, n) in result.model_times.items():
            acc = model_times.setdefault(model, [0.0, 0.0, 0])
            acc[0] += t
            acc[1] += e
            acc[2] += n
    for name, state, detail in oracle.fig7_checks(model_times):
        print(f"fig7 {name}: {state} ({detail})")

    end_to_end = end_to_end_metrics(setup_times, plain, peak)
    stream = workload.name == "profile_stream"
    # Percentiles are over every timed call of the untraced passes.
    updates = [t for result in plain for t in result.ttime.values()] if stream else []
    reranks = [t for result in plain for t in result.etime.values()] if stream else []
    extra = {
        "update_p50_us": (oracle.percentile(updates, 0.50), 1e6, "us", len(updates)),
        "update_p99_us": (oracle.percentile(updates, 0.99), 1e6, "us", len(updates)),
        "rerank_p50_ms": (oracle.percentile(reranks, 0.50), 1e3, "ms", len(reranks)),
        "rerank_p90_ms": (oracle.percentile(reranks, 0.90), 1e3, "ms", len(reranks)),
    }
    for name, (value, unit) in end_to_end.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, scale, unit, n) in extra.items():
        if value is not None:
            print(f"metric {name} = {value * scale:.6g} {unit} (n={n})")
        elif n:
            print(f"metric {name} = not emitted: {n} samples leave < 10 beyond it")
    print(f"metric failed_frac = {failed / attempted:.4g} ratio")

    if trace:
        overhead = (
            sum(per_unit_median(traced, "segments").values()) / end_to_end["wall_s"][0] - 1.0
        )
        metrics = layer_metrics(recorder, first_pass_span, len(traced), overhead)
        trace_path = OUT_DIR / "traces" / f"{workload.name}-seed{args.seed}.json"
        recorder.write(trace_path, workload.name, args.seed)
        print(f"trace: {len(recorder)} spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
