"""taalkit benchmark: run one workload in this process, or every workload in turn.

    python3 perfbench/run.py --workload identify-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Report lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are the per-layer metrics of the traced run.  The exit code
is 0 only when every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time

SETUP_PROBES = 7
WORKLOAD_NAMES = ("identify-long", "eval-short", "maml-train", "onsets-long")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and args.probe is None:
        p.error("--workload is required")
    return args


def probe(workload: str) -> None:
    """Set-up probe: import taalkit, build per-process state, print the clock."""
    from common import import_taalkit

    import_taalkit()
    from workloads import setup_state

    setup_state(workload)
    print(time.monotonic_ns())


def measure_setup(workload: str) -> list[float]:
    """Process start to ready, for several fresh interpreters, one at a time.

    CLOCK_MONOTONIC is shared by every process, so the child's ready time
    minus the parent's spawn time is the set-up a user of the CLI waits for.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", workload],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: set-up probe failed with exit {done.returncode}")
        times.append((int(done.stdout.split()[-1]) - start) / 1e9)
    return times


def measure(workload, seconds: float):
    """Repeat identical rounds for about ``seconds`` (at least ``min_rounds``)."""
    from common import Samples

    samples = Samples()
    rounds = 0
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.run_round(samples)
        rounds += 1
        now = time.perf_counter()
        if rounds >= workload.min_rounds and (now - begin) + (now - t0) > seconds:
            return samples, rounds, now - begin


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    from common import OUT, Ops, canonical, digest, environment, median, peak_rss_mb

    setup_times = measure_setup(args.workload)
    import workloads
    from tracing import PER_LAYER, Tracer

    workloads.setup_state(args.workload)
    ops = Ops()
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, ops)
        wl.warm_up()
        gc.collect()
        # End-to-end numbers always come from an untraced phase; a traced
        # run splits its time between an untraced and a traced phase.
        samples, rounds, elapsed = measure(wl, args.seconds / 2 if args.trace else args.seconds)
        rss = peak_rss_mb()
        if args.trace:
            tracer = Tracer(args.workload)
            wl.tracer = tracer
            tracer.install()
            try:
                traced, traced_rounds, traced_s = measure(wl, args.seconds / 2)
            finally:
                tracer.uninstall()
                wl.tracer = None
            for problem in tracer.coverage_problems():
                ops.problem(problem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    main, side = wl.main_side(samples)
    issue_metrics = {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "failed_op_share": (ops.failed / max(ops.attempted, 1), "ratio"),
        **wl.metrics(samples),
    }
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"env {canonical(environment())}",
        f"measured {rounds} rounds in {elapsed:.3f} s untraced"
        + (f", {traced_rounds} rounds in {traced_s:.3f} s traced" if tracer else ""),
        f"setup probes {[round(t, 4) for t in setup_times]} s",
    ]
    lines += [f"input {key} {value}" for key, value in wl.properties.items()]
    lines += [f"metric {key} {fmt(value)} {unit}" for key, (value, unit) in issue_metrics.items()]
    lines += [f"samples {key} n={n} beyond={beyond}" for key, (n, beyond) in wl.tail_samples(samples).items()]
    lines += [f"metric main_per_s {fmt(main)} 1/s", f"metric side_per_s {fmt(side)} 1/s"]
    lines.append(f"digest {args.workload} {digest(wl.first)}")

    if tracer:
        traced_main, traced_side = wl.main_side(traced)
        overhead = {"main": main / traced_main - 1.0, "side": side / traced_side - 1.0}
        traced_metrics = wl.metrics(traced)
        for key, (untraced, unit) in wl.metrics(samples).items():
            value = traced_metrics[key][0]
            lines.append(f"overhead {key} untraced={fmt(untraced)} traced={fmt(value)} "
                         f"traced-untraced={fmt(value - untraced)} {unit}")
        for stage, secs in sorted(tracer.summary()["stage_self_s"].items()):
            lines.append(f"stage {stage} self_s {fmt(secs)}")
        lines += [f"site {site} calls={n}" for site, n in sorted(tracer.site_calls.items())]
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        lines.append(f"spans {len(tracer.spans)} written to {spans_path.relative_to(OUT.parent.parent)}")
        values = tracer.per_layer(wl.properties, overhead)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
        lines += [f"layer {key} {fmt(m['value'])} {m['unit']}" for key, m in metrics.items()]
    else:
        gated = {"setup_s": issue_metrics["setup_s"], "peak_rss_mb": issue_metrics["peak_rss_mb"],
                 "main_per_s": (main, "1/s"), "side_per_s": (side, "1/s")}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}

    correct = ops.failed == 0
    lines.append("check ok" if correct else "check FAILED")
    lines.extend(f"failure {p}" for p in ops.problems)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process, then one combined result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False,
        )
        out = done.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        try:
            result = json.loads(out[-1])
        except (json.JSONDecodeError, IndexError):
            print(f"perfbench: {name} printed no result (exit {done.returncode})", file=sys.stderr)
            correct = False
            continue
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    from common import import_taalkit

    import_taalkit()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
