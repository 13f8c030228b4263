"""Command-line surface: identification, evaluation sweeps, benchmarks, and
the meta-learning demonstration.

Conventions shared by every subcommand: primary results (JSON or CSV) go to
standard output unless ``--out`` names a file, diagnostics go to standard
error, and exit codes are 0 for success, 2 for input or configuration
errors, 3 for an internal invariant violation.  Every command that consumes
randomness takes an explicit ``--seed`` and is byte-reproducible from it;
wall-clock readings never appear in seeded outputs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .alignment import identify_tala_nw
from .maml import CONFIG_FIELDS, DivergenceError, MamlConfig, meta_test_adapt, meta_train, paired_few_shot_eval
from .ratio import identify_tala_ratio
from .seqio import out_of_vocabulary, read_stroke_tokens
from .simulate import MAX_PERFORMANCE_STROKES, NoiseSpec, PerformanceSpec, corrupt, generate_performance
from .surrogate import SurrogateModel
from .talas import TokenTable, builtin_talas, get_tala
from .tasks import MAX_ARRAY_VALUES, SyntheticTaskConfig, synth_task_source, take_tasks

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Tala x grid points of one eval run: the grid and its per-point tallies
# then stay within tens of MB.
MAX_EVAL_POINTS = 10**5

EVAL_HEADER = "tala,p_sub,p_del,p_ins,method,accuracy,mean_score"
BENCH_HEADER = "method,input_len,mean_us,p95_us"
CURVE_HEADER = "epoch,mean_query_loss"
TRACE_HEADER = "step,support_loss,query_loss"

_IDENTIFIERS = {"nw": identify_tala_nw, "ratio": identify_tala_ratio}


class InputError(Exception):
    """User-correctable problem: bad file, bad flag value, bad config."""


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"--out: {e}") from e


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        _write(Path(out), text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- identify ----------------------------------------------------------------


def cmd_identify(args: argparse.Namespace) -> int:
    try:
        tokens = read_stroke_tokens(args.file)
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(str(e)) from e
    if not tokens:
        raise InputError("empty sequence")
    if len(tokens) > MAX_PERFORMANCE_STROKES:
        raise InputError(f"{len(tokens)} tokens exceed {MAX_PERFORMANCE_STROKES}")
    # One token table serves the warning and both methods; the first
    # document's elapsed time counts its build.
    start = time.perf_counter_ns()
    table = TokenTable.of(tokens)
    build_ns = time.perf_counter_ns() - start
    oov = out_of_vocabulary(table.tokens)
    if oov:
        print(f"warning: {len(oov)} out-of-vocabulary token(s): {', '.join(oov)}", file=sys.stderr)

    methods = ("nw", "ratio") if args.method == "both" else (args.method,)
    documents = []
    for method in methods:
        start = time.perf_counter_ns()
        result = _IDENTIFIERS[method](table, gharana_equiv=args.gharana_equiv)
        elapsed_us = (time.perf_counter_ns() - start + build_ns) // 1000
        build_ns = 0
        documents.append(
            {
                "input": args.file,
                "method": result.method,
                "ranking": [s.to_dict() for s in result.ranking],
                "elapsed_us": int(elapsed_us),
                "flags": list(result.flags),
            }
        )
    payload = documents[0] if len(documents) == 1 else documents
    sys.stdout.write(_json_dumps(payload))
    return EXIT_OK


# --- eval --------------------------------------------------------------------


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError as e:
        raise InputError(f"{flag}: {e}") from e
    if not values:
        raise InputError(f"{flag}: no values given")
    return values


def _parse_tala_list(text: str) -> list[str]:
    """Canonical names of the comma-separated talas, display names allowed;
    naming one tala twice is an input error."""
    if text == "all":
        return [t.name for t in builtin_talas()]
    names = []
    for n in filter(None, map(str.strip, text.split(","))):
        try:
            name = get_tala(n).name
        except KeyError as e:
            raise InputError(str(e.args[0])) from e
        if name in names:
            raise InputError(f"--talas: {name} is named twice")
        names.append(name)
    if not names:
        raise InputError("--talas: no names given")
    return names


def _outcome(names: tuple[str, ...], tala: str) -> list[tuple[bool, float]]:
    """Per identifier, from one token table of ``names``: whether ``tala``
    ranks first, and its normalised score."""
    table = TokenTable.of(names)
    outcome = []
    for identify in _IDENTIFIERS.values():
        result = identify(table)
        outcome.append((result.best.tala == tala, next(s.normalized for s in result.ranking if s.tala == tala)))
    return outcome


def cmd_eval(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    talas = _parse_tala_list(args.talas)
    p_subs = _parse_float_list(args.p_sub, "--p-sub")
    p_dels = _parse_float_list(args.p_del, "--p-del")
    p_inss = _parse_float_list(args.p_ins, "--p-ins")
    points = len(talas) * len(p_subs) * len(p_dels) * len(p_inss)
    if points > MAX_EVAL_POINTS:
        raise InputError(f"--talas x --p-sub x --p-del x --p-ins give {points} grid points, which exceed {MAX_EVAL_POINTS}")
    # Every spec is checked before the first performance is rendered; a trial's
    # offset and noise seed are always valid, so offset 0 and seed 0 stand in.
    try:
        for name in talas:
            PerformanceSpec(tala=name, cycles=args.cycles)
        grid = list(itertools.product(p_subs, p_dels, p_inss))
        for p_sub, p_del, p_ins in grid:
            NoiseSpec(p_sub=p_sub, p_del=p_del, p_ins=p_ins)
    except ValueError as e:
        raise InputError(str(e)) from e

    lines = [EVAL_HEADER]
    for ti, name in enumerate(talas):
        hits = [dict.fromkeys(_IDENTIFIERS, 0) for _ in grid]
        score_sum = [dict.fromkeys(_IDENTIFIERS, 0.0) for _ in grid]
        # A clean rendering depends only on its start offset, so its outcome
        # is kept per offset: at most matra_count entries, and no names.
        clean_outcomes: dict[int, list[tuple[bool, float]]] = {}
        # Each trial's world (start offset, corruption seed) is drawn once and
        # scored at every grid point, so the grid replays the same coin flips
        # on the same performance; only one world is held at a time.  A grid
        # point whose extra coins fire nothing renders the previous point's
        # names, and reuses its outcome.
        for trial in range(args.trials):
            rng = np.random.default_rng(np.random.SeedSequence([args.seed, ti, trial]))
            offset = int(rng.integers(0, get_tala(name).matra_count))
            noise_seed = int(rng.integers(0, 2**63))
            spec = PerformanceSpec(tala=name, cycles=args.cycles, start_offset=offset)
            clean = generate_performance(spec)
            prev_names = outcome = None
            for g, (p_sub, p_del, p_ins) in enumerate(grid):
                noisy = corrupt(clean, NoiseSpec(p_sub=p_sub, p_del=p_del, p_ins=p_ins, seed=noise_seed))
                if len(noisy) == 0:
                    continue
                if noisy.names != prev_names:
                    prev_names = noisy.names
                    if noisy.names != clean.names:
                        outcome = _outcome(noisy.names, name)
                    elif offset in clean_outcomes:
                        outcome = clean_outcomes[offset]
                    else:
                        outcome = clean_outcomes[offset] = _outcome(clean.names, name)
                for method, (hit, score) in zip(_IDENTIFIERS, outcome):
                    hits[g][method] += hit
                    score_sum[g][method] += score
        for g, (p_sub, p_del, p_ins) in enumerate(grid):
            for method in _IDENTIFIERS:
                acc = hits[g][method] / args.trials
                mean_score = score_sum[g][method] / args.trials
                lines.append(
                    f"{name},{p_sub:g},{p_del:g},{p_ins:g},{method},{acc:.4f},{mean_score:.6f}"
                )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- bench -------------------------------------------------------------------


def _bench_input(length: int) -> tuple[str, ...]:
    tala = get_tala("Tintal")
    cycles = max(1, -(-length // tala.matra_count))
    seq = generate_performance(PerformanceSpec(tala="Tintal", cycles=cycles))
    return seq.names[:length]


def cmd_bench(args: argparse.Namespace) -> int:
    if args.length_strokes < 1:
        raise InputError("--length-strokes must be at least 1")
    if args.repeats < 0:
        raise InputError("--repeats must be non-negative")
    if args.warmup < 0:
        raise InputError("--warmup must be non-negative")
    if args.repeats > MAX_ARRAY_VALUES:
        raise InputError(f"--repeats must not exceed {MAX_ARRAY_VALUES}")
    try:
        names = _bench_input(args.length_strokes)
    except ValueError as e:
        raise InputError(f"--length-strokes: {e}") from e
    lines = [BENCH_HEADER]
    if args.repeats > 0:
        for method, identify in _IDENTIFIERS.items():
            for _ in range(min(args.warmup, args.repeats)):
                identify(names)
            samples = np.empty(args.repeats)
            for k in range(args.repeats):
                start = time.perf_counter_ns()
                identify(names)
                samples[k] = (time.perf_counter_ns() - start) / 1000.0
            lines.append(
                f"{method},{len(names)},{samples.mean():.3f},{np.percentile(samples, 95):.3f}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- maml-demo ----------------------------------------------------------------


def _load_maml_config(args: argparse.Namespace) -> MamlConfig:
    values: dict = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as e:  # also bad UTF-8, deep nesting, 4,300+ digits
            raise InputError(f"--config: {e}") from e
        if not isinstance(raw, dict):
            raise InputError("--config: expected a JSON object of config fields")
        unknown = set(raw) - set(CONFIG_FIELDS)
        if unknown:
            raise InputError(f"--config: unknown fields {sorted(unknown)}")
        values.update(raw)
    overrides = {name: getattr(args, name) for name in CONFIG_FIELDS}
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return MamlConfig(**values)
    except (TypeError, ValueError) as e:
        raise InputError(f"invalid config: {e}") from e


def step_values(hidden: int, n_classes: int, frames: int) -> int:
    """Values of 8 B one inner step holds, per task of an order-2 meta-batch
    and per arm of a paired test task: whole heads, every frame's hidden
    activations twice, and 150 for the step's Python objects."""
    head = hidden * (hidden + n_classes + 1) + n_classes
    return head + 2 * frames * hidden + 150


def cmd_maml_demo(args: argparse.Namespace) -> int:
    cfg = _load_maml_config(args)
    if args.n_test_tasks < 1:
        raise InputError("--n-test-tasks must be at least 1")
    if args.hidden < 1:
        raise InputError("--hidden must be at least 1")
    try:
        task_cfg = SyntheticTaskConfig(
            n_features=args.features,
            support_size=args.support,
            query_size=args.query,
            seed=cfg.seed,
        )
    except ValueError as e:
        raise InputError(f"invalid task config: {e}") from e
    if args.hidden * max(args.features, args.hidden, args.support + args.query) > MAX_ARRAY_VALUES:
        raise InputError(f"--hidden x max(--features, --hidden, --support + --query) exceeds {MAX_ARRAY_VALUES} values")
    # The test tasks, and each meta-batch, are drawn into one list.
    tasks = max(args.n_test_tasks, cfg.tasks_per_batch)
    if tasks * (args.support + args.query) * max(args.features, args.hidden) > MAX_ARRAY_VALUES:
        raise InputError(f"max(--n-test-tasks, tasks_per_batch) x (--support + --query) x max(--features, --hidden) exceeds {MAX_ARRAY_VALUES} values")
    n_classes = task_cfg.task_classes(task_cfg.stroke_classes)
    step = step_values(args.hidden, n_classes, args.support + args.query)
    if cfg.inner_steps * cfg.tasks_per_batch * step > MAX_ARRAY_VALUES:
        raise InputError(f"inner_steps x tasks_per_batch x step values exceeds {MAX_ARRAY_VALUES} values (a step is {step} values)")
    if (cfg.adapt_iters * cfg.inner_steps + 1) * 2 * step > MAX_ARRAY_VALUES:
        raise InputError(f"(adapt_iters x inner_steps + 1) x 2 x step values exceeds {MAX_ARRAY_VALUES} values (a step is {step} values)")

    model = SurrogateModel.create(
        n_features=task_cfg.n_features,
        hidden=args.hidden,
        n_classes=n_classes,
        rng=np.random.default_rng(np.random.SeedSequence([cfg.seed, 99])),
    )

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"--out: {e}") from e

    source = synth_task_source(task_cfg)
    try:
        # Adaptation checks every step for overflow, so numpy need not warn.
        with np.errstate(all="ignore"):
            train = meta_train(model, source, cfg)
            test_tasks = take_tasks(source, args.n_test_tasks)
            comparison = paired_few_shot_eval(model, test_tasks, cfg, baseline_seed=cfg.seed)
            trace = meta_test_adapt(model, test_tasks[0], cfg).trace
    except DivergenceError as e:
        raise InputError(f"{e}; lower --alpha or --beta") from e

    curve_lines = [CURVE_HEADER] + [f"{e},{loss:.6f}" for e, loss in train.curve]
    _write(out_dir / "train_curve.csv", "\n".join(curve_lines) + "\n")
    trace_lines = [TRACE_HEADER] + [f"{s},{sup:.6f},{q:.6f}" for s, sup, q in trace]
    _write(out_dir / "adapt_trace.csv", "\n".join(trace_lines) + "\n")

    summary = {
        "config": asdict(cfg),
        "task_config": {
            "n_features": task_cfg.n_features,
            "n_classes": n_classes,
            "support_size": task_cfg.support_size,
            "query_size": task_cfg.query_size,
        },
        "n_test_tasks": comparison.n_tasks,
        "wins": comparison.wins,
        "win_rate": round(comparison.win_rate, 6),
        "mean_meta_loss": round(comparison.mean_meta_loss, 6),
        "mean_random_loss": round(comparison.mean_random_loss, 6),
        "mean_meta_accuracy": round(
            float(np.mean([o.meta_accuracy for o in comparison.outcomes])), 6
        ),
        "mean_random_accuracy": round(
            float(np.mean([o.random_accuracy for o in comparison.outcomes])), 6
        ),
        "final_train_loss": round(train.curve[-1][1], 6) if train.curve else None,
    }
    sys.stdout.write(_json_dumps(summary))
    return EXIT_OK


# --- parser -------------------------------------------------------------------

# Commands are looked up by name at call time, so the cached parser never
# pins a command function.
_COMMANDS = {
    "identify": cmd_identify,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "maml-demo": cmd_maml_demo,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taalkit",
        description="Tabla stroke sequence analysis: tala identification, "
        "noise sweeps, benchmarks, and a few-shot meta-learning demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="rank talas for a stroke sequence file")
    p.add_argument("file", help="stroke token text file ('#' lines are comments)")
    p.add_argument("--method", choices=("nw", "ratio", "both"), default="both")
    p.add_argument(
        "--gharana-equiv",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="map gharana stroke variants to canonical names before scoring",
    )

    p = sub.add_parser("eval", help="noise-grid accuracy sweep, CSV output")
    p.add_argument("--talas", default="all", help="comma-separated tala names, or 'all'")
    p.add_argument("--cycles", type=int, default=2)
    p.add_argument("--p-sub", default="0", help="comma-separated substitution probabilities")
    p.add_argument("--p-del", default="0", help="comma-separated deletion probabilities")
    p.add_argument("--p-ins", default="0", help="comma-separated insertion probabilities")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")

    p = sub.add_parser("bench", help="identification latency benchmark, CSV output")
    p.add_argument("--length-strokes", type=int, default=240)
    p.add_argument("--repeats", type=int, default=1000)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")

    p = sub.add_parser("maml-demo", help="meta-train on synthetic tasks and report win-rate")
    p.add_argument("--config", default=None, help="flat JSON file of config fields")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--inner-steps", type=int, default=None, metavar="N")
    p.add_argument("--epochs", type=int, default=None, metavar="E")
    p.add_argument("--adapt-iters", type=int, default=None, metavar="E1")
    p.add_argument("--tasks-per-batch", type=int, default=None)
    p.add_argument("--order", type=int, choices=(1, 2), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--support", type=int, default=32, metavar="S")
    p.add_argument("--query", type=int, default=8, metavar="Q")
    p.add_argument("--features", type=int, default=20)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--n-test-tasks", type=int, default=50)
    p.add_argument("--out", default=".", help="directory for curve and trace CSVs")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # noqa: BLE001 - surface as invariant violation
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
