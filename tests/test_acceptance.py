"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Every test computes a verdict, records one summary line via
``record_acceptance`` (echoed in the terminal summary), and asserts it.
Oracles are independent re-derivations rather than second copies of the
shipped algorithms: alignment scores come from enumerating monotone
matchings as bitmasks (no dynamic programming), onset F1 from a memoized
maximum-matching search, and meta-gradients from central finite
differences of the unrolled objective.
"""

import functools
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import record_acceptance
from gradcheck import central_difference, flatten_params, param_shapes, unflatten_params
from taalkit.alignment import (
    batch_nw_scores,
    identify_tala_nw,
    lcs_baseline_score,
    nw_score,
)
from taalkit.maml import MamlConfig, meta_gradients, query_objective
from taalkit.postproc import OnsetAnnotation, onset_f1
from taalkit.ratio import identify_tala_ratio
from taalkit.simulate import PerformanceSpec, generate_performance
from taalkit.surrogate import SurrogateModel
from taalkit.talas import builtin_talas
from taalkit.tasks import SyntheticTaskConfig, synth_task_source, take_tasks

CLI = [sys.executable, "-m", "taalkit.cli"]
# The CLI runs from this checkout's src/ whether or not PYTHONPATH is set.
SRC = str(Path(__file__).resolve().parent.parent / "src")
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def _run_cli(args):
    return subprocess.run(CLI + args, capture_output=True, timeout=600, env=CLI_ENV)


def _failures(*procs) -> list[str]:
    """``exit N: <last stderr line>`` for each CLI run that failed."""
    out = []
    for proc in procs:
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            out.append(f"exit {proc.returncode}: {lines[-1] if lines else '(no stderr)'}")
    return out


# --- 1. clean identification exhaustiveness --------------------------------


def test_criterion_1_clean_identification():
    start = time.perf_counter()
    checks = 0
    failures = []
    for tala in builtin_talas():
        for cycles in (2, 3):
            for offset in range(tala.matra_count):
                perf = generate_performance(
                    PerformanceSpec(tala=tala.name, cycles=cycles, start_offset=offset)
                )
                for fn in (identify_tala_nw, identify_tala_ratio):
                    checks += 1
                    result = fn(perf)
                    if result.best.tala != tala.name:
                        failures.append((tala.name, cycles, offset, result.method))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    assert record_acceptance(
        ok,
        1,
        "clean identification: every tala/offset/cycle-count ranks true tala "
        "first with both methods, < 10 s",
        f"{checks} checks (45 offsets x 2 cycle counts x 2 methods), "
        f"{len(failures)} failures, {elapsed:.2f} s",
    )


# --- 2. DP oracle equivalence ----------------------------------------------


def _monotone_matchings(a: int, b: int) -> list[tuple[int, int]]:
    """All strictly monotone sets of aligned (i, j) pairs for an a x b grid.

    Each matching is returned as ``(bitmask, size)`` with bit ``i*b + j``
    set when positions ``x[i]`` and ``y[j]`` are aligned.  Every global
    alignment corresponds to exactly one such matching (the unaligned
    positions are gaps), so maximizing over matchings enumerates all
    alignments without any DP recurrence.
    """
    out: list[tuple[int, int]] = []

    def rec(min_i: int, min_j: int, mask: int, size: int) -> None:
        out.append((mask, size))
        for i in range(min_i, a):
            for j in range(min_j, b):
                rec(i + 1, j + 1, mask | 1 << (i * b + j), size + 1)

    rec(0, 0, 0, 0)
    return out


def test_criterion_2_alignment_oracle():
    alphabet = ("x", "y", "z")
    start = time.perf_counter()
    pair_total = 0
    class_total = 0
    batch_ok = True
    scalar_ok = True
    for a in range(1, 7):
        X = np.array(list(itertools.product(range(3), repeat=a)), dtype=np.int64)
        x_seqs = [tuple(alphabet[t] for t in row) for row in X]
        for b in range(1, 7):
            Y = np.array(list(itertools.product(range(3), repeat=b)), dtype=np.int64)
            y_seqs = [tuple(alphabet[t] for t in row) for row in Y]

            # Match matrix of every pair, packed into one uint64 per pair.
            eq = (X[:, None, :, None] == Y[None, :, None, :]).reshape(-1, a * b)
            masks = np.zeros(eq.shape[0], dtype=np.uint64)
            for k in range(a * b):
                masks |= eq[:, k].astype(np.uint64) << np.uint64(k)

            # Oracle: an alignment whose matching K has n = |M & K| matches
            # scores n - (|K| - n) - 2*(a - |K|) - 2*(b - |K|)
            #       = 2*|M & K| + 3*|K| - 2*(a + b).
            nw_oracle = np.full(masks.shape[0], -2 * (a + b), dtype=np.int64)
            lcs_oracle = np.zeros(masks.shape[0], dtype=np.int64)
            for kmask, ksize in _monotone_matchings(a, b):
                if ksize == 0:
                    continue
                inter = np.bitwise_count(masks & np.uint64(kmask)).astype(np.int64)
                np.maximum(nw_oracle, 2 * inter + 3 * ksize - 2 * (a + b), out=nw_oracle)
                np.maximum(lcs_oracle, inter, out=lcs_oracle)

            # Library, every pair in one batched call.
            lib_nw = batch_nw_scores(X, Y).ravel()
            batch_ok = batch_ok and np.array_equal(lib_nw, nw_oracle)
            pair_total += masks.shape[0]

            # Scalar nw_score / lcs_baseline_score on one representative of
            # every distinct match matrix: both functions consume sequences
            # only through positionwise equality, and every remaining pair
            # shares its match matrix with a verified representative (and
            # had its batch result checked above).
            _, first = np.unique(masks, return_index=True)
            for flat in first:
                i, j = divmod(int(flat), len(y_seqs))
                xs, ys = x_seqs[i], y_seqs[j]
                scalar_ok = scalar_ok and nw_score(xs, ys) == int(nw_oracle[flat])
                scalar_ok = scalar_ok and lcs_baseline_score(xs, ys) == int(
                    lcs_oracle[flat]
                )
                class_total += 1
    elapsed = time.perf_counter() - start
    ok = batch_ok and scalar_ok
    assert record_acceptance(
        ok,
        2,
        "alignment scores equal brute-force enumeration over all monotone "
        "matchings (all pairs, lengths 1-6, 3 symbols)",
        f"{pair_total} pairs batch-checked for NW; scalar NW+LCS on all "
        f"{class_total} distinct match matrices; {elapsed:.1f} s",
    )


# --- 3. timing ordering -----------------------------------------------------


def _mean_latency(fn, arg, repeats: int, warmup: int = 10) -> float:
    for _ in range(warmup):
        fn(arg)
    total = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(arg)
        total += time.perf_counter() - t0
    return total / repeats


def test_criterion_3_timing_ordering():
    names = generate_performance(PerformanceSpec(tala="Tintal", cycles=15)).names
    assert len(names) == 240
    repeats = 1000
    nw_mean = _mean_latency(identify_tala_nw, names, repeats)
    ratio_mean = _mean_latency(identify_tala_ratio, names, repeats)
    speedup = nw_mean / ratio_mean
    ok = ratio_mean < nw_mean and speedup >= 5.0
    assert record_acceptance(
        ok,
        3,
        "ratio method at least 5x faster than NW on 240-stroke input "
        "(1000 repeats)",
        f"NW {nw_mean * 1e6:.0f} us vs ratio {ratio_mean * 1e6:.0f} us "
        f"mean: {speedup:.1f}x",
    )


# --- 4. meta-gradient correctness -------------------------------------------


def test_criterion_4_meta_gradient_fd():
    start = time.perf_counter()
    worst = 0.0
    instances = 0
    for idx in range(20):
        model = SurrogateModel.create(4, 4, 3, np.random.default_rng(1000 + idx))
        tcfg = SyntheticTaskConfig(
            n_features=4,
            stroke_classes=3,
            bank_size=4,
            support_size=6,
            query_size=4,
            include_no_stroke=False,
            seed=idx,
        )
        tasks = take_tasks(synth_task_source(tcfg), 2)
        shapes = param_shapes(model.head)
        vec0 = flatten_params(model.head)
        for inner_steps in (1, 2, 3):
            cfg = MamlConfig(alpha=0.05, inner_steps=inner_steps, order=2)

            def objective(vec, _tasks=tasks, _cfg=cfg, _model=model):
                head = unflatten_params(vec, shapes)
                return query_objective(_model, head, _tasks, _cfg).item()

            grads, _ = meta_gradients(model, model.head, tasks, cfg)
            analytic = np.concatenate([g.data.ravel() for g in grads])
            fd = central_difference(objective, vec0, eps=1e-5)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30)
            worst = max(worst, rel)
            instances += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    assert record_acceptance(
        ok,
        4,
        "second-order meta-gradient matches central finite differences "
        "(rel err < 1e-4, N in {1,2,3}, < 60 s)",
        f"{instances} checks over 20 instances, worst rel err {worst:.2e}, "
        f"{elapsed:.1f} s",
    )


# --- 5. few-shot advantage ---------------------------------------------------


def test_criterion_5_few_shot_advantage(tmp_path):
    start = time.perf_counter()
    proc = _run_cli(["maml-demo", "--seed", "7", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 300.0
    win_rate = float("nan")
    n_tasks = 0
    if proc.returncode == 0:
        summary = json.loads(proc.stdout)
        win_rate = summary["win_rate"]
        n_tasks = summary["n_test_tasks"]
        ok = ok and n_tasks == 50 and win_rate >= 0.8
    assert record_acceptance(
        ok,
        5,
        "meta-trained init beats random init on >= 80% of 50 unseen tasks, "
        "demo < 5 min",
        "; ".join([f"win rate {win_rate:.2f} over {n_tasks} tasks, {elapsed:.0f} s", *_failures(proc)]),
    )


# --- 6. onset-evaluation oracle ----------------------------------------------


def _oracle_matching(ref_times, est_times, collar):
    est = tuple(est_times)

    @functools.lru_cache(maxsize=None)
    def go(i: int, used: int) -> int:
        if i == len(ref_times):
            return 0
        best = go(i + 1, used)
        for j, e in enumerate(est):
            if not used >> j & 1 and abs(ref_times[i] - e) <= collar + 1e-9:
                best = max(best, 1 + go(i + 1, used | 1 << j))
        return best

    return go(0, 0)


def _oracle_eval(ref_events, est_events, collar):
    classes: dict[str, None] = {}
    for _, lab in list(ref_events) + list(est_events):
        classes.setdefault(lab)
    per_match = {}
    stats = {}
    for c in classes:
        rts = tuple(t for t, lab in ref_events if lab == c)
        ets = tuple(t for t, lab in est_events if lab == c)
        n = _oracle_matching(rts, ets, collar)
        per_match[c] = n
        p = n / len(ets) if ets else 0.0
        r = n / len(rts) if rts else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        stats[c] = (p, r, f, len(rts))
    present = [stats[c] for c in classes if stats[c][3] > 0]
    if not present:
        return 0.0, 0.0, 0.0, 0.0, per_match
    precision = sum(s[0] for s in present) / len(present)
    recall = sum(s[1] for s in present) / len(present)
    f1 = sum(s[2] for s in present) / len(present)
    support = sum(s[3] for s in present)
    weighted = sum(s[2] * s[3] for s in present) / support
    return precision, recall, f1, weighted, per_match


def test_criterion_6_onset_f1_oracle():
    labels = ("Dha", "Na", "Tin")
    rng = np.random.default_rng(20260815)
    collar = 0.05
    mismatches = 0
    for _ in range(1000):
        n_ref = int(rng.integers(0, 9))
        n_est = int(rng.integers(0, 9))
        ref = sorted(
            (round(float(t), 3), labels[int(k)])
            for t, k in zip(rng.uniform(0.0, 0.4, n_ref), rng.integers(0, 3, n_ref))
        )
        est = sorted(
            (round(float(t), 3), labels[int(k)])
            for t, k in zip(rng.uniform(0.0, 0.4, n_est), rng.integers(0, 3, n_est))
        )
        result = onset_f1(
            OnsetAnnotation(tuple(ref)), OnsetAnnotation(tuple(est)), collar
        )
        p, r, f, w, per_match = _oracle_eval(ref, est, collar)
        agree = (
            abs(result.precision - p) < 1e-12
            and abs(result.recall - r) < 1e-12
            and abs(result.f1 - f) < 1e-12
            and abs(result.weighted_f1 - w) < 1e-12
            and all(result.per_class[c].n_match == n for c, n in per_match.items())
        )
        mismatches += not agree

    ref_b = OnsetAnnotation(((1.0, "Dha"),))
    inclusive = onset_f1(ref_b, OnsetAnnotation(((1.05, "Dha"),)), collar).f1 == 1.0
    exclusive = onset_f1(ref_b, OnsetAnnotation(((1.051, "Dha"),)), collar).f1 == 0.0

    ok = mismatches == 0 and inclusive and exclusive
    assert record_acceptance(
        ok,
        6,
        "onset F1 equals brute-force maximum matching (1000 random "
        "instances, <= 8 events/side); exact 50 ms boundary matches "
        "inclusively",
        f"{mismatches} mismatches; 50 ms boundary inclusive={inclusive}, "
        f"51 ms excluded={exclusive}",
    )


# --- 7. determinism -----------------------------------------------------------


def test_criterion_7_seeded_determinism(tmp_path):
    eval_args = [
        "eval", "--talas", "all", "--trials", "5",
        "--p-del", "0,0.2", "--p-sub", "0.1", "--seed", "123",
    ]
    run_a, run_b = _run_cli(eval_args), _run_cli(eval_args)
    eval_ok = (
        run_a.returncode == 0
        and run_b.returncode == 0
        and run_a.stdout == run_b.stdout
        and run_a.stdout != b""
    )

    demo_args = [
        "maml-demo", "--epochs", "5", "--n-test-tasks", "3", "--features", "6",
        "--hidden", "8", "--support", "8", "--query", "4", "--alpha", "0.05",
        "--inner-steps", "2", "--adapt-iters", "2", "--seed", "5",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_c = _run_cli(demo_args + ["--out", str(out_a)])
    run_d = _run_cli(demo_args + ["--out", str(out_b)])
    demo_ok = (
        run_c.returncode == 0
        and run_d.returncode == 0
        and run_c.stdout == run_d.stdout
        and all(
            (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for name in ("train_curve.csv", "adapt_trace.csv")
        )
    )

    ok = eval_ok and demo_ok
    assert record_acceptance(
        ok,
        7,
        "seeded commands emit byte-identical output across two runs",
        "; ".join([
            f"eval identical={eval_ok}, maml-demo identical={demo_ok} "
            "(identify/bench take no seed: they report wall-clock timings)",
            *_failures(run_a, run_b, run_c, run_d),
        ]),
    )


# --- 8. noise monotonicity -----------------------------------------------------


def test_criterion_8_noise_monotonicity():
    p_dels = (0.0, 0.05, 0.1, 0.2, 0.3)
    proc = _run_cli([
        "eval", "--talas", "all", "--trials", "500",
        "--p-del", ",".join(str(p) for p in p_dels), "--seed", "11",
    ])
    ok = proc.returncode == 0
    details = []
    if ok:
        acc: dict[str, dict[float, list[float]]] = {"nw": {}, "ratio": {}}
        lines = proc.stdout.decode().strip().splitlines()
        for row in lines[1:]:
            _, _, p_del, _, method, accuracy, _ = row.split(",")
            acc[method].setdefault(float(p_del), []).append(float(accuracy))
        for method in ("nw", "ratio"):
            series = [float(np.mean(acc[method][p])) for p in p_dels]
            violations = sum(
                series[i + 1] > series[i] + 1e-9 for i in range(len(series) - 1)
            )
            ok = ok and violations <= 1
            details.append(
                f"{method}: " + "->".join(f"{v:.3f}" for v in series)
                + f" ({violations} violations)"
            )
    assert record_acceptance(
        ok,
        8,
        "tala-averaged accuracy non-increasing in deletion noise "
        "(500 trials/point, <= 1 violation per method)",
        "; ".join(details + _failures(proc)),
    )
