"""The four workloads.

Each builds its inputs from the seed (untimed), then runs identical rounds of
operations through taalkit's public functions or ``taalkit.cli.main``.  Every
operation is checked, and its output must equal the output of the same
operation in the first round; the first round's outputs form the digest.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from common import Ops, Samples, samples_beyond
from tracing import patch_everywhere

perf_counter = time.perf_counter


def _tk(module: str):
    """A taalkit module, looked up at call time so traced wrappers are seen."""
    return importlib.import_module(f"taalkit.{module}")


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, seed: int, workdir, ops: Ops):
        self.seed = seed
        self.workdir = workdir
        self.ops = ops
        self.tracer = None
        self.first: dict[str, object] = {}
        self.properties: dict[str, object] = {}

    def next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.next_op()

    def settle(self, key: str, output, problem: str | None, n: int = 1) -> None:
        """Count ``n`` operations; their output must repeat the first round's."""
        if problem is None:
            if key not in self.first:
                self.first[key] = output
            elif self.first[key] != output:
                problem = f"{key}: output differs from the first round"
        self.ops.record(n, problem)

    def warm_up(self) -> None:
        """Untimed: fill caches and gather input properties."""

    def run_round(self, samples: Samples) -> None:
        raise NotImplementedError

    def metrics(self, s: Samples) -> dict[str, tuple[float, str]]:
        """The issue-level end-to-end metrics of this workload."""
        raise NotImplementedError

    def main_side(self, s: Samples) -> tuple[float, float]:
        """The two throughputs gated in BENCHMARK.json, in items/s."""
        raise NotImplementedError

    def tail_samples(self, s: Samples) -> dict[str, tuple[int, int]]:
        """Sample count, and samples beyond it, of each tail percentile."""
        return {}


def _run_cli(argv: list[str]) -> tuple[int | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    cli = _tk("cli")
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # noqa: BLE001 - an exception is a failed operation
            code = None
            err.write(f"{type(e).__name__}: {e}")
        secs = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), secs


def _canonical_ids(names, tala) -> np.ndarray:
    table: dict[str, int] = {}
    eq = tala.gharana_equivalents
    return np.array([table.setdefault(eq.get(n, n), len(table)) for n in names], dtype=np.int64)


def window_counts(sequences, talas) -> tuple[int, int]:
    """Distinct and total m-stroke windows over every (input, tala) pair.

    This is the share of NW work that deduplicating windows would keep.
    Inputs shorter than a cycle count as one window.
    """
    distinct = total = 0
    for names in sequences:
        for tala in talas:
            ids = _canonical_ids(names, tala)
            if len(ids) < tala.matra_count:
                distinct, total = distinct + 1, total + 1
                continue
            windows = np.lib.stride_tricks.sliding_window_view(ids, tala.matra_count)
            distinct += len(np.unique(windows, axis=0))
            total += len(windows)
    return distinct, total


def is_clean(names, talas) -> bool:
    """True when ``names`` is a contiguous run of some tala's repeated theka."""
    for tala in talas:
        theka = tala.theka_names
        m = len(theka)
        for off in range(m):
            if all(n == theka[(off + i) % m] for i, n in enumerate(names)):
                return True
    return False


def _share(distinct: int, total: int) -> float:
    return distinct / total if total else 0.0


# --- identify-long -----------------------------------------------------------

LENGTHS = (240, 960, 3840)
NOISE = {"p_sub": 0.1, "p_del": 0.1, "p_ins": 0.05}
# A ratio call costs about a hundredth of an NW call; repeating it gives the
# ratio path enough measured time in a run to be steady.
RATIO_REPEATS = 10


@dataclass(frozen=True)
class StrokeFile:
    key: str
    path: str
    tala: str
    clean: bool
    names: tuple[str, ...]


class IdentifyLong(Workload):
    """``taalkit identify FILE --method nw|ratio`` on long stroke files.

    A round covers the six files of one tala, NW first, then ratio; rounds
    cycle through the talas, so every path is sampled across the whole run.
    """

    name = "identify-long"
    min_rounds = 4

    def __init__(self, seed, workdir, ops):
        super().__init__(seed, workdir, ops)
        simulate, talas = _tk("simulate"), _tk("talas")
        self.talas = talas.builtin_talas()
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.files: list[StrokeFile] = []
        self.rounds = 0
        for tala in self.talas:
            for length in LENGTHS:
                # Twice the length, so that the noisy rendering can be cut to
                # the same length as the clean one: every seed then has the
                # same input sizes, and so the same allocation sizes.
                spec = simulate.PerformanceSpec(
                    tala=tala.name,
                    cycles=-(-2 * length // tala.matra_count),
                    start_offset=int(rng.integers(tala.matra_count)),
                    gharana_variant=bool(rng.integers(2)),
                )
                perf = simulate.generate_performance(spec)
                clean = perf.names[:length]
                noise = simulate.NoiseSpec(**NOISE, seed=int(rng.integers(2**63)))
                noisy = simulate.corrupt(perf, noise).names[:length]
                for kind, names in (("clean", clean), ("noisy", noisy)):
                    key = f"{tala.name}-{length}-{kind}"
                    path = workdir / f"{key}.txt"
                    path.write_text(
                        "".join(" ".join(names[i:i + 8]) + "\n" for i in range(0, len(names), 8)),
                        encoding="utf-8",
                    )
                    self.files.append(StrokeFile(key, str(path), tala.name, kind == "clean", tuple(names)))
        for kind in ("clean", "noisy"):
            seqs = [f.names for f in self.files if f.clean == (kind == "clean")]
            d, t = window_counts(seqs, self.talas)
            self.properties[f"distinct_window_share.{kind}"] = _share(d, t)
            self.properties[f"windows.{kind}"] = f"{d} distinct of {t}"
            self.properties[f"strokes.{kind}"] = sorted(len(s) for s in seqs)

    def warm_up(self):
        smallest = min(self.files, key=lambda f: len(f.names))
        for method in ("nw", "ratio"):
            _run_cli(["identify", smallest.path, "--method", method])

    def identify(self, f: StrokeFile, method: str) -> tuple[dict | None, str | None, float]:
        code, out, err, secs = _run_cli(["identify", f.path, "--method", method])
        if code != 0:
            return None, f"identify {f.key} --method {method}: exit {code}: {err.strip()[:200]}", secs
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as e:
            return None, f"identify {f.key} --method {method}: bad JSON: {e}", secs
        ranking = doc.get("ranking", [])
        ranked = sorted(r.get("tala") for r in ranking)
        problem = None
        if doc.get("method") != method:
            problem = f"method {doc.get('method')!r}, expected {method!r}"
        elif ranked != sorted(t.name for t in self.talas):
            problem = f"ranking covers {ranked}"
        elif not all(math.isfinite(r["score"]) and math.isfinite(r["normalized"]) for r in ranking):
            problem = "non-finite score"
        elif f.clean and ranking[0]["tala"] != f.tala:
            problem = f"clean {f.tala} input ranked {ranking[0]['tala']} first"
        if problem:
            return None, f"identify {f.key} --method {method}: {problem}", secs
        return {"ranking": ranking, "flags": doc.get("flags")}, None, secs

    def run_round(self, samples):
        tala = self.talas[self.rounds % len(self.talas)].name
        self.rounds += 1
        files = [f for f in self.files if f.tala == tala]
        for method, repeats in (("nw", 1), ("ratio", RATIO_REPEATS)):
            for f in files:
                for _ in range(repeats):
                    self.next_op()
                    output, problem, secs = self.identify(f, method)
                    path = method if method == "ratio" else f"nw_{'clean' if f.clean else 'noisy'}"
                    samples.add(path, len(f.names), secs)
                    self.settle(f"{f.key}/{method}", output, problem)

    def metrics(self, s):
        return {
            "nw_clean_strokes_per_s": (s.rate("nw_clean"), "strokes/s"),
            "nw_noisy_strokes_per_s": (s.rate("nw_noisy"), "strokes/s"),
            "ratio_strokes_per_s": (s.rate("ratio"), "strokes/s"),
        }

    def main_side(self, s):
        return s.rate("nw_clean", "nw_noisy"), s.rate("ratio")


# --- eval-short --------------------------------------------------------------

GRID = {"--p-sub": "0,0.1", "--p-del": "0,0.1,0.3", "--p-ins": "0,0.05"}
GRID_TRIALS = 10
CLEAN_TRIALS = 60


class EvalShort(Workload):
    """``taalkit eval`` over a noise grid, and at the zero-noise point alone."""

    name = "eval-short"
    min_rounds = 2

    def __init__(self, seed, workdir, ops):
        super().__init__(seed, workdir, ops)
        self.talas = _tk("talas").builtin_talas()
        common = ["eval", "--talas", "all", "--cycles", "2", "--seed", str(seed)]
        grid = [a for kv in GRID.items() for a in kv]
        points = math.prod(len(v.split(",")) for v in GRID.values())
        self.calls = {
            "grid": (common + grid + ["--trials", str(GRID_TRIALS)], points, GRID_TRIALS),
            "clean": (common + ["--trials", str(CLEAN_TRIALS)], 1, CLEAN_TRIALS),
        }

    def warm_up(self):
        """One untimed pass, recording every sequence the NW identifier sees."""
        seen: list[tuple[str, ...]] = []
        alignment = _tk("alignment")
        original = alignment.identify_tala_nw

        def capture(site):
            def recording(transcribed, *args, **kwargs):
                seen.append(tuple(transcribed))
                return original(transcribed, *args, **kwargs)

            return recording

        restore = patch_everywhere(original, capture)
        try:
            for argv, _, _ in self.calls.values():
                _run_cli(argv)
        finally:
            restore()
        clean = [is_clean(s, self.talas) for s in seen]
        for kind, want in (("clean", True), ("noisy", False)):
            seqs = [s for s, c in zip(seen, clean) if c == want]
            d, t = window_counts(seqs, self.talas)
            self.properties[f"distinct_window_share.{kind}"] = _share(d, t)
            self.properties[f"windows.{kind}"] = f"{d} distinct of {t}"
            self.properties[f"inputs.{kind}"] = len(seqs)
        if seen:
            self.properties["strokes.min_max"] = [min(map(len, seen)), max(map(len, seen))]

    def eval_call(self, kind: str) -> tuple[str | None, str | None, int, float]:
        argv, points, trials = self.calls[kind]
        code, out, err, secs = _run_cli(argv)
        n_trials = len(self.talas) * points * trials
        if code != 0:
            return None, f"eval {kind}: exit {code}: {err.strip()[:200]}", n_trials, secs
        lines = out.splitlines()
        expected_rows = len(self.talas) * points * 2
        if len(lines) != expected_rows + 1:
            return None, f"eval {kind}: {len(lines) - 1} rows, expected {expected_rows}", n_trials, secs
        for row in lines[1:]:
            try:
                tala, p_sub, p_del, p_ins, method, acc, score = row.split(",")
                noise, acc = float(p_sub) + float(p_del) + float(p_ins), float(acc)
                ok = 0.0 <= acc <= 1.0 and math.isfinite(float(score))
            except ValueError:
                ok = False
            if not ok:
                return None, f"eval {kind}: bad row {row!r}", n_trials, secs
            if noise == 0.0 and acc != 1.0:
                return None, f"eval {kind}: accuracy {acc} at zero noise ({tala}, {method})", n_trials, secs
        return out, None, n_trials, secs

    def run_round(self, samples):
        for kind in self.calls:
            self.next_op()
            output, problem, n_trials, secs = self.eval_call(kind)
            samples.add(kind, n_trials, secs)
            self.settle(f"eval/{kind}", output, problem)

    def metrics(self, s):
        return {
            "eval_trials_per_s": (s.rate("grid"), "trials/s"),
            "eval_clean_trials_per_s": (s.rate("clean"), "trials/s"),
        }

    def main_side(self, s):
        return s.rate("grid"), s.rate("clean")


# --- maml-train --------------------------------------------------------------

N_FEATURES, HIDDEN, STROKE_CLASSES = 20, 32, 6
SUPPORT, QUERY = 32, 8
EPOCHS_PER_ROUND = 10
PAIRED_PER_ROUND = 5


def surrogate_model(seed: int):
    """A fresh model, seeded as ``taalkit maml-demo`` seeds it."""
    return _tk("surrogate").SurrogateModel.create(
        n_features=N_FEATURES, hidden=HIDDEN, n_classes=STROKE_CLASSES + 1,
        rng=np.random.default_rng(np.random.SeedSequence([seed, 99])),
    )


class StampedSource:
    """Task stream that timestamps each draw, so epochs can be timed from
    outside ``meta_train``: an epoch starts when its first task is drawn."""

    def __init__(self, it):
        self.it = it
        self.stamps: list[float] = []

    def __iter__(self):
        return self

    def __next__(self):
        self.stamps.append(perf_counter())
        return next(self.it)


class MamlTrain(Workload):
    """Meta-train at order 2 and at order 1, then paired few-shot evaluation,
    on the ``maml-demo`` task configuration.

    Rounds are short so that each path is sampled across the whole run;
    twenty rounds give the 200 epochs per order and 100 paired tasks that
    the p95 and p90 need for ten samples beyond them.
    """

    name = "maml-train"
    min_rounds = 20

    def __init__(self, seed, workdir, ops):
        super().__init__(seed, workdir, ops)
        self.task_cfg = _tk("tasks").SyntheticTaskConfig(
            n_features=N_FEATURES, support_size=SUPPORT, query_size=QUERY, seed=seed
        )
        self.properties.update(
            features=N_FEATURES, hidden=HIDDEN, classes=self.task_cfg.task_classes(STROKE_CLASSES), support=SUPPORT,
            query=QUERY, tasks_per_batch=_tk("maml").MamlConfig().tasks_per_batch,
            epochs_per_order_per_round=EPOCHS_PER_ROUND, paired_tasks_per_round=PAIRED_PER_ROUND,
        )

    def model(self):
        return surrogate_model(self.seed)

    def cfg(self, order: int, epochs: int = EPOCHS_PER_ROUND):
        return _tk("maml").MamlConfig(epochs=epochs, order=order, seed=self.seed)

    def warm_up(self):
        maml, tasks = _tk("maml"), _tk("tasks")
        for order in (2, 1):
            model = self.model()
            source = tasks.synth_task_source(self.task_cfg)
            maml.meta_train(model, source, self.cfg(order, epochs=3))
        maml.paired_few_shot_eval(model, tasks.take_tasks(source, 1), self.cfg(1), baseline_seed=self.seed)

    def train(self, order: int, samples: Samples):
        self.next_op()
        model = self.model()
        source = StampedSource(_tk("tasks").synth_task_source(self.task_cfg))
        cfg = self.cfg(order)
        try:
            result = _tk("maml").meta_train(model, source, cfg)
        except Exception as e:  # noqa: BLE001 - DivergenceError and any other fault
            self.settle(f"train/o{order}", None, f"meta_train order {order}: {type(e).__name__}: {e}", cfg.epochs)
            return None, None
        end = perf_counter()
        starts = source.stamps[:: cfg.tasks_per_batch][: cfg.epochs]
        for a, b in zip(starts, starts[1:] + [end]):
            samples.add(f"o{order}", 1, b - a)
        losses = [loss for _, loss in result.curve]
        problem = None
        if len(losses) != cfg.epochs or not all(math.isfinite(v) for v in losses):
            problem = f"meta_train order {order}: curve of {len(losses)} epochs, or non-finite loss"
        self.settle(f"train/o{order}", [f"{v:.6f}" for v in losses], problem, cfg.epochs)
        return model, source

    def run_round(self, samples):
        model, source = self.train(2, samples)
        self.train(1, samples)
        if model is None:
            self.ops.record(PAIRED_PER_ROUND, "paired evaluation skipped: order-2 training failed")
            return
        cfg = self.cfg(2)
        maml, tasks = _tk("maml"), _tk("tasks")
        for task in tasks.take_tasks(source, PAIRED_PER_ROUND):
            self.next_op()
            start = perf_counter()
            try:
                o = maml.paired_few_shot_eval(model, [task], cfg, baseline_seed=self.seed).outcomes[0]
                values, problem = [o.meta_loss, o.random_loss, o.meta_accuracy, o.random_accuracy], None
            except Exception as e:  # noqa: BLE001
                values, problem = [], f"paired task {task.task_id}: {type(e).__name__}: {e}"
            samples.add("adapt", 1, perf_counter() - start)
            if not all(math.isfinite(v) for v in values) or not all(0 <= v <= 1 for v in values[2:]):
                problem = f"paired task {task.task_id}: bad outcome {values}"
            self.settle(f"paired/{task.task_id}", [f"{v:.6f}" for v in values], problem)

    def metrics(self, s):
        return {
            "o2_epoch_ms.p50": (s.percentile_ms("o2", 50), "ms"),
            "o2_epoch_ms.p95": (s.percentile_ms("o2", 95), "ms"),
            "o1_epoch_ms.p50": (s.percentile_ms("o1", 50), "ms"),
            "o1_epoch_ms.p95": (s.percentile_ms("o1", 95), "ms"),
            "adapt_task_ms.p50": (s.percentile_ms("adapt", 50), "ms"),
            "adapt_task_ms.p90": (s.percentile_ms("adapt", 90), "ms"),
        }

    def tail_samples(self, s):
        return {
            "o2_epoch_ms.p95": (s.count("o2"), samples_beyond(s.count("o2"), 95)),
            "o1_epoch_ms.p95": (s.count("o1"), samples_beyond(s.count("o1"), 95)),
            "adapt_task_ms.p90": (s.count("adapt"), samples_beyond(s.count("adapt"), 90)),
        }

    def main_side(self, s):
        return s.rate("o2"), s.rate("adapt")


# --- onsets-long -------------------------------------------------------------

HOP = 0.010
LEAD_S = 0.5
# (seconds, tempo in bpm) of each tala's recordings.  Sizes are fixed, and
# the seed draws only their content, so every seed does the same work:
# onset_f1 costs O(n_ref * n_est) per class, so a drawn tempo would move
# the F1 rate from seed to seed.
LONG_S, SHORT_S = 600.0, 30.0
RECORDINGS = ((LONG_S, 240.0), (SHORT_S, 180.0), (SHORT_S, 220.0), (SHORT_S, 260.0), (SHORT_S, 300.0))
P_FLIP1, P_FLIP2 = 0.02, 0.002
COLLAR = 0.050
COLLAR_SLACK = 1e-9


def greedy_matches(ref_times, est_times, collar: float = COLLAR) -> int:
    """Maximum collar matching of two onset lists by a sorted two-pointer walk.

    Each reference's neighbourhood is an interval whose ends move
    monotonically with it, so greedy left-to-right pairing is optimal.
    Uses the same inclusive collar and 1 ns slack as ``taalkit.postproc``.
    """
    r, e = sorted(ref_times), sorted(est_times)
    i = j = n = 0
    while i < len(r) and j < len(e):
        if abs(r[i] - e[j]) <= collar + COLLAR_SLACK:
            n, i, j = n + 1, i + 1, j + 1
        elif r[i] < e[j]:
            i += 1
        else:
            j += 1
    return n


def render_recording(tala, seconds: float, tempo: float, rng, ids: dict, no_stroke: int, stroke_ids: np.ndarray):
    """Frame labels, envelope and reference onsets for one seeded performance.

    Each stroke holds its label until the next onset, under an envelope that
    decays at a random rate, so slow strokes ring into their successor and
    fast ones leave a quiet tail.  Then single frames and frame pairs are
    flipped to random strokes.
    """
    simulate, postproc = _tk("simulate"), _tk("postproc")
    beat = 60.0 / tempo
    spec = simulate.PerformanceSpec(
        tala=tala.name, cycles=max(1, round(seconds / (beat * tala.matra_count))),
        tempo_bpm=tempo, start_offset=int(rng.integers(tala.matra_count)),
    )
    perf = simulate.generate_performance(spec)
    times = LEAD_S + np.asarray(perf.onset_times)
    n_frames = int(math.ceil((times[-1] + 1.0) / HOP))
    starts = np.round(times / HOP).astype(np.int64)
    ends = np.append(starts[1:], n_frames - int(0.5 / HOP))
    labels = np.full(n_frames, no_stroke, dtype=np.int64)
    env = np.zeros(n_frames)
    decay = rng.uniform(6.0, 40.0, size=len(starts))
    amp = rng.uniform(0.5, 1.0, size=len(starts))
    for i, (a, b) in enumerate(zip(starts, ends)):
        labels[a:b] = ids[perf.names[i]]
        env[a:b] = amp[i] * np.exp(-decay[i] * HOP * np.arange(b - a))
    flip = rng.random(n_frames) < P_FLIP1
    labels[flip] = rng.choice(stroke_ids, size=int(flip.sum()))
    pair = np.flatnonzero(rng.random(n_frames - 1) < P_FLIP2)
    labels[pair] = labels[pair + 1] = rng.choice(stroke_ids, size=len(pair))
    reference = postproc.OnsetAnnotation(tuple(zip(times.tolist(), perf.names)))
    return tuple(labels.tolist()), env, reference


@dataclass(frozen=True)
class Recording:
    key: str
    long: bool
    labels: tuple[int, ...]
    envelope: np.ndarray
    reference: object  # taalkit.postproc.OnsetAnnotation


class OnsetsLong(Workload):
    """Frame labels to onsets to CSV to collar F1, on short and long recordings."""

    name = "onsets-long"
    min_rounds = 2

    def __init__(self, seed, workdir, ops):
        super().__init__(seed, workdir, ops)
        talas = _tk("talas")
        names = sorted({n for t in talas.builtin_talas() for n in t.theka_names})
        self.vocab = talas.make_vocabulary(names, include_no_stroke=True)
        ids = {s.name: s.id for s in self.vocab}
        ns = ids[talas.NO_STROKE]
        stroke_ids = np.array([ids[n] for n in names])
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        self.recordings: list[Recording] = []
        for tala in talas.builtin_talas():
            for k, (seconds, tempo) in enumerate(RECORDINGS):
                kind = "long" if seconds == LONG_S else "short"
                labels, env, reference = render_recording(tala, seconds, tempo, rng, ids, ns, stroke_ids)
                self.recordings.append(Recording(f"{tala.name}-{kind}-{k}", kind == "long", labels, env, reference))
        self.csv_path = str(workdir / "onsets.csv")
        for kind in ("short", "long"):
            recs = [r for r in self.recordings if r.long == (kind == "long")]
            self.properties[f"recordings.{kind}"] = len(recs)
            self.properties[f"frames.{kind}"] = sum(len(r.labels) for r in recs)
            self.properties[f"ref_events.{kind}"] = sum(len(r.reference) for r in recs)

    def warm_up(self):
        rec = min(self.recordings, key=lambda r: len(r.labels))
        self.process(rec)

    def process(self, rec: Recording):
        postproc = _tk("postproc")
        start = perf_counter()
        frames = postproc.FrameLabelSequence(rec.labels, HOP, self.vocab)
        frames = postproc.smooth_labels(frames)
        frames = postproc.label_no_stroke(frames, rec.envelope)
        estimate = postproc.onsets_from_frames(frames)
        mid = perf_counter()
        postproc.write_onsets_csv(estimate, self.csv_path)
        back = postproc.read_onsets_csv(self.csv_path)
        result = postproc.onset_f1(rec.reference, back)
        end = perf_counter()
        return estimate, back, result, mid - start, end - mid

    def run_round(self, samples):
        est_counts: dict[str, dict[str, list[int]]] = {"short": {}, "long": {}}
        for rec in self.recordings:
            self.next_op()
            try:
                estimate, back, result, t_frames, t_f1 = self.process(rec)
            except Exception as e:  # noqa: BLE001
                self.settle(rec.key, None, f"{rec.key}: {type(e).__name__}: {e}")
                continue
            samples.add("frames_long" if rec.long else "frames_short", len(rec.labels), t_frames)
            samples.add("f1_long" if rec.long else "f1_short", len(rec.reference), t_f1)
            problem = None
            rounded = tuple((float(f"{t:.6f}"), lab) for t, lab in estimate.events)
            if back.events != rounded:
                problem = f"{rec.key}: CSV round trip changed the events"
            for cls, score in result.per_class.items():
                ref_t = [t for t, lab in rec.reference.events if lab == cls]
                est_t = [t for t, lab in back.events if lab == cls]
                if (score.n_ref, score.n_est) != (len(ref_t), len(est_t)):
                    problem = f"{rec.key}/{cls}: event counts {score.n_ref}/{score.n_est}"
                elif score.n_match != greedy_matches(ref_t, est_t):
                    problem = f"{rec.key}/{cls}: n_match {score.n_match} != greedy {greedy_matches(ref_t, est_t)}"
                counts = est_counts["long" if rec.long else "short"].setdefault(cls, [0, 0])
                counts[0] += score.n_ref
                counts[1] += score.n_est
            output = {
                "per_class": {
                    c: [s.n_ref, s.n_est, s.n_match, f"{s.precision:.6f}", f"{s.recall:.6f}", f"{s.f1:.6f}"]
                    for c, s in sorted(result.per_class.items())
                },
                "f1": f"{result.f1:.6f}",
                "weighted_f1": f"{result.weighted_f1:.6f}",
            }
            self.settle(rec.key, output, problem)
        for kind, per_class in est_counts.items():
            self.properties[f"class_events.{kind} (ref, est)"] = {c: tuple(v) for c, v in sorted(per_class.items())}

    def metrics(self, s):
        return {
            "postproc_frames_per_s": (s.rate("frames_short", "frames_long"), "frames/s"),
            "f1_events_per_s": (s.rate("f1_short", "f1_long"), "events/s"),
            "postproc_frames_per_s.short": (s.rate("frames_short"), "frames/s"),
            "postproc_frames_per_s.long": (s.rate("frames_long"), "frames/s"),
            "f1_events_per_s.short": (s.rate("f1_short"), "events/s"),
            "f1_events_per_s.long": (s.rate("f1_long"), "events/s"),
        }

    def main_side(self, s):
        return s.rate("frames_short", "frames_long"), s.rate("f1_short", "f1_long")


WORKLOADS = {w.name: w for w in (IdentifyLong, EvalShort, MamlTrain, OnsetsLong)}


def setup_state(workload: str) -> None:
    """Once-per-process program state, built by each set-up probe."""
    if workload in ("identify-long", "eval-short"):
        _tk("cli").build_parser()
    elif workload == "maml-train":
        surrogate_model(0)
    elif workload == "onsets-long":
        talas = _tk("talas")
        talas.make_vocabulary(sorted({n for t in talas.builtin_talas() for n in t.theka_names}), include_no_stroke=True)
