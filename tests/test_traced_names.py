"""Every name the benchmark traces records a call on its workload.

``perfbench/run.py --trace 1`` fails an operation when a name in
``perfbench/tracing.py`` ``TARGETS`` records no call on the workload it
belongs to, so a refactor that stops calling, say, ``stroke_histogram`` from
``eval`` breaks the traced benchmark.  Each test here installs the tracer,
runs a tiny in-process version of one workload's calls, and asserts full
coverage.  Every taalkit function is looked up after ``install()``, so the
traced wrappers are the ones called.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

# The tracer rebinds names only in taalkit modules already imported, as the
# benchmark imports the CLI before it installs the tracer.
import taalkit.cli  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def tk(module: str):
    return importlib.import_module(f"taalkit.{module}")


def identify_long(tmp_path):
    simulate = tk("simulate")
    perf = simulate.generate_performance(simulate.PerformanceSpec(tala="Tintal", cycles=4, gharana_variant=True))
    noisy = simulate.corrupt(perf, simulate.NoiseSpec(p_sub=0.1, p_del=0.1, p_ins=0.05, seed=3))
    path = tmp_path / "noisy.txt"
    path.write_text(" ".join(noisy.names) + "\n", encoding="utf-8")
    for method in ("nw", "ratio"):
        assert tk("cli").main(["identify", str(path), "--method", method]) == 0


def eval_short(tmp_path):
    argv = ["eval", "--talas", "all", "--cycles", "2", "--seed", "1", "--trials", "1",
            "--p-sub", "0,0.1", "--p-del", "0,0.1,0.3", "--p-ins", "0,0.05", "--out", str(tmp_path / "eval.csv")]
    assert tk("cli").main(argv) == 0


def maml_train(tmp_path):
    maml, tasks = tk("maml"), tk("tasks")
    task_cfg = tasks.SyntheticTaskConfig(n_features=6, support_size=8, query_size=4, seed=1)
    model = tk("surrogate").SurrogateModel.create(
        n_features=6, hidden=8, n_classes=task_cfg.task_classes(task_cfg.stroke_classes),
        rng=np.random.default_rng(1),
    )
    source = tasks.synth_task_source(task_cfg)
    for order in (2, 1):
        maml.meta_train(model, source, maml.MamlConfig(epochs=1, order=order, seed=1))
    cfg = maml.MamlConfig(epochs=1, adapt_iters=1, seed=1)
    maml.paired_few_shot_eval(model, tasks.take_tasks(source, 1), cfg, baseline_seed=1)


def onsets_long(tmp_path):
    postproc, talas = tk("postproc"), tk("talas")
    vocab = talas.make_vocabulary(["Dha", "Na"], include_no_stroke=True)
    labels = [0] * 5 + [1] + [0] * 4 + [1] * 10 + [2] * 3
    frames = postproc.FrameLabelSequence(labels, 0.01, vocab)
    frames = postproc.smooth_labels(frames)
    frames = postproc.label_no_stroke(frames, np.exp(-0.3 * np.arange(len(labels))))
    estimate = postproc.onsets_from_frames(frames)
    path = str(tmp_path / "onsets.csv")
    postproc.write_onsets_csv(estimate, path)
    postproc.onset_f1(estimate, postproc.read_onsets_csv(path))


WORKLOADS = {
    "identify-long": identify_long,
    "eval-short": eval_short,
    "maml-train": maml_train,
    "onsets-long": onsets_long,
}


def test_every_target_belongs_to_a_workload_here():
    assert {w for t in tracing.TARGETS for w in t.workloads} == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_names_record_calls(workload, tmp_path, capsys):
    tracer = tracing.Tracer(workload)
    tracer.install()
    try:
        WORKLOADS[workload](tmp_path)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.coverage_problems() == []
