"""Seeded outputs pinned to their bytes, so a change that moves any draw shows.

No digest hashes a float that BLAS or ``exp`` rounding could move, so each
holds across machines: the eval grid's scores are integer alignment scores
and cosines of small integer counts, whose dot products are exact, the NW
block maxima are integers and their means are exact, the task stream's
labels are integers, and the frame pipeline's onset times are integers
times the hop, scored by integer counts.
"""

import hashlib
import io
import json
import math

import numpy as np

from taalkit.alignment import sliding_match_score
from taalkit.cli import main
from taalkit.postproc import (
    FrameLabelSequence,
    label_no_stroke,
    onset_f1,
    onsets_from_frames,
    read_onsets_csv,
    smooth_labels,
    write_onsets_csv,
)
from taalkit.simulate import NoiseSpec, PerformanceSpec, corrupt, generate_performance
from taalkit.talas import builtin_talas, make_vocabulary
from taalkit.tasks import SyntheticTaskConfig, synth_task_source, take_tasks


# The eval-short grid call at seed 7, less its --out.
EVAL_GRID_ARGV = ["eval", "--talas", "all", "--cycles", "2", "--p-sub", "0,0.1", "--p-del", "0,0.1,0.3",
                  "--p-ins", "0,0.05", "--trials", "10", "--seed", "7"]


def test_eval_grid_csv_is_pinned(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(EVAL_GRID_ARGV + ["--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == "75e58588386064551b63ad8bc9f6a51d"


def test_task_stream_labels_are_pinned():
    h = hashlib.sha256()
    for task in take_tasks(synth_task_source(SyntheticTaskConfig(seed=7)), 8):
        h.update(task.support_y.tobytes())
        h.update(task.query_y.tobytes())
        h.update(str(task.n_classes).encode())
    assert h.hexdigest() == "e1b7b8d6cb024450deec7b0a56d887fcce5bb21f88b2a78930fd21838dc74002"


def nw_pin_calls():
    """The NW pin's 64 calls as (source, kind, names, candidate, gharana_equiv):
    3,840 strokes of every built-in tala, clean and noisy, against every
    built-in tala with and without the gharana map."""
    for source in builtin_talas():
        m = source.matra_count
        perf = generate_performance(
            PerformanceSpec(source.name, cycles=math.ceil(7680 / m), start_offset=3 % m, gharana_variant=True)
        )
        noisy = corrupt(perf, NoiseSpec(p_sub=0.1, p_del=0.1, p_ins=0.05, seed=7))
        for kind, seq in (("clean", perf), ("noisy", noisy)):
            names = seq.names[:3840]
            assert len(names) == 3840
            for candidate in builtin_talas():
                for gharana_equiv in (True, False):
                    yield source, kind, names, candidate, gharana_equiv


def test_nw_scores_at_identify_long_scale_are_pinned():
    rows = []
    for source, kind, names, candidate, gharana_equiv in nw_pin_calls():
        r = sliding_match_score(names, candidate, gharana_equiv=gharana_equiv)
        rows.append([source.name, kind, candidate.name, gharana_equiv, r.sigma_nw,
                     list(r.block_maxima), r.short_input])
    assert len(rows) == 64
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "36e0262a64051b99f2b7d495b16129d1d462ded827ec0ba95e119b0bc990916a"


def frame_pipeline():
    """The frame pipeline's onset CSV and onset F1 against the clean frames.

    200 strokes of 25 frames at a 10 ms hop: 3 % of the frames flip to a
    random label, and each stroke's envelope falls linearly from 100 at its
    own integer rate, so no digest input goes through exp.
    """
    names = sorted({n for t in builtin_talas() for n in t.theka_names})
    assert len(names) == 11
    vocab = make_vocabulary(names, include_no_stroke=True)
    rng = np.random.default_rng(7)
    clean = np.repeat(rng.integers(0, len(names), 200), 25)
    rate = np.repeat(rng.integers(3, 13, 200), 25)
    envelope = np.maximum(0.0, 100.0 - rate * np.tile(np.arange(25), 200))
    labels = clean.copy()
    flipped = rng.random(len(labels)) < 0.03
    labels[flipped] = rng.integers(0, len(vocab), int(flipped.sum()))

    frames = FrameLabelSequence(labels, 0.010, vocab)
    estimate = onsets_from_frames(label_no_stroke(smooth_labels(frames), envelope))
    buf = io.StringIO()
    write_onsets_csv(estimate, buf)
    back = read_onsets_csv(io.StringIO(buf.getvalue()))
    return buf.getvalue(), onset_f1(onsets_from_frames(FrameLabelSequence(clean, 0.010, vocab)), back)


def test_frame_pipeline_is_pinned():
    csv_text, result = frame_pipeline()
    h = hashlib.sha256(csv_text.encode())
    counts = [[c, s.n_ref, s.n_est, s.n_match] for c, s in result.per_class.items()]
    h.update(json.dumps(counts).encode())
    h.update(f"{result.f1:.6f}".encode())
    assert h.hexdigest() == "cfe00790c812383eab70fdd0cc5266f2e7badd6264dc23e0374b9b3def8b6314"
