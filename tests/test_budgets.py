"""Exact work budgets: DP cells, DP chunk calls, windows aligned and onset
pairs examined, counted by wrapping the functions that do the work.

Counts are machine-independent, so a change that breaks window pruning,
deduplication or chunking fails here without a timing test.  A change that
moves a budget says so, with the old and new counts and the reason.
"""

from collections import Counter

import taalkit.alignment as alignment
import taalkit.postproc as postproc
from taalkit.alignment import sliding_match_score
from taalkit.cli import main
from test_seeded_bytes import EVAL_GRID_ARGV, frame_pipeline, nw_pin_calls


def count_dp(monkeypatch) -> Counter:
    """Count the work of every ``_nw_last_row`` call from now on."""
    work = Counter()
    original = alignment._nw_last_row

    def counted(ref_ids, win_ids):
        (R, m), (W, w) = ref_ids.shape, win_ids.shape
        work["cells"] += R * m * W * w
        work["calls"] += 1
        work["windows"] += W
        return original(ref_ids, win_ids)

    monkeypatch.setattr(alignment, "_nw_last_row", counted)
    return work


def test_nw_pin_dp_work(monkeypatch):
    work = count_dp(monkeypatch)
    for _, _, names, candidate, gharana_equiv in nw_pin_calls():
        sliding_match_score(names, candidate, gharana_equiv=gharana_equiv)
    assert work == {"cells": 36_037_784, "calls": 86, "windows": 13_721}


def test_eval_grid_dp_work(monkeypatch, tmp_path):
    work = count_dp(monkeypatch)
    assert main(EVAL_GRID_ARGV + ["--out", str(tmp_path / "grid.csv")]) == 0
    assert work == {"cells": 5_514_664, "calls": 550, "windows": 2_374}


def test_onset_pairs_examined(monkeypatch):
    # One [n_ref, n_est, pairs examined] per class that onset F1 matches.
    matchings = []
    match, collar = postproc._max_matching, postproc.within_collar

    def matching(ref_times, est_times, collar_seconds):
        matchings.append([len(ref_times), len(est_times), 0])
        return match(ref_times, est_times, collar_seconds)

    def examined(*args):
        matchings[-1][2] += 1
        return collar(*args)

    monkeypatch.setattr(postproc, "_max_matching", matching)
    monkeypatch.setattr(postproc, "within_collar", examined)
    frame_pipeline()
    assert len(matchings) == 11
    assert all(pairs <= n_ref + n_est for n_ref, n_est, pairs in matchings)
    assert sum(pairs for *_, pairs in matchings) == 192
