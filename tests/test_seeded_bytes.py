"""Seeded outputs pinned to their bytes, so a change that moves any draw shows.

Neither digest hashes a float that BLAS or ``exp`` rounding could move, so
both hold across machines: the eval grid's scores are integer alignment
scores and cosines of small integer counts, whose dot products are exact,
and the task stream's labels are integers.
"""

import hashlib

from taalkit.cli import main
from taalkit.tasks import SyntheticTaskConfig, synth_task_source, take_tasks


def test_eval_grid_csv_is_pinned(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["eval", "--talas", "all", "--cycles", "2", "--p-sub", "0,0.1", "--p-del", "0,0.1,0.3",
            "--p-ins", "0,0.05", "--trials", "10", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == "75e58588386064551b63ad8bc9f6a51d"


def test_task_stream_labels_are_pinned():
    h = hashlib.sha256()
    for task in take_tasks(synth_task_source(SyntheticTaskConfig(seed=7)), 8):
        h.update(task.support_y.tobytes())
        h.update(task.query_y.tobytes())
        h.update(str(task.n_classes).encode())
    assert h.hexdigest() == "e1b7b8d6cb024450deec7b0a56d887fcce5bb21f88b2a78930fd21838dc74002"
