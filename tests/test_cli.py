"""Tests for the command-line interface (run in-process, except the
peak-memory check, which needs a process of its own)."""

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taalkit.alignment import identify_tala_nw
from taalkit.cli import (
    _IDENTIFIERS,
    BENCH_HEADER,
    CURVE_HEADER,
    EVAL_HEADER,
    TRACE_HEADER,
    build_parser,
    main,
)
from taalkit.maml import CONFIG_FIELDS
from taalkit.ratio import identify_tala_ratio
from taalkit.simulate import MAX_PERFORMANCE_STROKES, NoiseSpec, PerformanceSpec, corrupt, generate_performance
from taalkit.talas import TOKEN_ALIASES, builtin_talas, get_tala


@pytest.fixture
def ektal_file(tmp_path):
    perf = generate_performance(PerformanceSpec(tala="Ektal", cycles=2))
    path = tmp_path / "ektal.txt"
    path.write_text(" ".join(perf.names) + "\n", encoding="utf-8")
    return str(path)


class TestIdentify:
    def test_both_methods_rank_correctly(self, ektal_file, capsys):
        assert main(["identify", ektal_file]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert isinstance(docs, list) and len(docs) == 2
        assert [d["method"] for d in docs] == ["nw", "ratio"]
        for doc in docs:
            assert set(doc) == {"input", "method", "ranking", "elapsed_us", "flags"}
            assert doc["input"] == ektal_file
            assert doc["flags"] == []
            assert doc["ranking"][0]["tala"] == "Ektal"
            assert doc["ranking"][0]["normalized"] == pytest.approx(1.0)
            assert len(doc["ranking"]) == 4
            assert isinstance(doc["elapsed_us"], int)

    @pytest.mark.parametrize("flag", ["--gharana-equiv", "--no-gharana-equiv"])
    def test_both_methods_equal_the_single_method_documents(self, flag, tmp_path, capsys):
        perf = generate_performance(PerformanceSpec(tala="Tintal", cycles=6, start_offset=5, gharana_variant=True))
        noisy = corrupt(perf, NoiseSpec(p_sub=0.2, p_del=0.1, p_ins=0.1, seed=5)).names
        path = tmp_path / "noisy.txt"
        path.write_text(" ".join(noisy + ("Zzz", "Qqq", "Zzz")) + "\n", encoding="utf-8")
        documents = []
        for method in ("both", "nw", "ratio"):
            assert main(["identify", str(path), "--method", method, flag]) == 0
            captured = capsys.readouterr()
            assert "2 out-of-vocabulary token(s): Zzz, Qqq" in captured.err
            out = json.loads(captured.out)
            documents += out if method == "both" else [out]
        for doc in documents:
            assert isinstance(doc.pop("elapsed_us"), int)
        assert documents[:2] == documents[2:]

    def test_single_method_gives_single_document(self, ektal_file, capsys):
        assert main(["identify", ektal_file, "--method", "ratio"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc, dict)
        assert doc["method"] == "ratio"
        assert all("coverage" in entry for entry in doc["ranking"])

    def test_empty_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        assert main(["identify", str(path)]) == 2
        assert "empty sequence" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["identify", str(tmp_path / "nope.txt")]) == 2
        assert capsys.readouterr().err != ""

    def test_oov_warning_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "oov.txt"
        path.write_text("Dha Zzz Dhin Zzz Qqq\n", encoding="utf-8")
        assert main(["identify", str(path), "--method", "ratio"]) == 0
        captured = capsys.readouterr()
        assert "out-of-vocabulary" in captured.err
        assert "Zzz" in captured.err and "Qqq" in captured.err
        json.loads(captured.out)  # stdout still valid JSON

    def test_byte_order_mark_is_not_a_token(self, tmp_path, capsys):
        path = tmp_path / "marked.txt"
        path.write_text("Dha Dhin Dhin Dha\n", encoding="utf-8-sig")
        assert main(["identify", str(path), "--method", "ratio"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["ranking"][0]["coverage"] == 1.0

    def test_ratio_ranking_order_invariant(self, tmp_path, capsys):
        perf = generate_performance(PerformanceSpec(tala="Jhaptal", cycles=2))
        ordered = tmp_path / "ordered.txt"
        ordered.write_text(" ".join(perf.names) + "\n", encoding="utf-8")
        shuffled_names = list(perf.names)
        np.random.default_rng(0).shuffle(shuffled_names)
        shuffled = tmp_path / "shuffled.txt"
        shuffled.write_text(" ".join(shuffled_names) + "\n", encoding="utf-8")

        main(["identify", str(ordered), "--method", "ratio"])
        a = json.loads(capsys.readouterr().out)
        main(["identify", str(shuffled), "--method", "ratio"])
        b = json.loads(capsys.readouterr().out)
        assert a["ranking"] == b["ranking"]

    def test_gharana_toggle(self, tmp_path, capsys):
        variant = generate_performance(
            PerformanceSpec(tala="Tintal", cycles=2, gharana_variant=True)
        )
        path = tmp_path / "variant.txt"
        path.write_text(" ".join(variant.names) + "\n", encoding="utf-8")

        main(["identify", str(path), "--method", "nw"])
        with_equiv = json.loads(capsys.readouterr().out)
        main(["identify", str(path), "--method", "nw", "--no-gharana-equiv"])
        without = json.loads(capsys.readouterr().out)
        best = lambda doc: {e["tala"]: e for e in doc["ranking"]}["Tintal"]  # noqa: E731
        assert best(with_equiv)["normalized"] == pytest.approx(1.0)
        assert best(without)["normalized"] < 1.0


# Runs the CLI, then reports its exit code and the peak resident set size
# (VmHWM, kB) of this process alone.  ru_maxrss is no use here: Linux carries
# it across fork and exec, so a child reads at least its parent's peak.
PEAK_RSS_CHILD = """
import sys
from taalkit.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm = next(line for line in fh if line.startswith("VmHWM:"))
sys.stderr.write(f"{code} {hwm.split()[1]}\\n")
"""
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def _identify_peak_mb(path, method):
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "identify", path, "--method", method],
        capture_output=True, text=True, timeout=600, env=CHILD_ENV,
    )
    code, hwm_kb = proc.stderr.split("\n")[-2].split()
    assert code == "0", proc.stderr
    return int(hwm_kb) / 1024


def _noisy_tintal_file(directory, strokes):
    perf = generate_performance(PerformanceSpec(tala="Tintal", cycles=strokes // 16))
    noisy = corrupt(perf, NoiseSpec(p_sub=0.1, p_del=0.1, p_ins=0.1, seed=7))
    path = directory / f"tintal_{strokes}.txt"
    path.write_text(" ".join(noisy.names) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_identify_peak_memory_on_long_input(tmp_path):
    # On Linux x86-64 (Python 3.11, numpy 2.4) a 240-stroke NW child peaked
    # at about 33 MB and a 100,000-stroke one at about 58 MB with NW and
    # 39 MB with ratio; the bound is twice the larger growth.
    base = _identify_peak_mb(_noisy_tintal_file(tmp_path, 240), "nw")
    long_file = _noisy_tintal_file(tmp_path, 100_000)
    for method in ("nw", "ratio"):
        assert _identify_peak_mb(long_file, method) - base <= 48.0, method


class TestEval:
    def test_zero_noise_perfect_accuracy(self, capsys):
        rc = main(["eval", "--talas", "all", "--trials", "5", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == EVAL_HEADER
        assert len(lines) == 1 + 4 * 1 * 2  # 4 talas x 1 grid point x 2 methods
        for row in lines[1:]:
            tala, p_sub, p_del, p_ins, method, acc, mean_score = row.split(",")
            assert (p_sub, p_del, p_ins) == ("0", "0", "0")
            assert method in ("nw", "ratio")
            assert float(acc) == 1.0
            assert float(mean_score) == pytest.approx(1.0)

    def test_row_count_matches_grid(self, capsys):
        rc = main([
            "eval", "--talas", "Tintal,Rupak", "--trials", "3",
            "--p-del", "0,0.1", "--p-sub", "0,0.05,0.1", "--seed", "2",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 2 * (3 * 2 * 1) * 2  # talas x grid x methods

    def test_deterministic_output(self, capsys):
        argv = ["eval", "--talas", "Jhaptal", "--trials", "4",
                "--p-del", "0,0.2", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        rc = main(["eval", "--talas", "Rupak", "--trials", "2",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").startswith(EVAL_HEADER)

    def test_bad_tala_rejected(self, capsys):
        assert main(["eval", "--talas", "Dhamar", "--trials", "1"]) == 2
        assert "unknown tala" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "talas, rows",
        [("Rūpak", ["Rupak"]), ("Tintal,Tintal", None), ("Tintal,Tīntāl", None)],
    )
    def test_display_names_map_and_a_tala_named_twice_is_rejected(self, talas, rows, capsys):
        code = main(["eval", "--talas", talas, "--trials", "2"])
        captured = capsys.readouterr()
        if rows is None:
            assert code == 2
            assert captured.err.startswith("error: --talas: ") and captured.err.count("\n") == 1
        else:
            assert code == 0, captured.err
            lines = captured.out.splitlines()[1:]
            assert [line.split(",")[0] for line in lines] == [t for t in rows for _ in ("nw", "ratio")]

    def test_bad_probability_rejected(self, capsys):
        assert main(["eval", "--p-del", "0,zap", "--trials", "1"]) == 2
        assert main(["eval", "--p-del", "0.5,0.7", "--p-sub", "0.5", "--trials", "1"]) == 2

    def test_zero_trials_rejected(self, capsys):
        assert main(["eval", "--trials", "0"]) == 2

    def test_peak_memory_does_not_grow_with_trials(self, tmp_path):
        # Each trial's 1,600-stroke performance is scored and dropped before the
        # next is drawn.  On Linux x86-64 (Python 3.11, numpy 2.4) the traced
        # peak was 0.29 MB at 2 trials and 0.31 MB at 20; holding every trial's
        # performance took 1.5 MB at 20.
        argv = ["eval", "--talas", "Tintal", "--cycles", "100", "--out", str(tmp_path / "eval.csv")]
        assert main(argv + ["--trials", "1"]) == 0  # fills the caches first

        def peak(trials):
            tracemalloc.start()
            try:
                assert main(argv + ["--trials", str(trials)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20) < 2 * peak(2)

    @staticmethod
    def _reference_csv(talas, p_subs, p_dels, p_inss, trials, cycles, seed):
        """The eval CSV with every rendering identified by both methods, none reused."""
        lines = [EVAL_HEADER]
        grid = list(itertools.product(p_subs, p_dels, p_inss))
        methods = (("nw", identify_tala_nw), ("ratio", identify_tala_ratio))
        for ti, name in enumerate(talas):
            hits = [dict.fromkeys(("nw", "ratio"), 0) for _ in grid]
            sums = [dict.fromkeys(("nw", "ratio"), 0.0) for _ in grid]
            for trial in range(trials):
                rng = np.random.default_rng(np.random.SeedSequence([seed, ti, trial]))
                offset = int(rng.integers(0, get_tala(name).matra_count))
                noise_seed = int(rng.integers(0, 2**63))
                clean = generate_performance(PerformanceSpec(tala=name, cycles=cycles, start_offset=offset))
                for g, (p_sub, p_del, p_ins) in enumerate(grid):
                    noisy = corrupt(clean, NoiseSpec(p_sub=p_sub, p_del=p_del, p_ins=p_ins, seed=noise_seed))
                    if len(noisy) == 0:
                        continue
                    for method, identify in methods:
                        result = identify(noisy.names)
                        hits[g][method] += result.best.tala == name
                        sums[g][method] += next(s.normalized for s in result.ranking if s.tala == name)
            for g, (p_sub, p_del, p_ins) in enumerate(grid):
                for method, _ in methods:
                    lines.append(f"{name},{p_sub:g},{p_del:g},{p_ins:g},{method},"
                                 f"{hits[g][method] / trials:.4f},{sums[g][method] / trials:.6f}")
        return "\n".join(lines) + "\n"

    _ps = st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.3]), min_size=1, max_size=3)

    @given(
        talas=st.lists(st.sampled_from([t.name for t in builtin_talas()]), min_size=1, max_size=4, unique=True),
        p_subs=_ps, p_dels=_ps, p_inss=_ps,
        trials=st.integers(1, 8), cycles=st.integers(1, 3), seed=st.integers(0, 2**64),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reused_outcomes_give_the_csv_of_identifying_every_rendering(
        self, talas, p_subs, p_dels, p_inss, trials, cycles, seed, tmp_path
    ):
        # Repeated grid values make a point render the previous point's names.
        out = tmp_path / "eval.csv"
        argv = ["eval", "--talas", ",".join(talas), "--trials", str(trials), "--cycles", str(cycles),
                "--seed", str(seed), "--out", str(out)]
        for flag, ps in (("--p-sub", p_subs), ("--p-del", p_dels), ("--p-ins", p_inss)):
            argv += [flag, ",".join(map(str, ps))]
        assert main(argv) == 0
        assert out.read_text(encoding="utf-8") == self._reference_csv(talas, p_subs, p_dels, p_inss, trials, cycles, seed)

    @staticmethod
    def _identified(monkeypatch, tmp_path, argv):
        """Renderings each method identifies during ``main(argv)``."""
        calls = dict.fromkeys(_IDENTIFIERS, 0)
        for method, identify in list(_IDENTIFIERS.items()):
            def counting(names, *args, method=method, identify=identify, **kwargs):
                calls[method] += 1
                return identify(names, *args, **kwargs)

            monkeypatch.setitem(_IDENTIFIERS, method, counting)
        assert main(argv + ["--out", str(tmp_path / "eval.csv")]) == 0
        return calls

    def test_clean_renderings_are_identified_once_per_start_offset(self, monkeypatch, tmp_path):
        # Rupak has 7 matras, so 40 clean trials start at no more than 7 offsets.
        calls = self._identified(monkeypatch, tmp_path, ["eval", "--talas", "Rupak", "--trials", "40"])
        assert 1 <= calls["nw"] == calls["ratio"] <= 7

    def test_a_repeated_grid_point_is_not_identified_again(self, monkeypatch, tmp_path):
        argv = ["eval", "--talas", "Tintal", "--p-del", "0.1,0.1", "--trials", "3"]
        calls = self._identified(monkeypatch, tmp_path, argv)
        assert 1 <= calls["nw"] == calls["ratio"] <= 3


class TestBench:
    def test_zero_repeats_header_only(self, capsys):
        assert main(["bench", "--repeats", "0"]) == 0
        assert capsys.readouterr().out == BENCH_HEADER + "\n"

    def test_small_run_schema(self, capsys):
        rc = main(["bench", "--length-strokes", "32", "--repeats", "3", "--warmup", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == BENCH_HEADER
        assert len(lines) == 3
        methods = []
        for row in lines[1:]:
            method, input_len, mean_us, p95_us = row.split(",")
            methods.append(method)
            assert int(input_len) == 32
            assert float(mean_us) > 0
            assert float(p95_us) >= 0
        assert methods == ["nw", "ratio"]

    def test_bad_length_rejected(self, capsys):
        assert main(["bench", "--length-strokes", "0"]) == 2
        assert main(["bench", "--repeats", "-1"]) == 2


DEMO_ARGS = [
    "maml-demo", "--epochs", "5", "--n-test-tasks", "3", "--features", "6",
    "--hidden", "8", "--support", "8", "--query", "4", "--alpha", "0.05",
    "--inner-steps", "2", "--adapt-iters", "2", "--seed", "0",
]


class TestMamlDemo:
    def test_outputs_and_files(self, tmp_path, capsys):
        rc = main(DEMO_ARGS + ["--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["epochs"] == 5
        assert summary["config"]["alpha"] == 0.05
        assert summary["n_test_tasks"] == 3
        assert summary["task_config"]["n_classes"] == 7
        assert 0.0 <= summary["win_rate"] <= 1.0
        assert summary["wins"] == round(summary["win_rate"] * 3)

        curve = (tmp_path / "train_curve.csv").read_text(encoding="utf-8").splitlines()
        assert curve[0] == CURVE_HEADER
        assert len(curve) == 6  # header + one row per epoch
        assert curve[1].startswith("0,")

        trace = (tmp_path / "adapt_trace.csv").read_text(encoding="utf-8").splitlines()
        assert trace[0] == TRACE_HEADER
        assert len(trace) == 1 + (2 * 2 + 1)  # header + E1*N steps + step 0
        assert trace[1].startswith("0,")

    def test_byte_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(DEMO_ARGS + ["--out", str(out1)]) == 0
        stdout1 = capsys.readouterr().out
        assert main(DEMO_ARGS + ["--out", str(out2)]) == 0
        stdout2 = capsys.readouterr().out
        assert stdout1 == stdout2
        for name in ("train_curve.csv", "adapt_trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 3, "alpha": 0.5}), encoding="utf-8")
        rc = main([
            "maml-demo", "--config", str(cfg_path), "--alpha", "0.9",
            "--n-test-tasks", "2", "--features", "6", "--hidden", "8",
            "--support", "8", "--query", "4", "--adapt-iters", "1",
            "--inner-steps", "1", "--out", str(tmp_path),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["epochs"] == 3  # from file
        assert summary["config"]["alpha"] == 0.9  # flag wins

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"gamma": 1.0}), encoding="utf-8")
        assert main(["maml-demo", "--config", str(cfg_path)]) == 2
        assert "unknown fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{}", b"[" * 3000 + b"]" * 3000, b'{"alpha": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "nested-too-deep", "integer-too-long-to-parse"],
    )
    def test_unparsable_config_file_rejected(self, data, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(data)
        assert main(["maml-demo", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --config: ") and err.count("\n") == 1

    def test_invalid_value_rejected(self, tmp_path, capsys):
        assert main(DEMO_ARGS + ["--out", str(tmp_path), "--alpha", "-1"]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_bad_sizes_rejected(self, tmp_path):
        assert main(DEMO_ARGS[:1] + ["--support", "0", "--out", str(tmp_path)]) == 2
        assert main(DEMO_ARGS[:1] + ["--n-test-tasks", "0", "--out", str(tmp_path)]) == 2


class TestExitCodes:
    def test_internal_error_is_exit_3(self, ektal_file, capsys, monkeypatch):
        import taalkit.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli_module._IDENTIFIERS, "nw", boom)
        assert main(["identify", ektal_file, "--method", "nw"]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_internal_value_error_is_exit_3(self, ektal_file, capsys, monkeypatch):
        import taalkit.cli as cli_module

        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setitem(cli_module._IDENTIFIERS, "nw", boom)
        assert main(["identify", ektal_file, "--method", "nw"]) == 3
        assert "internal error: ValueError" in capsys.readouterr().err

    # Known strokes, spelling variants and separators, so that drawn files
    # also reach the identifiers, not only the reader.
    _pieces = st.sampled_from(["Dha", "Dhin", "Na", "Tin", "Ta", "Tit", "Ge", "Ke",
                               *TOKEN_ALIASES, "#", " ", "\n", "\r\n", "\t", "\x00", "\u2028"])
    _file_bytes = st.one_of(
        st.binary(max_size=200),
        st.lists(_pieces | st.text(max_size=4), max_size=60).map(lambda p: "".join(p).encode()),
        st.lists(_pieces, max_size=60).map(lambda p: " ".join(p).encode("utf-16")),
    )

    @given(data=_file_bytes)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_stroke_file_never_exits_3(self, data, tmp_path, capsys):
        path = tmp_path / "fuzz.txt"
        path.write_bytes(data)
        capsys.readouterr()
        code = main(["identify", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_non_utf8_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.txt"
        path.write_bytes("Dha Dhin Na\n".encode("utf-16"))
        assert main(["identify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_over_long_stroke_file_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # Rejected after reading, before the vocabulary check or any scoring.
        import taalkit.cli as cli_module

        def never(*args, **kwargs):
            pytest.fail("scored before the length was checked")

        for method in cli_module._IDENTIFIERS:
            monkeypatch.setitem(cli_module._IDENTIFIERS, method, never)
        monkeypatch.setattr(cli_module, "out_of_vocabulary", never)
        path = tmp_path / "long.txt"
        path.write_text("Dha " * (MAX_PERFORMANCE_STROKES + 1), encoding="utf-8")
        assert main(["identify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "exceed" in err

    # Each input names its own id, so deleting one input never renames
    # another's case; a new input takes a descriptive id.
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["eval", "--cycles", "0"], id="argv0"),
            pytest.param(["eval", "--p-sub", ","], id="argv1"),
            pytest.param(["eval", "--talas", ","], id="argv2"),
            pytest.param(["eval", "--p-ins", "nan"], id="argv3"),
            pytest.param(["eval", "--p-del", "-0.1"], id="argv4"),
            pytest.param(["eval", "--p-sub", "0.6", "--p-del", "0.5"], id="argv5"),
            pytest.param(DEMO_ARGS + ["--hidden", "0"], id="argv6"),
            pytest.param(DEMO_ARGS + ["--hidden", "-1"], id="argv7"),
            pytest.param(["eval", "--seed", "-1"], id="argv8"),
            pytest.param(DEMO_ARGS + ["--seed", "-1"], id="argv9"),
            pytest.param(DEMO_ARGS + ["--alpha", "nan"], id="argv10"),
            pytest.param(DEMO_ARGS + ["--alpha", "inf"], id="argv11"),
            pytest.param(DEMO_ARGS + ["--beta", "nan"], id="argv12"),
            pytest.param(DEMO_ARGS + ["--beta", "inf"], id="argv13"),
            # Sizes whose arrays could not be allocated.
            pytest.param(DEMO_ARGS + ["--support", str(10**12)], id="argv14"),
            pytest.param(DEMO_ARGS + ["--query", str(10**12)], id="argv15"),
            pytest.param(DEMO_ARGS + ["--features", str(10**12)], id="argv16"),
            pytest.param(DEMO_ARGS + ["--hidden", str(10**12)], id="argv17"),
            # Finite adapted parameters whose query logits overflow.
            pytest.param(DEMO_ARGS + ["--alpha=1.3732021482183925e+308", "--inner-steps=1", "--epochs=1",
                                      "--adapt-iters=1", "--tasks-per-batch=1", "--support=1", "--query=1",
                                      "--features=1", "--hidden=1", "--n-test-tasks=1"], id="argv18"),
            # The same overflow in test-time adaptation, with no meta-training.
            pytest.param(["maml-demo", "--features", "1", "--support", "1", "--query", "1", "--hidden", "1",
                          "--alpha", "1.3732021482183925e308", "--inner-steps", "1", "--adapt-iters", "1",
                          "--epochs", "0", "--n-test-tasks", "1"], id="argv19"),
            pytest.param(["bench", "--warmup", "-1"], id="bench-negative-warmup"),
        ],
    )
    def test_bad_value_is_exit_2_with_one_line(self, argv, tmp_path, capsys):
        if argv[0] == "eval":
            argv = argv + ["--trials", "1", "--out", str(tmp_path / "eval.csv")]
        elif argv[0] == "bench":
            argv = argv + ["--repeats", "1", "--length-strokes", "16", "--out", str(tmp_path / "bench.csv")]
        else:
            argv = argv + ["--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["eval", "--cycles", "100000000", "--trials", "1"],
         ["bench", "--length-strokes", "100000000", "--repeats", "0"],
         # 700,000 Rupak strokes are allowed, 1,600,000 Tintal strokes are not.
         ["eval", "--talas", "Rupak,Tintal", "--cycles", "100000", "--trials", "1"],
         ["bench", "--repeats", str(10**12), "--length-strokes", "1"],
         DEMO_ARGS + ["--n-test-tasks", str(10**12)],
         DEMO_ARGS + ["--tasks-per-batch", str(10**12)],
         # Three 1,000-value lists would ask for 10^9 grid points.
         ["eval", "--trials", "1"] + [a for f in ("--p-sub", "--p-del", "--p-ins") for a in (f, ",".join(["0"] * 1000))],
         DEMO_ARGS + ["--inner-steps", str(10**9)],
         DEMO_ARGS + ["--adapt-iters", str(10**9)],
         # Few frames, but every step holds whole heads: 810 MB of adaptation
         # and a 6 GB order-2 meta-batch.
         ["maml-demo", "--epochs", "0", "--hidden", "128", "--support", "1", "--query", "1", "--features", "1",
          "--n-test-tasks", "1", "--adapt-iters", "320"],
         ["maml-demo", "--hidden", "3000", "--support", "1", "--query", "1", "--features", "1"],
         # Tiny heads, but each step's objects: a 2.8 GB meta-batch and 1.9 GB
         # of adaptation.
         ["maml-demo", "--hidden", "1", "--features", "1", "--support", "1", "--query", "1",
          "--inner-steps", "100000", "--adapt-iters", "0", "--epochs", "1", "--n-test-tasks", "1"],
         ["maml-demo", "--hidden", "1", "--features", "1", "--support", "1", "--query", "1",
          "--epochs", "0", "--n-test-tasks", "1", "--inner-steps", "1", "--adapt-iters", "270000"]],
        ids=["eval", "bench", "eval-second-tala", "bench-repeats", "maml-demo-test-tasks",
             "maml-demo-tasks-per-batch", "eval-grid", "maml-demo-inner-steps", "maml-demo-adapt-iters",
             "maml-demo-adapt-heads", "maml-demo-meta-batch-heads", "maml-demo-meta-batch-steps",
             "maml-demo-adapt-steps"],
    )
    def test_over_long_performance_is_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        # Rejected before any stroke is rendered or task drawn, so no probe
        # allocates gigabytes.
        import taalkit.cli as cli_module

        def never(*args, **kwargs):
            pytest.fail("allocated before the size was checked")

        monkeypatch.setattr(cli_module, "generate_performance", never)
        monkeypatch.setattr(cli_module, "synth_task_source", never)
        monkeypatch.setattr(itertools, "product", never)
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "exceed" in err

    @pytest.mark.parametrize("seed", [1.5, "7", -1])
    def test_bad_config_seed_is_exit_2(self, seed, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": seed}), encoding="utf-8")
        assert main(DEMO_ARGS[:1] + ["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 1.5), ("inner_steps", 2.5), ("adapt_iters", 1.5), ("tasks_per_batch", 2.0), ("order", 2.0),
         ("order", True), ("alpha", True), ("beta", False)],
    )
    def test_non_integer_config_count_is_exit_2(self, field, value, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field: value}), encoding="utf-8")
        assert main(DEMO_ARGS[:1] + ["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["eval", "--trials", "1"], "{dir}"),
            (["eval", "--trials", "1"], "{dir}/missing/x.csv"),
            (["bench", "--repeats", "1"], "{dir}"),
            (DEMO_ARGS, "{file}"),
        ],
        ids=["eval-dir", "eval-missing-parent", "bench-dir", "maml-demo-file"],
    )
    def test_unwritable_out_is_exit_2(self, argv, out, tmp_path, capsys):
        a_file = tmp_path / "a_file"
        a_file.write_text("", encoding="utf-8")
        assert main(argv + ["--out", out.format(dir=tmp_path, file=a_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and err.count("\n") == 1


# Bounds on the sized flags: enough to reach every code path, small enough
# that one run takes milliseconds.  A new integer flag must be added here.
FLAG_LIMITS = {
    "--cycles": 3, "--trials": 3, "--epochs": 2, "--n-test-tasks": 2, "--hidden": 8,
    "--features": 8, "--support": 8, "--query": 8, "--inner-steps": 3, "--adapt-iters": 3,
    "--tasks-per-batch": 3, "--length-strokes": 64, "--repeats": 3, "--warmup": 3,
    "--seed": 2**64,
}


def _mostly(valid, invalid):
    """Draws from ``valid`` about nine times in ten, so that most runs get
    past argument checking."""
    return st.sampled_from(range(10)).flatmap(lambda k: invalid if k == 5 else valid)


_any_float = st.floats() | st.sampled_from(
    [0.0, -0.0, -1.0, 5e-324, 1e-306, 1e308, math.inf, -math.inf, math.nan]
)
_float_flag = _mostly(st.floats(min_value=0.0, allow_infinity=False), _any_float)
_probabilities = _mostly(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2), st.lists(_any_float, max_size=2)
).map(lambda v: ",".join(map(repr, v)))
_config_value = _mostly(
    st.floats(0.0, 1.0) | st.sampled_from([1, 2]),
    # Integers of 300-400 digits compare below infinity but overflow a float.
    st.one_of(st.integers(-2, 3), st.integers(10**299, 10**400), _any_float, st.booleans(), st.none(),
              st.text(max_size=3)),
)
_stroke_names = st.sampled_from(["Dha", "Dhin", "Na", "Tin", "Ta", "Tit", "Ge", "Ke", "Zzz",
                                 *TOKEN_ALIASES])
# Strategies for the string-valued flags, by destination.
_STRING_FLAGS = {
    "talas": _mostly(st.sampled_from(["all", "Tintal", "Rupak,Ektal", "Jhaptal,", "Rūpak"]),
                     st.sampled_from(["Dhamar", ",", "", "Tintal,Tīntāl"]) | st.text(max_size=6)),
    "p_sub": _probabilities,
    "p_del": _probabilities,
    "p_ins": _probabilities,
}


def _subcommands():
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _draw_argv(draw, command, tmp_path):
    """Every flag of one subcommand, each given a drawn value or left out."""
    argv = [command]
    for action in _subcommands()[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:  # identify's stroke file
            path = tmp_path / "strokes.txt"
            path.write_text(" ".join(draw(st.lists(_stroke_names, max_size=40))), encoding="utf-8")
            argv.append(str(path))
            continue
        flag = action.option_strings[0]
        if isinstance(action, argparse.BooleanOptionalAction):
            argv += draw(st.sampled_from([[], action.option_strings[:1], action.option_strings[1:]]))
            continue
        if action.choices is not None:
            value = draw(st.sampled_from(list(action.choices)))
        elif action.type is int:
            value = draw(_mostly(st.integers(0 if flag == "--seed" else 1, FLAG_LIMITS[flag]),
                                 st.integers(-2, 0)))
        elif action.type is float:
            value = repr(draw(_float_flag))
        elif action.dest == "out":
            value = str(tmp_path / "out") if command == "maml-demo" else draw(
                st.sampled_from(["-", str(tmp_path / "out.csv")]))
        elif action.dest == "config":
            path = tmp_path / "config.json"
            fields = st.sampled_from(["alpha", "beta", "order", "seed"])
            path.write_text(json.dumps(draw(st.dictionaries(fields, _config_value))), encoding="utf-8")
            value = str(path)
        else:
            value = draw(_STRING_FLAGS[action.dest])
        # Sized flags and --out are always given: their defaults take seconds
        # to run or write into the working directory.
        if flag in FLAG_LIMITS and flag != "--seed" or flag == "--out" or draw(st.booleans()):
            argv.append(f"{flag}={value}")
    return argv


class TestFlagTables:
    def test_every_subcommand_is_covered(self):
        assert set(_subcommands()) == {"identify", "eval", "bench", "maml-demo"}

    @pytest.mark.parametrize("command", ["identify", "eval", "bench", "maml-demo"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_drawn_flags_never_exit_3(self, command, data, tmp_path, capsys):
        argv = _draw_argv(data.draw, command, tmp_path)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


# Every MamlConfig field meets each value, in a --config file and, where
# argparse takes the text, as the field's flag: (id, JSON value, flag text).
CONFIG_VALUES = [
    ("0", 0, "0"), ("-1", -1, "-1"), ("true", True, "true"), ("2.5", 2.5, "2.5"),
    ("nan", math.nan, "nan"), ("inf", math.inf, "inf"), ("1e400", 10**400, str(10**400)),
    ("x", "x", "x"), ("null", None, "null"),
]
# Values a field accepts are left out; 10^400 epochs would run for ever.
ACCEPTED_CONFIG_VALUES = {
    "alpha": {"0", "2.5"}, "beta": {"0", "2.5"}, "inner_steps": {"0"}, "epochs": {"0", "1e400"},
    "adapt_iters": {"0"}, "seed": {"0", "1e400"},
}


def _flag_takes(field, text):
    action = next(a for a in _subcommands()["maml-demo"]._actions if a.dest == field)
    try:
        value = action.type(text)
    except ValueError:
        return False
    return action.choices is None or value in action.choices


def _config_value_cases():
    for field in CONFIG_FIELDS:
        for vid, value, text in CONFIG_VALUES:
            if vid in ACCEPTED_CONFIG_VALUES.get(field, ()):
                continue
            yield pytest.param(field, "config", value, id=f"{field}-config-{vid}")
            if _flag_takes(field, text):
                yield pytest.param(field, "flag", text, id=f"{field}-flag-{vid}")


class TestConfigValueTable:
    @pytest.mark.parametrize("field, via, value", list(_config_value_cases()))
    def test_rejected_value_is_exit_2_with_one_line(self, field, via, value, tmp_path, capsys, monkeypatch):
        # Tiny sizes: every value is rejected before a task is drawn.
        import taalkit.cli as cli_module

        def never(*args, **kwargs):
            pytest.fail("drew tasks before the config was rejected")

        monkeypatch.setattr(cli_module, "synth_task_source", never)
        argv = ["maml-demo", "--features", "1", "--support", "1", "--query", "1", "--hidden", "1",
                "--n-test-tasks", "1", "--out", str(tmp_path)]
        if via == "config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({field: value}), encoding="utf-8")
            argv += ["--config", str(path)]
        else:
            argv.append(f"--{field.replace('_', '-')}={value}")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
