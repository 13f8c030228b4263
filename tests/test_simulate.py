"""Tests for the performance simulator and corruption model."""

import warnings

import numpy as np
import pytest

from taalkit.alignment import identify_tala_nw
from taalkit.simulate import (
    DEFAULT_TEMPO_BPM,
    MAX_PERFORMANCE_STROKES,
    NoiseSpec,
    PerformanceSpec,
    corrupt,
    default_insertion_vocabulary,
    generate_performance,
)
from taalkit.talas import StrokeSequence, builtin_talas, get_tala


class TestPerformanceSpec:
    def test_defaults(self):
        spec = PerformanceSpec(tala="Tintal", cycles=2)
        assert spec.tempo_bpm == DEFAULT_TEMPO_BPM == 240.0
        assert spec.start_offset == 0
        assert not spec.gharana_variant

    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceSpec(tala="Tintal", cycles=0)
        for tempo in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                PerformanceSpec(tala="Tintal", cycles=1, tempo_bpm=tempo)
        with pytest.raises(ValueError):
            PerformanceSpec(tala="Tintal", cycles=1, start_offset=16)
        with pytest.raises(KeyError):
            PerformanceSpec(tala="Dhamar", cycles=1)

    def test_rejects_tempos_whose_onsets_overflow(self):
        for tempo in (5e-324, 1e-306):  # 60 / tempo, or the last onset, is inf
            with pytest.raises(ValueError, match="overflow"):
                PerformanceSpec(tala="Tintal", cycles=2, tempo_bpm=tempo)
        # The last of 14 onsets, 13 * 60 / 5e-306 = 1.56e308 s, is finite, but
        # corrupt() adds two onsets to place an insertion.
        with pytest.raises(ValueError, match="overflow"):
            PerformanceSpec(tala="Rupak", cycles=2, tempo_bpm=5e-306)

    def test_numpy_tempo_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                PerformanceSpec(tala="Tintal", cycles=2, tempo_bpm=np.float64(5e-324))
            spec = PerformanceSpec(tala="Tintal", cycles=2, tempo_bpm=np.float64(120.0))
        assert type(spec.tempo_bpm) is float and spec.tempo_bpm == 120.0

    def test_rejects_performances_over_the_stroke_cap(self):
        cycles = MAX_PERFORMANCE_STROKES // 16
        assert PerformanceSpec(tala="Tintal", cycles=cycles).cycles * 16 == MAX_PERFORMANCE_STROKES
        for too_many in (cycles + 1, 10**8):
            with pytest.raises(ValueError, match=f"exceed {MAX_PERFORMANCE_STROKES} strokes"):
                PerformanceSpec(tala="Tintal", cycles=too_many)

    def test_every_accepted_tempo_survives_insertions(self):
        accepted = 0
        for tempo in np.geomspace(1e-306, 1e-303, 200).tolist():
            try:
                spec = PerformanceSpec(tala="Rupak", cycles=2, tempo_bpm=tempo)
            except ValueError:
                continue
            accepted += 1
            noisy = corrupt(generate_performance(spec), NoiseSpec(p_ins=1.0, seed=0))
            assert len(noisy) == 28 and np.isfinite(noisy.onset_times).all()
        assert 0 < accepted < 200


class TestGeneratePerformance:
    def test_two_tintal_cycles_at_240(self):
        perf = generate_performance(PerformanceSpec(tala="Tintal", cycles=2))
        assert len(perf) == 32
        assert perf.onset_times[0] == 0.0
        assert perf.onset_times == tuple(i * 0.25 for i in range(32))
        assert perf.onset_times[-1] == 7.75
        assert perf.names == get_tala("Tintal").theka_names * 2

    def test_single_rupak_cycle_is_theka(self):
        perf = generate_performance(PerformanceSpec(tala="Rupak", cycles=1))
        assert perf.names == get_tala("Rupak").theka_names
        assert len(perf) == 7

    def test_offset_rotation(self):
        theka = get_tala("Jhaptal").theka_names
        perf = generate_performance(PerformanceSpec(tala="Jhaptal", cycles=2, start_offset=3))
        rotated = theka[3:] + theka[:3]
        assert perf.names == rotated * 2

    def test_tempo_scales_onsets(self):
        perf = generate_performance(PerformanceSpec(tala="Rupak", cycles=1, tempo_bpm=120.0))
        assert perf.onset_times == tuple(i * 0.5 for i in range(7))

    def test_gharana_variant_tintal(self):
        plain = generate_performance(PerformanceSpec(tala="Tintal", cycles=1))
        variant = generate_performance(
            PerformanceSpec(tala="Tintal", cycles=1, gharana_variant=True)
        )
        # Exactly the two Na strokes per cycle become Ta.
        assert variant.names.count("Ta") == 2
        assert "Na" not in variant.names
        assert [a for a in plain.names if a != "Na"] == [
            a for a in variant.names if a != "Ta"
        ]
        # Identification with equivalence enabled is unaffected.
        assert identify_tala_nw(variant.names).best.tala == "Tintal"

    def test_offset_round_trip_identification(self):
        perf = generate_performance(PerformanceSpec(tala="Ektal", cycles=2, start_offset=11))
        assert identify_tala_nw(perf.names).best.tala == "Ektal"


class TestNoiseSpec:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            NoiseSpec(p_sub=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(p_del=1.5)
        with pytest.raises(ValueError):
            NoiseSpec(p_sub=0.6, p_del=0.5)

    def test_defaults(self):
        spec = NoiseSpec()
        assert (spec.p_sub, spec.p_del, spec.p_ins, spec.seed) == (0.0, 0.0, 0.0, 0)

    def test_default_vocabulary_covers_all_thekas(self):
        vocab = set(default_insertion_vocabulary())
        for tala in builtin_talas():
            assert set(tala.theka_names) <= vocab


class TestCorrupt:
    def _perf(self, cycles=3):
        return generate_performance(PerformanceSpec(tala="Ektal", cycles=cycles))

    def test_identity_noise_returns_input_unchanged(self):
        perf = self._perf()
        out = corrupt(perf, NoiseSpec(seed=9))
        assert out.names == perf.names
        assert out.onset_times == perf.onset_times

    @pytest.mark.parametrize("seed", [0, 1, 9, 2**63 - 1])
    def test_zero_noise_returns_the_input_itself(self, seed):
        for perf in (self._perf(), StrokeSequence(("Dha", "Ge", "Na"))):
            assert corrupt(perf, NoiseSpec(seed=seed)) is perf

    def test_full_deletion_empties(self):
        out = corrupt(self._perf(), NoiseSpec(p_del=1.0, seed=0))
        assert len(out) == 0

    def test_deterministic_by_seed(self):
        perf = self._perf()
        noise = NoiseSpec(p_sub=0.2, p_del=0.2, p_ins=0.2, seed=3)
        a = corrupt(perf, noise)
        b = corrupt(perf, noise)
        assert a.names == b.names
        assert a.onset_times == b.onset_times
        c = corrupt(perf, NoiseSpec(p_sub=0.2, p_del=0.2, p_ins=0.2, seed=4))
        assert (a.names, a.onset_times) != (c.names, c.onset_times)

    def test_substitution_fraction(self):
        perf = generate_performance(
            PerformanceSpec(tala="Tintal", cycles=625)  # 10000 strokes
        )
        out = corrupt(perf, NoiseSpec(p_sub=0.1, seed=1))
        assert len(out) == len(perf)
        changed = np.mean([a != b for a, b in zip(perf.names, out.names)])
        assert abs(changed - 0.1) <= 0.01

    def test_substitution_never_keeps_original(self):
        perf = self._perf(cycles=20)
        out = corrupt(perf, NoiseSpec(p_sub=1.0, seed=2))
        assert len(out) == len(perf)
        assert all(a != b for a, b in zip(perf.names, out.names))

    def test_substitutions_stay_in_vocabulary(self):
        # Substitutes and insertions alike come from the built-in strokes,
        # also in place of a stroke outside them.
        perf = StrokeSequence(("Zzz", "Dha") * 30)
        out = corrupt(perf, NoiseSpec(p_sub=1.0, p_ins=1.0, seed=5))
        assert len(out) == 2 * len(perf)
        assert set(out.names) <= set(default_insertion_vocabulary())

    def test_deletion_keeps_survivor_onsets(self):
        perf = self._perf()
        out = corrupt(perf, NoiseSpec(p_del=0.4, seed=6))
        # Every surviving event appears at its original time with its
        # original name, in order.
        original = dict(zip(perf.onset_times, perf.names))
        for t, name in zip(out.onset_times, out.names):
            assert original[t] == name
        assert list(out.onset_times) == sorted(out.onset_times)

    def test_deletion_fraction(self):
        perf = generate_performance(PerformanceSpec(tala="Tintal", cycles=625))
        out = corrupt(perf, NoiseSpec(p_del=0.3, seed=7))
        assert abs(1 - len(out) / len(perf) - 0.3) <= 0.01

    def test_common_random_numbers_nest_deletions(self):
        # Under one seed, raising p_del only deletes more: survivor sets are
        # nested across the sweep.
        perf = self._perf(cycles=10)
        survivors = []
        for p in (0.05, 0.1, 0.2, 0.3):
            out = corrupt(perf, NoiseSpec(p_del=p, seed=8))
            survivors.append(set(out.onset_times))
        for smaller, larger in zip(survivors[1:], survivors[:-1]):
            assert smaller <= larger

    def test_insertion_fraction_and_positions(self):
        perf = generate_performance(PerformanceSpec(tala="Tintal", cycles=625))
        out = corrupt(perf, NoiseSpec(p_ins=0.1, seed=9))
        added = len(out) - len(perf)
        assert abs(added / len(perf) - 0.1) <= 0.01
        # Inserted events sit strictly between original onsets.
        original = set(perf.onset_times)
        inserted = [t for t in out.onset_times if t not in original]
        assert len(inserted) == added
        beat = 60.0 / DEFAULT_TEMPO_BPM
        for t in inserted:
            assert (t / (beat / 2)) % 1 == pytest.approx(0.0, abs=1e-9)

    def test_full_insertion_doubles_length(self):
        perf = self._perf(cycles=2)
        out = corrupt(perf, NoiseSpec(p_ins=1.0, seed=10))
        assert len(out) == 2 * len(perf)

    def test_empty_input_passthrough(self):
        from taalkit.talas import StrokeSequence

        empty = StrokeSequence(())
        out = corrupt(empty, NoiseSpec(p_del=0.5, p_ins=0.5, seed=11))
        assert len(out) == 0
