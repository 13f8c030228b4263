"""
From frame labels to scored onsets
==================================

A frame-level stroke classifier emits one label per 10 ms hop.  This walk
shows the post-processing chain: median smoothing of single-frame blips,
amplitude-based relabeling of decayed tails as No-stroke, onset
extraction at label changes, collar-based F1 against a reference, and
tāla identification from the onsets.
"""

import io
import math

from taalkit import (
    FrameLabelSequence,
    OnsetAnnotation,
    get_tala,
    identify_tala_nw,
    identify_tala_ratio,
    label_no_stroke,
    onset_f1,
    onsets_from_frames,
    read_onsets_csv,
    smooth_labels,
    write_onsets_csv,
)
from taalkit.talas import make_vocabulary

# A tiny transcription vocabulary; No-stroke is appended automatically.
vocab = make_vocabulary(["Dha", "Na", "Tin"], include_no_stroke=True)
DHA, NA, TIN, SILENCE = range(4)
print("vocabulary:", [v.name for v in vocab])

# Pretend decoder output: a Dha held for 60 ms, a one-frame Na blip
# (decoder noise), then a Tin, then silence.
raw = [DHA] * 6 + [NA] + [DHA] * 2 + [TIN] * 8 + [SILENCE] * 3
frames = FrameLabelSequence(tuple(raw), hop_seconds=0.010, vocabulary=vocab)
print("raw labels:     ", list(frames.labels))

# Majority smoothing removes isolated single-frame disagreements.
smoothed = smooth_labels(frames)
print("after smoothing:", list(smoothed.labels))

# A resonant stroke decays; once its envelope falls below 3% of the
# segment peak the remaining frames should read No-stroke.
envelope = [math.exp(-0.45 * i) for i in range(len(smoothed))]
relabeled = label_no_stroke(smoothed, envelope)
print("after 3% rule:  ", list(relabeled.labels))

# Onsets sit wherever the (cleaned) label stream switches class.
estimate = onsets_from_frames(relabeled)
print("estimated onsets:", estimate.events)

# Score against a hand-written reference with a 50 ms collar.
reference = OnsetAnnotation(((0.0, "Dha"), (0.09, "Tin"), (0.15, "Na")))
evaluation = onset_f1(reference, estimate, collar_seconds=0.050)
print()
for name, score in evaluation.per_class.items():
    print(f"  {name:4s} precision={score.precision:.2f} recall={score.recall:.2f} f1={score.f1:.2f}")
print(f"unweighted F1={evaluation.f1:.3f}  support-weighted F1={evaluation.weighted_f1:.3f}")

# Onset annotations round-trip through a two-column CSV.
buf = io.StringIO()
write_onsets_csv(estimate, buf)
print()
print(buf.getvalue().rstrip())
assert read_onsets_csv(io.StringIO(buf.getvalue())).events == estimate.events
print("CSV round trip ok")

# The onsets are a transcribed stroke sequence, so both tāla identifiers
# read them directly.  Four cycles of Rūpak at 240 bpm: 25 frames a stroke,
# each decaying below 3% of its peak after 18 frames.
rupak = get_tala("Rupak")
strokes = list(rupak.theka_names) * 4
rupak_vocab = make_vocabulary(dict.fromkeys(strokes), include_no_stroke=True)
ids = {s.name: s.id for s in rupak_vocab}
decay = [math.exp(-0.2 * k) for k in range(25)]
rupak_frames = FrameLabelSequence([ids[n] for n in strokes for _ in decay], 0.010, rupak_vocab)
onsets = onsets_from_frames(label_no_stroke(smooth_labels(rupak_frames), decay * len(strokes)))
# One run of a label is one onset, so each Tin Tin yields a single onset.
print()
print(f"{len(strokes)} Rūpak strokes -> {len(onsets)} onsets")
print("NW identifies:   ", identify_tala_nw(onsets).best.tala)
print("ratio identifies:", identify_tala_ratio(onsets).best.tala)
