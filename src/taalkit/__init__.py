"""taalkit: tabla stroke sequence analysis and few-shot transcription tools.

The package covers three strands that share one data model:

- tala identification from stroke sequences, by sliding Needleman-Wunsch
  alignment against theka rotations and by stroke-ratio cosine matching;
- transcription post-processing: frame-label smoothing, onset extraction,
  the 3% No-stroke rule, and collar-based onset F1;
- model-agnostic meta-learning of a small surrogate stroke classifier,
  with an exact second-order outer gradient on top of a purpose-built
  reverse-mode autodiff core.

A simulator generates clean and corrupted synthetic performances so the
identification pipeline can be evaluated end to end, and ``taalkit.cli``
exposes the whole thing as a command line.
"""

from types import ModuleType as _ModuleType

from .alignment import (
    GAP_PENALTY,
    MATCH_SCORE,
    MISMATCH_SCORE,
    MatchResult,
    RankedResult,
    TalaScore,
    batch_nw_scores,
    identify_tala_nw,
    lcs_baseline_score,
    nw_score,
    sliding_match_score,
)
from .autodiff import Tensor, grad
from .maml import (
    AdaptResult,
    DivergenceError,
    MamlConfig,
    MetaTrainResult,
    PairedComparison,
    inner_adapt,
    meta_gradients,
    meta_test_adapt,
    meta_train,
    meta_update,
    paired_few_shot_eval,
    query_objective,
)
from .postproc import (
    DEFAULT_COLLAR_SECONDS,
    NO_STROKE_AMPLITUDE_FRACTION,
    FrameLabelSequence,
    OnsetAnnotation,
    OnsetEvaluation,
    label_no_stroke,
    onset_f1,
    onsets_from_frames,
    read_onsets_csv,
    smooth_labels,
    write_onsets_csv,
)
from .ratio import cosine_similarity, identify_tala_ratio
from .simulate import NoiseSpec, PerformanceSpec, corrupt, generate_performance
from .surrogate import (
    FrozenFeatureMap,
    SurrogateModel,
    class_weights,
    class_weights_from_labels,
    head_logits,
    init_head,
    sgd_step,
    wce_loss,
)
from .talas import (
    NO_STROKE,
    StrokeLabel,
    StrokeSequence,
    TalaDefinition,
    TokenTable,
    builtin_talas,
    get_tala,
    stroke_histogram,
)
from .tasks import FewShotTask, SyntheticTaskConfig, synth_task_source, take_tasks

__version__ = "0.1.0"

# Every public name bound above, less the submodules that the imports bind.
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType))
