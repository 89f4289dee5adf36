"""distillforge: a small distillation workbench on a synthetic identity benchmark.

Everything runs on a minimal tape-based reverse-mode autodiff core
(:mod:`distillforge.tensor`) in float64. The package covers:

* distillation objectives for classification, keypoint alignment, and
  triplet verification (:mod:`distillforge.losses`);
* fully connected trunk networks with logit/regression heads and a
  binary checkpoint format (:mod:`distillforge.nets`);
* the synthetic identity/pose benchmark and its text container
  (:mod:`distillforge.data`);
* evaluation metrics and report tables (:mod:`distillforge.metrics`);
* the stage graph of training stages, the full-initialization trick,
  transfer initialization and target selection, which drives both
  ``train`` and ``reproduce`` (:mod:`distillforge.pipeline`);
* a five-command CLI: generate / train / evaluate / reproduce / config
  (:mod:`distillforge.cli`).
"""

from .data import (GeneratorParams, LatentModel, Split, SplitDataset, generate, load_dataset,
                   make_pairs, make_triplets, save_dataset)
from .losses import (DistillConfig, alignment_distill_loss, classification_distill_loss,
                     cross_entropy, euclidean_loss, general_distill_loss, hidden_match_loss,
                     soft_predictions, softmax_loss, triplet_loss, verification_distill_loss)
from .metrics import (MetricsReport, nrmse, pair_verification_accuracy, reference_distances,
                      top1_accuracy, verification_top1)
from .nets import (Network, NetworkOutputs, NetworkSpec, build, clone, load_network,
                   num_parameters, save_network)
from .pipeline import (ExperimentPlan, OptimizerState, StagePlan, TaskPlan, derive_seed,
                       nag_step, run_experiment, select_targets)
from .tensor import Tape, Tensor, backward, grad_check

__version__ = "0.1.0"

__all__ = [
    "Tensor", "Tape", "backward", "grad_check",
    "DistillConfig", "soft_predictions", "cross_entropy", "softmax_loss",
    "classification_distill_loss", "euclidean_loss", "hidden_match_loss",
    "alignment_distill_loss", "triplet_loss", "verification_distill_loss",
    "general_distill_loss",
    "NetworkSpec", "NetworkOutputs", "Network", "build", "clone",
    "num_parameters", "save_network", "load_network",
    "GeneratorParams", "Split", "SplitDataset", "LatentModel", "generate",
    "make_triplets", "make_pairs", "save_dataset", "load_dataset",
    "top1_accuracy", "reference_distances", "nrmse", "verification_top1",
    "pair_verification_accuracy", "MetricsReport",
    "derive_seed", "OptimizerState", "nag_step",
    "select_targets", "StagePlan", "TaskPlan", "ExperimentPlan", "run_experiment",
    "__version__",
]
