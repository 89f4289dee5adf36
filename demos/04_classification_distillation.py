"""Compressing a classifier with and without the full-initialization trick.

Trains a teacher, then builds quarter-width students three ways:

* hard labels only, from scratch;
* teacher's soft targets + hard labels, from scratch;
* the same combined objective, but started from a student already trained
  to convergence on hard labels (full initialization).

The plan names these stages; the loop below runs them one at a time, each
from the checkpoints of the stages it depends on, as ``reproduce`` does.
Small benchmark, so all four stages finish in a few seconds.
"""
import tempfile

from distillforge.data import GeneratorParams, generate
from distillforge.nets import num_parameters
from distillforge.pipeline import ExperimentPlan, Run, StagePlan, run_stage, stages

LABELS = {"teacher_cls": "teacher",
          "student4_cls_init": "student /4, hard only",
          "student4_cls_scratch": "student /4, distilled from scratch",
          "student4_cls_full_init": "student /4, distilled with full init"}


def main():
    plan = ExperimentPlan(
        # noisy enough that the quarter-width student cannot match the teacher
        generator=GeneratorParams(num_identities=24, samples_per_identity=20, input_dim=32,
                                  noise_std=0.5, seed=7),
        hidden_widths=(96, 48), embedding_dim=12,
        cls_alpha=1.0, tau=3.0,  # the soft target's weight and temperature
        cls_divisors=(4,),
        tasks=(),
        # scratch stages run 6 epochs at 0.02, then 6 at 0.002; full
        # initialization continues from the hard-label student at 0.002
        cls_stage=StagePlan(32, 6, scratch_lr=0.02, continue_lr=0.002),
    )
    with tempfile.TemporaryDirectory() as ckpt_dir:
        run = Run(plan, generate(plan.generator), ckpt_dir)
        for node in stages(plan):
            net, metrics = run_stage(node, run)
            print(f"{LABELS[node.key]:37s}: {metrics['top1']:.3f} ({num_parameters(net)} params)")


if __name__ == "__main__":
    main()
