"""Transfer to keypoint alignment, then pick distillation targets by probing.

Workflow:

1. train a classification teacher and continue it on keypoint regression;
2. build a student initialized from classification distillation;
3. fine-tune that student on regression three times -- no extra target,
   soft-prediction target only, hidden-embedding target only;
4. hand the three scores to select_targets and report its decision.

One plan describes all of it, and ``run_experiment`` runs it: this is the
same probe-then-decide loop the full experiment grid runs, shrunk to
seconds.
"""
import tempfile

from distillforge.data import GeneratorParams, generate
from distillforge.pipeline import (ALIGNMENT, ExperimentPlan, Run, StagePlan, TaskPlan,
                                   run_experiment, run_stage, select_targets, stage)


def main():
    plan = ExperimentPlan(
        generator=GeneratorParams(num_identities=12, samples_per_identity=30, input_dim=32,
                                  num_keypoints=5, seed=3),
        hidden_widths=(96, 48), embedding_dim=12,
        tau=3.0,
        cls_divisors=(4,),
        cls_inits=("full_init",),
        # the student arrives via the classification path, then moves to the new task
        tasks=(TaskPlan(ALIGNMENT, (4,), inits=("distill",)),),
        cls_stage=StagePlan(32, 8),
        alignment_stage=StagePlan(32, 10, continue_lr=0.001),
    )
    data = generate(plan.generator)
    with tempfile.TemporaryDirectory() as ckpt_dir:
        report = run_experiment(plan, ckpt_dir, data=data)
        teacher = report.get("alignment", "teacher", "transfer", 0, 0)
        print(f"teacher nrmse after transfer: {teacher['nrmse']:.4f}")

        probes = {(alpha, beta): metrics["nrmse"]
                  for (task, network, _, alpha, beta), metrics in report.rows()
                  if task == "alignment" and network == "student/4"}
        for (alpha, beta), score in probes.items():
            print(f"student /4 nrmse at (alpha={alpha:g}, beta={beta:g}): {score:.4f}")

        alpha, beta = select_targets(probes, higher_is_better=False)
        names = {(0, 0): "neither target", (1, 0): "soft predictions only",
                 (0, 1): "hidden embedding only", (1, 1): "both targets"}
        print(f"\nselected weighting: (alpha={alpha:g}, beta={beta:g}) -> {names[(alpha, beta)]}")

        if (alpha, beta) not in probes:  # e.g. both solo probes helped -> run the combination
            # a stage outside the plan's report, trained from the run's checkpoints
            final = stage(plan, f"student4_alignment_distill_a{alpha}_b{beta}")
            _, metrics = run_stage(final, Run(plan, data), ckpt_dir)
            print(f"student /4 nrmse at the selected weighting: {metrics['nrmse']:.4f}")


if __name__ == "__main__":
    main()
