"""A look inside the synthetic identity benchmark.

Each sample is a noisy projection of (identity code, pose); keypoints are
a pose-dominated function of the same latents, so identity must be read
from subtle input structure rather than trivial offsets. Each split holds
the samples as columns: features, identity ids and keypoints, one row each.
"""
import numpy as np

from distillforge.data import GeneratorParams, generate, make_pairs, make_triplets


def main():
    params = GeneratorParams(num_identities=8, samples_per_identity=20,
                             input_dim=24, latent_dim=4, pose_dim=2,
                             num_keypoints=5, seed=42)
    ds = generate(params)
    feats, ids, kps = ds.train.features, ds.train.ids, ds.train.keypoints
    print(f"train {feats.shape[0]} samples / test {len(ds.test)}  "
          f"(features {feats.shape[1]}-dim, keypoints {kps.shape[1] // 2} x 2)")
    print("identities in train split:", np.bincount(ids).tolist())

    # nearest-centroid on raw features: above chance, far from perfect
    centroids = np.stack([feats[ids == i].mean(axis=0) for i in range(params.num_identities)])
    tf, ti = ds.test.features, ds.test.ids
    d = ((tf[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    acc = (d.argmin(axis=1) == ti).mean()
    print(f"nearest-centroid identity accuracy on raw inputs: {acc:.3f} "
          f"(chance {1 / params.num_identities:.3f})")

    # same identity -> same keypoint template deformation, different pose -> different keypoints
    a, b = np.flatnonzero(ids == ids[0])[:2]
    print(f"\nsample pair, identity {ids[a]}: keypoint spread within one identity = "
          f"{np.abs(kps[a] - kps[b]).max():.3f}")

    a_idx, p_idx, n_idx = make_triplets(ds.train, count=5, seed=0)
    print("\nfirst training triplets (anchor id, positive id, negative id):")
    for i, j, k in zip(a_idx, p_idx, n_idx):
        print("  ", ids[i], ids[j], ids[k])

    same, diff = make_pairs(ds.test, count_per_class=6, seed=0)
    print(f"\nevaluation pairs: {len(same)} same-identity, {len(diff)} different-identity")


if __name__ == "__main__":
    main()
