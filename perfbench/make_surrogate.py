"""Regenerate the pinned field surrogate used by the design-search workloads.

Trains the package-default field network (``TrainConfig()``: 64x4 tanh net,
5000 Adam steps, batch 1024, seed 0) and writes the checkpoint next to its
sha256. The benchmark loads only this file, so changes to the training
arithmetic cannot silently change the inputs of the GA and PPO workloads.

Run from the repository root:

    python3 perfbench/make_surrogate.py

A different BLAS build may round differently, so the regenerated bytes (and
hash) can differ from the committed ones on another machine.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHECKPOINT = os.path.join(HERE, "data", "field_surrogate.ckpt")
DIGEST = CHECKPOINT + ".sha256"


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from mixopt.pinn_train import TrainConfig, save_checkpoint, train

    cfg = TrainConfig()
    t0 = time.perf_counter()
    params, history = train(cfg)
    if history.aborted_at is not None:
        print(f"training aborted at step {history.aborted_at}", file=sys.stderr)
        return 1
    save_checkpoint(params, CHECKPOINT, seed=cfg.seed)
    with open(CHECKPOINT, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(DIGEST, "w") as fh:
        fh.write(f"{digest}  field_surrogate.ckpt\n")
    print(f"steps={cfg.steps} initial_loss={history.initial.total:.6g} "
          f"final_loss={history.final.total:.6g} seconds={time.perf_counter() - t0:.1f} "
          f"sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
