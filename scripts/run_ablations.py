#!/usr/bin/env python3
"""Ablation sweep over the training variants on a seeded synthetic set.

Each variant trains fresh networks with identical seeds and budget, then
fuses the training pairs with its student and scores them. One summary
row per variant lands in <out>/ablations.csv and on stdout. The default
budget is small; raise --steps for smoother numbers.
"""
import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semfuse.autodiff import frozen
from semfuse.data import synth_pair
from semfuse.metrics import evaluate_triple
from semfuse.networks import build_nets
from semfuse.training import Ablations, TrainConfig, alternate_train

# the full method, then one row per ablation switch in declaration order
VARIANTS = (("full", {}),) + tuple((f.name, {f.name: True}) for f in fields(Ablations))

HEADER = "variant,final_total_sub,gap_first,gap_last,en,sd,scd,ms_ssim"


def run_variant(name, flags, pairs, args):
    ablations = Ablations(**flags)
    cfg = TrainConfig(seed=args.seed, crop=args.size, batch=args.batch,
                      steps=args.steps, ablations=ablations)
    teacher, student = build_nets(args.seed, ablations.variant())
    report = alternate_train(teacher, student, pairs, cfg, verbose=False)

    with frozen(student.parameters()):
        scores = [evaluate_triple(student.forward(vis, ir).data[0], vis, ir)
                  for vis, ir in pairs]
    return {
        "variant": name,
        "final_total_sub": report.rows[-1].total_sub,
        "gap_first": report.epoch_gap[0],
        "gap_last": report.epoch_gap[-1],
        "en": float(np.mean([s.en for s in scores])),
        "sd": float(np.mean([s.sd for s in scores])),
        "scd": float(np.mean([s.scd for s in scores])),
        "ms_ssim": float(np.mean([s.ms_ssim_mean for s in scores])),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="ablation_out")
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--batch", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--only", default="",
                    help="comma-separated variant names to run")
    args = ap.parse_args()

    chosen = {v.strip() for v in args.only.split(",") if v.strip()}
    known = {name for name, _ in VARIANTS}
    if chosen - known:
        raise SystemExit(f"unknown variants: {sorted(chosen - known)}; "
                         f"known: {sorted(known)}")

    pairs = [synth_pair(args.seed + i, args.size, args.size)
             for i in range(args.pairs)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for name, flags in VARIANTS:
        if chosen and name not in chosen:
            continue
        start = time.perf_counter()
        row = run_variant(name, flags, pairs, args)
        rows.append(row)
        print(f"{name:<8s} total_sub={row['final_total_sub']:.4f} "
              f"gap {row['gap_first']:.4f}->{row['gap_last']:.4f} "
              f"ms_ssim={row['ms_ssim']:.4f} "
              f"({time.perf_counter() - start:.1f}s)", flush=True)

    csv = HEADER + "\n" + "\n".join(
        ",".join(repr(r[k]) if isinstance(r[k], float) else str(r[k])
                 for k in HEADER.split(",")) for r in rows) + "\n"
    (out / "ablations.csv").write_text(csv)
    print(f"\nwrote {out / 'ablations.csv'}")


if __name__ == "__main__":
    main()
