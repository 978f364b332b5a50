"""semfuse benchmark: alternating training at two crop sizes and student-only fuse.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/
directory. Each run sets up its seeded inputs, then repeats identical
rounds of `semfuse` subcommands, driven through `semfuse.cli.main`, until
`--seconds` have passed, checks every output against independent
references, and prints one JSON object as its last line. With --trace 0
that object holds the end-to-end metrics; with --trace 1 it holds the
per-layer split from a traced run (see README.md).
"""
import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# One BLAS thread: the run checksum depends on the thread count, and a
# single thread keeps timings steady on a small shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

# A train round spans three or four epochs: after only two, the mean
# total_sub of the last epoch still rose above the first's on some seeds.
WORKLOADS = {
    # Reference training shape: many small tape nodes, attention a minority.
    "train-crop32": {"kind": "train", "crop": 32, "pairs": 8, "batch": 4, "steps": 8},
    # Attention over crop^2/4 = 576 tokens dominates the step and peak RSS.
    "train-crop48": {"kind": "train", "crop": 48, "pairs": 8, "batch": 4, "steps": 6},
    # Student-only inference and scoring; the last pair has a colour visible source.
    "fuse-256": {"kind": "fuse", "size": 256, "gray": 2, "colour": 1},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, or 'unknown'."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    for lib in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                return str(fn())
    return "unknown"


def fingerprint(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def import_seconds(src: Path) -> float:
    """Median wall time of fresh interpreters that start and import the program."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import semfuse.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "semfuse" / "__init__.py").is_file():
        print(f"error: no semfuse package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The BLAS thread count is read when numpy loads, so it is pinned
    # before any numpy import.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import semfuse
    from semfuse import (autodiff, attention, cli, data, imageio, instrumentation, losses,
                         metrics, networks, priors, training)
    from tracer import OP_GROUPS, Tracer
    from workloads import FuseBench, TrainBench
    if Path(semfuse.__file__).resolve().parent != src / "semfuse":
        print(f"error: imported semfuse from {semfuse.__file__}, not {src}", file=sys.stderr)
        return 2
    modules = {"autodiff": autodiff, "attention": attention, "cli": cli, "data": data,
               "imageio": imageio, "losses": losses, "metrics": metrics,
               "networks": networks, "priors": priors, "training": training,
               "package": semfuse}

    wl = WORKLOADS[args.workload]
    print("fingerprint " + json.dumps(fingerprint(np, scipy), sort_keys=True))
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = (TrainBench if wl["kind"] == "train" else FuseBench)(wl, args.seed, work)
        reps = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            bench.setup()
            reps.append(time.perf_counter() - t0)
        setup_s = None if args.trace else import_seconds(src) + statistics.median(reps)

        reference = None
        tracers = {}
        if args.trace:
            tracers["setup"] = Tracer()
            tracers["setup"].install(modules)
            try:
                with tracers["setup"].span("bench.setup"):
                    bench.setup()
            finally:
                tracers["setup"].uninstall()
            tracers["rounds"] = Tracer()
            tracers["rounds"].install(modules)
        counters_before = instrumentation.snapshot()
        rounds = []
        t_begin = time.perf_counter()
        try:
            while True:
                if args.trace:
                    with tracers["rounds"].span("bench.round"):
                        rounds.append(bench.round())
                else:
                    rounds.append(bench.round())
                if time.perf_counter() - t_begin >= args.seconds:
                    break
        finally:
            if args.trace:
                tracers["rounds"].uninstall()
        counter_moves = instrumentation.delta(counters_before)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
        if args.trace:
            reference = bench.round()            # untraced, for the tracing overhead

        all_rounds = rounds + ([reference] if reference is not None else [])
        attempted = sum(r["ops"] for r in all_rounds)
        failed = sum(r["ops"] for r in all_rounds if not r["ok"])
        if failed == attempted:
            print("error: every round failed; no metric can be computed", file=sys.stderr)
            return 1
        problems = bench.check(all_rounds)
        for msg in problems:
            print(f"check FAILED: {msg}")
        if not problems:
            print(f"checks passed: {bench.check_summary}")
        print(f"checksum={bench.checksum} blas_threads={BLAS_THREADS} rounds={len(rounds)} "
              f"round_walls_s={[round(r['wall_s'], 3) for r in rounds]}")

        if args.trace:
            metrics_out = per_layer(rounds, reference, tracers, counter_moves, OP_GROUPS, args)
        else:
            metrics_out = bench.end_to_end(rounds)
            metrics_out["setup_s"] = (setup_s, "s")
            metrics_out["peak_rss_mb"] = (peak_rss_mb, "MB")
        for name, (value, unit) in sorted(metrics_out.items()):
            print(f"metric {name} = {value:.6g} {unit}")
        result = {"correct": not problems, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": float(v), "unit": u}
                              for k, (v, u) in metrics_out.items()}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def per_layer(rounds, reference, tracers, counter_moves, op_groups, args) -> dict:
    """Per-layer metrics per operation (training step or fused pair) of the traced rounds."""
    rs = tracers["rounds"].summary()
    ss = tracers["setup"].summary()
    ops = sum(r["ops"] for r in rounds)
    names, bwd, layer = rs["names"], rs["bwd_by_context_s"], rs["layer_incl_s"]

    def self_of(name):
        return names.get(name, {}).get("self_s", 0.0)

    def incl_of(name):
        return names.get(name, {}).get("incl_s", 0.0)

    out = {}
    for group, ops_in in op_groups.items():
        out[f"autodiff.{group}.fwd_s"] = sum(self_of(f"autodiff.{o}") for o in ops_in) / ops
        out[f"autodiff.{group}.bwd_s"] = sum(self_of(f"autodiff.{o}.bwd") for o in ops_in) / ops
    out["autodiff.conv2d.calls"] = names.get("autodiff.conv2d", {}).get("calls", 0) / ops
    counts = rs["counts"]
    out["autodiff.conv2d.cols_mb"] = counts.get("conv_cols_bytes", 0.0) / 1e6 / ops
    out["autodiff.backward.self_s"] = self_of("autodiff.backward") / ops
    roots = counts.get("backward_roots", 0.0)
    out["autodiff.tape_nodes"] = counts.get("tape_nodes", 0.0) / roots if roots else 0.0
    out["autodiff.ops"] = sum(names.get(f"autodiff.{o}", {}).get("calls", 0)
                              for ops_in in op_groups.values() for o in ops_in) / ops
    out["attention.fwd_s"] = layer.get("attention", 0.0) / ops
    out["attention.bwd_s"] = bwd.get("attention", 0.0) / ops
    out["attention.ops"] = counter_moves.get("attention", 0) / ops
    out["attention.weights_mb"] = counts.get("attention_weight_bytes", 0.0) / 1e6 / ops
    for net in ("teacher", "student"):
        out[f"networks.{net}.fwd_s"] = incl_of(f"networks.{net}") / ops
        out[f"networks.{net}.bwd_s"] = bwd.get(f"networks.{net}", 0.0) / ops
    out["priors.masks_s"] = incl_of("priors.masks_for") / ops
    out["priors.provider_ops"] = counter_moves.get("provider", 0) / ops
    out["losses.cs.fwd_s"] = incl_of("losses.loss_cs") / ops
    out["losses.fwd_s"] = layer.get("losses", 0.0) / ops
    out["losses.bwd_s"] = bwd.get("losses", 0.0) / ops
    out["training.backward_s"] = incl_of("autodiff.backward") / ops
    out["training.adam_s"] = incl_of("training.adam_step") / ops
    out["training.clip_s"] = incl_of("training.clip_global_norm") / ops
    out["imageio.load_s"] = incl_of("imageio.load_image") / ops
    out["imageio.save_s"] = incl_of("imageio.save_image") / ops
    out["metrics.evaluate_s"] = incl_of("metrics.evaluate_triple") / ops
    out["data.synth_s"] = ss["names"].get("data.synth_pair", {}).get("incl_s", 0.0)
    # the first round also pays one-off warm-up costs the untraced round does not
    traced_round = statistics.median(r["wall_s"] for r in rounds[1:] or rounds)
    per_round = rounds[0]["ops"]
    out["trace.overhead_s"] = (traced_round - reference["wall_s"]) / per_round
    out["trace.self_share"] = (rs["wall_s"] - rs["root_self_s"]) / rs["wall_s"]

    units = {"calls": "1/op", "cols_mb": "MB/op", "weights_mb": "MB/op", "ops": "1/op",
             "provider_ops": "1/op", "tape_nodes": "nodes", "self_share": "share"}
    result = {}
    for name, value in out.items():
        suffix = name.rsplit(".", 1)[1]
        unit = units.get(suffix, "s/op")
        if name == "data.synth_s":
            unit = "s"
        result[name] = (value, unit)

    print(f"trace: {rs['spans']} spans over {rs['wall_s']:.3f} s traced wall; layer self times "
          f"cover {100 * out['trace.self_share']:.2f}%; overhead "
          f"{traced_round - reference['wall_s']:+.3f} s per round on an untraced round of "
          f"{reference['wall_s']:.3f} s")
    top = sorted(names.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    for nm, row in top:
        print(f"trace self {nm:32s} {row['self_s']:9.3f} s {100 * row['self_s'] / rs['wall_s']:6.2f}% "
              f"calls={row['calls']}")
    if out["trace.self_share"] < 0.95:
        print("trace WARNING: layer self times cover less than 95% of the traced wall time")
    for phase, summary in (("rounds", rs), ("setup", ss)):
        tracers[phase].write(OUT / f"trace-{args.workload}-seed{args.seed}-{phase}", summary)
    return result


if __name__ == "__main__":
    sys.exit(main())
