"""The benchmark's workloads: set-up, one round, output checks, end-to-end metrics.

Imported only after the run has pinned the BLAS thread count and put the
checkout's src/ first on the import path.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
from semfuse import cli, data, imageio, instrumentation, networks, priors, training

LOSS_PARTS = ("fea", "grad", "mse", "context", "cs_ir", "cs_vis", "cs", "seg",
              "total_sub", "total_main")


class StdoutClock(io.TextIOBase):
    """Captures a command's stdout and timestamps each `step=` progress line."""

    def __init__(self):
        self.entry = None
        self.marks = []
        self.chunks = []

    def write(self, s):
        if s.startswith("step="):
            self.marks.append(time.perf_counter())
        self.chunks.append(s)
        return len(s)

    def text(self) -> str:
        return "".join(self.chunks)


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class TrainBench:
    """`semfuse train --synthetic` rounds of a fixed step count."""

    def __init__(self, wl: dict, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.checksum = ""
        self.check_summary = ""
        self._clock = None

        def timed_alternate_train(*a, **k):
            self._clock.entry = time.perf_counter()
            # looked up at call time so a traced run reaches the traced wrapper
            return training.alternate_train(*a, **k)

        cli.alternate_train = timed_alternate_train

    def setup(self):
        """What `semfuse train --synthetic` builds before its first step."""
        wl = self.wl
        for i in range(wl["pairs"]):
            data.synth_pair(self.seed + i, wl["crop"], wl["crop"])
        networks.TeacherNet(networks.TeacherConfig(), seed=self.seed + 1)
        networks.StudentNet(networks.StudentConfig(), seed=self.seed + 2)
        priors.PriorProvider()

    def round(self) -> dict:
        wl = self.wl
        out = self.work / "train"
        argv = ["train", "--synthetic", str(wl["pairs"]), "--crop", str(wl["crop"]),
                "--batch", str(wl["batch"]), "--steps", str(wl["steps"]),
                "--seed", str(self.seed), "--out", str(out)]
        self._clock = clock = StdoutClock()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(clock):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        res = {"ok": code == 0, "ops": wl["steps"], "wall_s": wall, "code": code}
        if not res["ok"] or clock.entry is None or len(clock.marks) != wl["steps"]:
            res["ok"] = False
            print(clock.text(), file=sys.stderr)
            return res
        # Mean step of each epoch: an epoch covers every pair once, so its
        # cost does not depend on how the pairs fell into batches.
        per_epoch = self.steps_per_epoch()
        marks = [clock.entry] + clock.marks
        res["epoch_step_s"] = [(marks[e + per_epoch] - marks[e]) / per_epoch
                               for e in range(0, wl["steps"], per_epoch)]
        res["csv"] = (out / "train.csv").read_bytes()
        res["ckpt_sha"] = sha256_files([out / "main.ckpt", out / "sub.ckpt"])
        final = [ln for ln in clock.text().splitlines() if ln.startswith("final total_sub=")]
        res["checksum"] = final[-1].rsplit("checksum=", 1)[1] if final else ""
        return res

    def steps_per_epoch(self) -> int:
        return -(-self.wl["pairs"] // self.wl["batch"])

    def check(self, rounds) -> list:
        problems = []
        good = [r for r in rounds if r["ok"]]
        if not good:
            return ["no training round completed"]
        first = good[0]
        lines = first["csv"].decode().splitlines()
        header = lines[0].split(",")
        missing = [c for c in ("step",) + LOSS_PARTS if c not in header]
        if missing:
            return [f"train.csv lacks columns {missing}"]
        rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
        if [int(r["step"]) for r in rows] != list(range(1, self.wl["steps"] + 1)):
            problems.append(f"train.csv steps {[r['step'] for r in rows]} are not 1..{self.wl['steps']}")
        for r in rows:
            for part in LOSS_PARTS:
                v = r[part]
                if not (np.isfinite(v) and v >= 0.0):
                    problems.append(f"step {int(r['step'])}: {part}={v} is not finite and >= 0")
            total_sub = r["fea"] + (r["grad"] + r["mse"]) + (r["cs_ir"] + r["cs_vis"])
            for name, got, want in (("total_sub", r["total_sub"], total_sub),
                                    ("total_main", r["total_main"], total_sub + r["seg"])):
                if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                    problems.append(f"step {int(r['step'])}: {name}={got!r} but the parts give {want!r}")
        # Steps within an epoch see different batches, so the loss is compared
        # between the first and the last epoch, which cover the same pairs.
        per_epoch = self.steps_per_epoch()
        subs = [r["total_sub"] for r in rows]
        first_epoch, last_epoch = statistics.fmean(subs[:per_epoch]), statistics.fmean(subs[-per_epoch:])
        if not last_epoch < first_epoch:
            problems.append(f"epoch-mean total_sub did not fall: {first_epoch!r} -> {last_epoch!r}")
        self.checksum = first["checksum"]
        if not self.checksum:
            problems.append("train printed no checksum")
        for r in good[1:]:
            if (r["checksum"], r["csv"], r["ckpt_sha"]) != (first["checksum"], first["csv"], first["ckpt_sha"]):
                problems.append("a repeated round gave a different checksum, train.csv or checkpoint")
                break
        self.check_summary = (f"{len(rows)} steps/round, loss parts finite and additive, epoch-mean "
                              f"total_sub {first_epoch:.4f} -> {last_epoch:.4f}, "
                              f"{len(good)} rounds identical")
        return problems

    def end_to_end(self, rounds) -> dict:
        wl = self.wl
        step_s = statistics.median(s for r in rounds if r["ok"] for s in r["epoch_step_s"])
        return {"step_s": (step_s, "s"),
                "fuse_mpix_per_s": (wl["batch"] * wl["crop"] ** 2 / 1e6 / step_s, "Mpix/s")}


class FuseBench:
    """`semfuse fuse` then `semfuse eval` over a directory of seeded pairs."""

    def __init__(self, wl: dict, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.inputs = work / "pairs"
        self.ckpt = work / "sub.ckpt"
        self.colour_stems = set()
        self.checksum = ""
        self.check_summary = ""

    def setup(self):
        """Seeded source pairs on disk and a seeded student checkpoint."""
        wl = self.wl
        size = wl["size"]
        self.inputs.mkdir(parents=True, exist_ok=True)
        yy, xx = np.mgrid[0:size, 0:size] / size
        for i in range(wl["gray"] + wl["colour"]):
            stem = f"pair{i:03d}"
            vis, ir = data.synth_pair(self.seed + i, size, size)
            imageio.save_image(imageio.Image(ir), self.inputs / f"{stem}.ir.pgm")
            if i < wl["gray"]:
                imageio.save_image(imageio.Image(vis), self.inputs / f"{stem}.vis.pgm")
                continue
            # colour source: the synthetic luma with smooth seeded chroma
            fx, fy, phase = np.random.default_rng([self.seed, i, 7]).uniform(1.0, 3.0, 3)
            cb = 0.5 + 0.15 * np.sin(2 * np.pi * fx * xx + phase)
            cr = 0.5 + 0.15 * np.cos(2 * np.pi * fy * yy - phase)
            rgb = oracle.quantize(oracle.join_luma(vis, cb, cr)) / 255.0
            imageio.save_image(imageio.Image(rgb), self.inputs / f"{stem}.vis.ppm")
            self.colour_stems.add(stem)
        student = networks.StudentNet(networks.StudentConfig(), seed=self.seed)
        networks.save_checkpoint(self.ckpt, student)

    def round(self) -> dict:
        n = self.wl["gray"] + self.wl["colour"]
        fused, out = self.work / "fused", self.work / "eval"
        captured = io.StringIO()
        res = {"ok": False, "ops": n}
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                before = instrumentation.snapshot()
                code_f = cli.main(["fuse", "--data", str(self.inputs), "--ckpt",
                                        str(self.ckpt), "--out", str(fused)])
                t1 = time.perf_counter()
                moved = {k: v for k, v in instrumentation.delta(before).items() if v}
                code_e = cli.main(["eval", "--data", str(self.inputs), "--fused",
                                        str(fused), "--out", str(out)])
        except Exception:
            traceback.print_exc()
            code_f = code_e = None
            t1 = time.perf_counter()
            moved = {}
        t2 = time.perf_counter()
        res.update(wall_s=t2 - t0, fuse_s=t1 - t0, moved=moved)
        if code_f != 0 or code_e != 0:
            print(captured.getvalue(), file=sys.stderr)
            return res
        res["ok"] = True
        res["outputs"] = {p.name: p.read_bytes() for p in sorted(fused.iterdir())}
        res["metrics_csv"] = (out / "metrics.csv").read_text()
        return res

    def check(self, rounds) -> list:
        problems = []
        good = [r for r in rounds if r["ok"]]
        if not good:
            return ["no fuse round completed"]
        for r in rounds:
            if r.get("moved"):
                problems.append(f"fuse moved the provider/attention counters: {r['moved']}")
                break
        first = good[0]
        params = oracle.read_checkpoint(self.ckpt)
        stems = sorted(p.name[:-len(".ir.pgm")] for p in self.inputs.glob("*.ir.pgm"))
        worst, off_by_one, planes = 0, 0, {}
        for stem in stems:
            colour = stem in self.colour_stems
            name = f"{stem}.fused.{'ppm' if colour else 'pgm'}"
            if name not in first["outputs"]:
                problems.append(f"fuse wrote no {name}")
                continue
            ir = oracle.parse_pnm((self.inputs / f"{stem}.ir.pgm").read_bytes()) / 255.0
            src = oracle.parse_pnm((self.inputs / f"{stem}.vis.{'ppm' if colour else 'pgm'}").read_bytes())
            luma = oracle.student_forward(params, oracle.gray(src), ir)
            if colour:
                _, cb, cr = oracle.split_luma(src)
                want = oracle.quantize(oracle.join_luma(luma, cb, cr))
            else:
                want = oracle.quantize(luma)
            got_u8 = oracle.parse_pnm(first["outputs"][name])
            got = got_u8.astype(np.int64)
            if got.shape != want.shape:
                problems.append(f"{name}: shape {got.shape}, expected {want.shape}")
                continue
            diff = np.abs(got - want)
            worst = max(worst, int(diff.max()))
            off_by_one += int(np.count_nonzero(diff))
            if diff.max() > 1:
                problems.append(f"{name}: {int(np.count_nonzero(diff > 1))} pixels differ from the "
                                f"reference student by more than one level (max {int(diff.max())})")
            planes[stem] = (oracle.gray(got_u8), oracle.gray(src), ir)
        problems += self._check_metrics(first["metrics_csv"], planes)
        # metrics.csv names each fused file by its path, which holds the
        # per-process work directory; the checksum keeps only the file name.
        csv_rows = first["metrics_csv"].replace(f"{self.work / 'fused'}{os.sep}", "")
        self.checksum = hashlib.sha256(
            b"".join(k.encode() + v for k, v in sorted(first["outputs"].items()))
            + csv_rows.encode()).hexdigest()
        for r in good[1:]:
            if r["outputs"] != first["outputs"] or r["metrics_csv"] != first["metrics_csv"]:
                problems.append("a repeated round wrote different fused images or metrics")
                break
        self.check_summary = (f"{len(stems)} pairs match the reference student within "
                              f"{worst} level ({off_by_one} pixels off by one), counters flat, "
                              f"EN/SD/SCD recomputed, {len(good)} rounds identical")
        return problems

    def _check_metrics(self, text, planes) -> list:
        problems = []
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        seen = set()
        for ln in lines[1:]:
            row = dict(zip(header, ln.split(",")))
            stem = Path(row["path"]).name.split(".fused.")[0]
            seen.add(stem)
            if stem not in planes:
                continue
            fused, vis, ir = planes[stem]
            for key, want in (("en", oracle.entropy(fused)), ("sd", oracle.std255(fused)),
                              ("scd", oracle.scd(fused, vis, ir))):
                got = float(row[key])
                if abs(got - want) > 1e-9:
                    problems.append(f"{stem}: {key}={got!r} but recomputed {want!r}")
            if not float(row["ms_ssim_mean"]) <= 1.0 or not float(row["ms_ssim_sum"]) <= 2.0:
                problems.append(f"{stem}: MS-SSIM above 1: {row['ms_ssim_mean']}, {row['ms_ssim_sum']}")
        if seen != set(planes):
            problems.append(f"metrics.csv rows {sorted(seen)} do not match pairs {sorted(planes)}")
        return problems

    def end_to_end(self, rounds) -> dict:
        good = [r for r in rounds if r["ok"]]
        n = self.wl["gray"] + self.wl["colour"]
        mpix = n * self.wl["size"] ** 2 / 1e6
        return {"step_s": (statistics.median(r["wall_s"] / n for r in good), "s"),
                "fuse_mpix_per_s": (statistics.median(mpix / r["fuse_s"] for r in good), "Mpix/s")}
