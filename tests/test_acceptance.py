"""Acceptance gate: eight criteria, one visible pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`; each criterion records an
`acceptance N [PASS|FAIL]` verdict line that conftest emits in the
terminal summary, visible in any capture mode. Criterion 4 trains the
default networks for 200 alternating steps and is the slow one (minutes).
"""
import functools
import time

import numpy as np

from semfuse import autodiff as ad
from semfuse import training
from semfuse.attention import (AttentionParams, PersistentRepository,
                               build_repository, cross_attend)
from semfuse.autodiff import Tensor
from semfuse.cli import main as cli_main
from semfuse.data import synth_pair, write_dataset
from semfuse.gradcheck import build_suite
from semfuse.imageio import Image, load_image, save_image
from semfuse.instrumentation import snapshot
from semfuse.losses import loss_context, loss_cs, loss_fea, loss_seg
from semfuse.metrics import entropy, ms_ssim, scd, sd
from semfuse.networks import (StudentConfig, StudentNet, TeacherConfig,
                              TeacherNet, save_checkpoint)
from semfuse.priors import PriorProvider, random_rect_masks
from semfuse.training import Ablations, TrainConfig, alternate_train, make_state


VERDICTS: list = []


def criterion(n, label):
    """Record one pass/fail verdict line per criterion."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                VERDICTS.append(f"acceptance {n} [FAIL] {label}")
                raise
            extra = f": {detail}" if detail else ""
            VERDICTS.append(f"acceptance {n} [PASS] {label}{extra}")
        return wrapper
    return deco


@criterion(1, "gradient suite, every loss term and network path")
def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    results = [runner() for _name, runner in build_suite(seed=0)]
    elapsed = time.perf_counter() - start
    assert results, "suite produced no checks"
    for res in results:
        assert res.passed, res.line()
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s, budget is 120s"
    worst = max(r.worst for r in results)
    return f"{len(results)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s"


@criterion(2, "loss identities and additivity")
def test_criterion_2_loss_identities():
    rng = np.random.default_rng(2)
    feats = [Tensor(rng.normal(size=(4, 8, 8))), Tensor(rng.normal(size=(8, 4, 4)))]
    assert abs(float(loss_fea(feats, feats).data)) <= 1e-9

    img = Tensor(rng.uniform(0.0, 1.0, size=(1, 16, 16)))
    g, m = loss_context(img, img)
    assert float(g.data) == 0.0 and float(m.data) == 0.0

    provider = PriorProvider()
    vis_np, ir_np = synth_pair(7, 16, 16)
    mask_rng = np.random.default_rng(3)
    mv = random_rect_masks(vis_np, 3, mask_rng)
    mi = random_rect_masks(ir_np, 3, mask_rng)
    ref = Tensor(rng.uniform(0.2, 0.8, size=(1, 16, 16)))
    cs_ir, cs_vis = loss_cs(ref, ref, Tensor(vis_np[None]), Tensor(ir_np[None]),
                            mv, mi, provider.encoder)
    assert abs(float(cs_ir.data)) <= 1e-12
    assert abs(float(cs_vis.data)) <= 1e-12

    uniform = Tensor(np.full((4, 8, 8), 0.25))
    labels = np.random.default_rng(4).integers(0, 4, size=(8, 8))
    seg = float(loss_seg(uniform, labels).data)
    assert abs(seg - np.log(4.0)) <= 1e-9

    # graph total equals the sum of independently logged parts
    teacher = TeacherNet(TeacherConfig(base_channels=4, heads=2, head_dim=4), seed=1)
    student = StudentNet(StudentConfig(stem_channels=8, growth=4,
                                       layers_per_block=4, blocks=3,
                                       tap_width=8), seed=2)
    state = make_state(teacher, student, TrainConfig(crop=16, batch=2))
    batch = [synth_pair(10 + i, 16, 16) for i in range(2)]
    total, parts, _gap = training._batch_objective(state, batch, need_seg=True)
    assert abs(total - sum(parts.values())) <= 1e-9
    total_sub = parts["fea"] + parts["grad"] + parts["mse"] + \
        parts["cs_ir"] + parts["cs_vis"]
    assert abs((total_sub + parts["seg"]) - total) <= 1e-9
    return "fea/context/cs zero, seg=log4, totals additive"


@criterion(3, "attention invariants")
def test_criterion_3_attention_invariants():
    d, heads, head_dim = 8, 2, 4
    rng = np.random.default_rng(31)
    p = AttentionParams(rng, heads, head_dim, "stage", own_z=True, own_kv=True)
    feats = Tensor(rng.normal(size=(d, 3, 3)))
    repo = build_repository(feats, p)

    sink = []
    q = Tensor(rng.normal(size=(d, 3, 3)))
    cross_attend(q, repo, p, "vis", weights_sink=sink)
    assert len(sink) == heads
    for w in sink:
        assert np.all(w.data >= 0)
        assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-6)

    single = build_repository(Tensor(rng.normal(size=(d, 1, 1))), p)
    out = cross_attend(Tensor(rng.normal(size=(d, 1, 1))), single, p, "ir")
    expected = p.attn_out.w.data @ single.v.data + p.attn_out.b.data
    assert np.allclose(out.data.reshape(d, 1), expected, atol=1e-12)

    dup = PersistentRepository(
        z=Tensor(np.concatenate([repo.z.data, repo.z.data], axis=1)),
        k=Tensor(np.concatenate([repo.k.data, repo.k.data], axis=1)),
        v=Tensor(np.concatenate([repo.v.data, repo.v.data], axis=1)))
    a = cross_attend(q, repo, p, "vis")
    b = cross_attend(q, dup, p, "vis")
    assert np.allclose(a.data, b.data, atol=1e-6)

    grad_feats = Tensor(rng.normal(size=(d, 3, 3)), requires_grad=True)
    live = build_repository(grad_feats, p)
    before = live.checksum()
    out = cross_attend(Tensor(rng.normal(size=(d, 3, 3)), requires_grad=True),
                       live, p, "vis")
    ad.backward(ad.tsum(ad.square(out)))
    assert live.checksum() == before
    return "row-stochastic, single-key, duplication, immutability"


@criterion(4, "bi-level dynamics on the seeded 8-pair set")
def test_criterion_4_bilevel_dynamics():
    pairs = [synth_pair(i, 32, 32) for i in range(8)]
    cfg = TrainConfig(seed=0, crop=32, batch=4, steps=200)
    teacher = TeacherNet(TeacherConfig(), seed=1)
    student = StudentNet(StudentConfig(), seed=2)
    report = alternate_train(teacher, student, pairs, cfg, verbose=False)
    assert not report.diverged
    assert len(report.rows) == 200
    first, last = report.rows[0].total_sub, report.rows[-1].total_sub
    assert last <= 0.5 * first, f"total_sub {first:.4f} -> {last:.4f}"
    gap_first, gap_last = report.epoch_gap[0], report.epoch_gap[-1]
    assert gap_last < gap_first, f"epoch gap {gap_first:.4f} -> {gap_last:.4f}"

    off_cfg = TrainConfig(seed=0, crop=32, batch=4, steps=200,
                          ablations=Ablations(offline=True))
    off_teacher = TeacherNet(TeacherConfig(), seed=1)
    off_student = StudentNet(StudentConfig(), seed=2)
    off = alternate_train(off_teacher, off_student, pairs, off_cfg,
                          verbose=False)
    assert len(off.rows) == 400
    off_final = off.rows[-1].total_sub
    assert np.isfinite(off_final)
    return (f"total_sub {first:.4f}->{last:.4f}, gap {gap_first:.4f}->"
            f"{gap_last:.4f}, offline final total_sub={off_final:.4f}")


@criterion(5, "inference runs zero provider/attention operations")
def test_criterion_5_decoupled_inference(tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(data, 2, h=16, w=16, seed=3)
    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    save_checkpoint(ckpt_dir / "sub.ckpt", StudentNet(StudentConfig(), seed=0))
    before = snapshot()
    rc = cli_main(["fuse", "--data", str(data), "--ckpt", str(ckpt_dir),
                   "--out", str(tmp_path / "fused")])
    capsys.readouterr()
    after = snapshot()
    assert rc == 0
    assert after.get("provider", 0) == before.get("provider", 0)
    assert after.get("attention", 0) == before.get("attention", 0)
    assert (tmp_path / "fused" / "pair000.fused.pgm").exists()
    return "counters flat across cmd_fuse"


@criterion(6, "default sub-network within the size budget")
def test_criterion_6_size_target(capsys):
    rc = cli_main(["info"])
    out = capsys.readouterr().out
    assert rc == 0
    totals = [int(line.split()[2]) for line in out.splitlines()
              if line.startswith("sub total ")]
    assert len(totals) == 1
    assert totals[0] <= 200_000
    return f"sub total {totals[0]} <= 200000"


@criterion(7, "metric oracles")
def test_criterion_7_metric_oracles():
    const = np.full((16, 16), 0.5)
    assert entropy(const) == 0.0
    assert sd(const) == 0.0

    levels = (np.arange(256) / 255.0).reshape(16, 16)
    assert entropy(levels) == 8.0

    bimodal = np.zeros((16, 16))
    bimodal[:8] = 1.0
    assert sd(bimodal) == 127.5

    rng = np.random.default_rng(71)
    a = rng.uniform(0.0, 1.0, size=(176, 176))
    b = rng.uniform(0.0, 1.0, size=(176, 176))
    assert abs(ms_ssim(a, a) - 1.0) <= 1e-6
    assert abs(ms_ssim(a, b) - ms_ssim(b, a)) <= 1e-9

    vis = rng.uniform(0.0, 1.0, size=(32, 32))
    ir = rng.uniform(0.0, 1.0, size=(32, 32))
    assert abs(scd(vis + ir, vis, ir) - 2.0) <= 1e-9
    return "EN/SD/MS-SSIM/SCD all on target"


@criterion(8, "determinism and image I/O round trips")
def test_criterion_8_determinism(tmp_path, capsys):
    def train_run(name):
        out = tmp_path / name
        rc = cli_main(["train", "--synthetic", "2", "--steps", "2",
                       "--batch", "2", "--crop", "16", "--seed", "5",
                       "--out", str(out), "--quiet"])
        capsys.readouterr()
        assert rc == 0
        return tuple((out / f).read_bytes()
                     for f in ("main.ckpt", "sub.ckpt", "train.csv"))

    run_a, run_b = train_run("a"), train_run("b")
    assert run_a == run_b

    data = tmp_path / "data"
    write_dataset(data, 2, h=16, w=16, seed=8)
    fused_blobs = []
    for name in ("f1", "f2"):
        rc = cli_main(["fuse", "--data", str(data),
                       "--ckpt", str(tmp_path / "a" / "sub.ckpt"),
                       "--out", str(tmp_path / name)])
        capsys.readouterr()
        assert rc == 0
        fused_blobs.append((tmp_path / name / "pair000.fused.pgm").read_bytes())
    assert fused_blobs[0] == fused_blobs[1]

    rng = np.random.default_rng(88)
    gray = np.round(rng.uniform(0.0, 1.0, size=(9, 7)) * 255) / 255.0
    color = np.round(rng.uniform(0.0, 1.0, size=(5, 6, 3)) * 255) / 255.0
    for img, ext in ((gray, "pgm"), (color, "ppm")):
        p1 = tmp_path / f"rt1.{ext}"
        p2 = tmp_path / f"rt2.{ext}"
        save_image(Image(img), p1)
        save_image(load_image(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
    return "train/fuse byte-identical, PGM/PPM round trips exact"
