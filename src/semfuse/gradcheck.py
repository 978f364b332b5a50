"""Central finite-difference verification of backward rules.

`check_scalar_fn` is the single entry point used by both the test suite
and the `gradcheck` CLI command. The caller supplies a closure that
rebuilds a scalar loss from the current contents of some named tensors;
the checker compares reverse-mode gradients against symmetric finite
differences on a deterministic sample of coordinates per tensor.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .autodiff import Tensor, frozen

REL_TOL = 1e-4
FD_STEP = 1e-5
COORDS_PER_TENSOR = 64
JITTER = 1e-3


def rel_err(auto: float, fd: float) -> float:
    err = abs(auto - fd) / max(1e-8, abs(fd))
    return np.inf if np.isnan(err) else err  # a NaN on either side fails


@dataclass
class CheckResult:
    name: str
    worst: float = 0.0
    per_tensor: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst <= REL_TOL

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"{self.name:<28s} worst_rel_err={self.worst:.3e}  [{status}]"


def jitter(tensors, seed: int) -> None:
    """Nudge tensors off non-generic points before finite differencing.

    Freshly built networks start with zero biases, which parks masked-out
    activations exactly on the leaky-relu kink where central differences
    straddle two slopes. A tiny seeded perturbation moves the check to a
    differentiable point without touching what is being verified.
    """
    rng = np.random.default_rng(seed)
    for t in tensors:
        t.data = t.data + rng.uniform(-JITTER, JITTER, size=t.data.shape)


def _coords_for(name: str, size: int, n: int, seed: int) -> np.ndarray:
    # Deterministic per (suite seed, tensor name); independent of dict order.
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    take = min(n, size)
    return rng.choice(size, size=take, replace=False)


def build_suite(seed: int = 0) -> list:
    """Named finite-difference checks covering every loss term and both
    network forward paths, plus the ablated attention wirings.

    Networks run at reduced widths on 16x16 inputs so the whole suite
    stays well under the two-minute budget; the backward rules under test
    are width-independent. Returns ordered (name, runner) pairs where
    each runner() -> CheckResult.
    """
    # late imports: this module is also used by the autodiff unit tests,
    # which should not drag the whole pipeline in
    from . import autodiff as ad
    from . import losses
    from .attention import OWNS, VARIANTS, AttentionParams, attention_stage, build_repository
    from .data import synth_pair
    from .networks import StudentConfig, StudentNet, TeacherConfig, TeacherNet
    from .priors import PriorProvider, random_rect_masks

    slim_t = TeacherConfig(base_channels=4, heads=2, head_dim=4)
    slim_s = StudentConfig(stem_channels=8, growth=4, layers_per_block=4, blocks=3,
                           tap_width=8)

    def stream(tag: str):
        # per-check stream so a --term run sees the same draws as the full suite
        rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])

        def rand(*shape):
            return Tensor(rng.uniform(0.2, 0.8, size=shape))
        return rng, rand

    def smooth_patches(img: np.ndarray) -> list:
        # complementary nowhere-zero patches: hard-masked zero plateaus
        # would park pre-activations on the leaky-relu kink under FD
        ramp = np.linspace(0.2, 0.8, img.shape[0])[:, None] * np.ones_like(img)
        return [img * ramp, img * (1.0 - ramp)]

    def net_scalar(out: Tensor, feats: list) -> Tensor:
        total = ad.tmean(ad.square(out))
        for f in feats:
            total = total + ad.tmean(ad.square(f))
        return total

    checks = []

    def fea():
        _, rand = stream("fea")
        shapes = [(4, 8, 8), (4, 4, 4), (4, 2, 2)]
        taps = [rand(*s) for s in shapes]
        feats = [rand(*s) for s in shapes]
        wrt = {f"tap{i}": t for i, t in enumerate(taps)}
        wrt.update({f"feat{i}": t for i, t in enumerate(feats)})
        return check_scalar_fn("fea", lambda: losses.loss_fea(taps, feats), wrt, seed=seed)

    def context():
        _, rand = stream("context")
        ref, fus, vis, ir = (rand(1, 16, 16) for _ in range(4))

        def build():
            g, m = losses.context_bundle(ref, fus, vis, ir)
            return g + m
        # smaller step than the default: at 1e-5 the difference straddles
        # the kink of absval (seed 6: 6.0e-3 on fus, growing with the step),
        # while at 1e-6 seeds 0-11 stay within 3.0e-6
        return check_scalar_fn("context", build,
                               {"ref": ref, "fus": fus, "vis": vis, "ir": ir},
                               h=1e-6, seed=seed)

    def cs():
        mask_rng, rand = stream("cs")
        vis_np, ir_np = synth_pair(seed, 16, 16)
        provider = PriorProvider()
        mv = random_rect_masks(vis_np, 3, mask_rng)
        mi = random_rect_masks(ir_np, 3, mask_rng)
        ref, fus, vis, ir = (rand(1, 16, 16) for _ in range(4))

        def build():
            cs_ir, cs_vis = losses.loss_cs(fus, ref, vis, ir, mv, mi, provider.encoder)
            return cs_ir + cs_vis
        return check_scalar_fn("cs", build,
                               {"ref": ref, "fus": fus, "vis": vis, "ir": ir}, seed=seed)

    def seg():
        label_rng, rand = stream("seg")
        provider = PriorProvider()
        stub = provider.stub
        ref = rand(1, 16, 16)
        labels = label_rng.integers(0, stub.n_classes, size=(16, 16))
        return check_scalar_fn(
            "seg", lambda: losses.loss_seg(stub.forward(ref), labels),
            {"ref": ref}, seed=seed)

    def teacher():
        net = TeacherNet(slim_t, seed=seed + 3)
        jitter(net.parameters(), seed=seed + 4)
        vis_np, ir_np = synth_pair(seed + 1, 16, 16)
        pv = smooth_patches(vis_np)
        pi = smooth_patches(ir_np)

        def build():
            ref, feats = net.forward(vis_np, ir_np, pv, pi)
            return net_scalar(ref, feats)
        # smaller step than the default: at 1e-5 a deep stack of leaky-relu
        # layers straddles a kink on the odd bias coordinate, while below
        # ~1e-6 the roundoff floor swamps the smallest softmax gradients
        return check_scalar_fn("teacher", build, dict(net.named_parameters()),
                               h=2e-6, seed=seed)

    def student():
        net = StudentNet(slim_s, seed=seed + 5)
        jitter(net.parameters(), seed=seed + 6)
        vis_np, ir_np = synth_pair(seed + 2, 16, 16)

        def build():
            taps = []
            fus = net.forward(vis_np, ir_np, taps)
            return net_scalar(fus, taps)
        return check_scalar_fn("student", build, dict(net.named_parameters()),
                               h=1e-6, seed=seed)

    def attn_variant(name: str, variant: str):
        # The ablated wirings are verified at stage level on uniform random
        # tokens: a deep probe is useless for the repository-free variant,
        # whose late-stage softmax saturates until the true query/key
        # gradients drown in FD roundoff.
        def run():
            rng_local, rand = stream(name)
            p = AttentionParams(rng_local, 2, 4, "stage0", *OWNS[variant])
            fv, fi, src = (rand(p.d, 6, 6) for _ in range(3))

            def build():
                repo = None if variant == "no_pr" else build_repository(src, p)
                merged, av, ai = attention_stage(fv, fi, repo, p)
                return net_scalar(merged, [av, ai])
            wrt = {"feats_vis": fv, "feats_ir": fi}
            if variant != "no_pr":
                wrt["src"] = src
            wrt.update(p.named())
            # larger step than the default: at 1e-5 FD roundoff alone broke
            # the bound (attn_no_z, seed 5: 1.3e-4; 1.2e-5 at 1e-4)
            return check_scalar_fn(name, build, wrt, h=1e-4, seed=seed)
        return run

    checks.append(("fea", fea))
    checks.append(("context", context))
    checks.append(("cs", cs))
    checks.append(("seg", seg))
    checks.append(("teacher", teacher))
    checks.append(("student", student))
    for variant in VARIANTS:
        checks.append((f"attn_{variant}", attn_variant(f"attn_{variant}", variant)))
    return checks


def check_scalar_fn(name: str,
                    build: Callable[[], Tensor],
                    wrt: Mapping[str, Tensor],
                    n_coords: int = COORDS_PER_TENSOR,
                    h: float = FD_STEP,
                    seed: int = 0) -> CheckResult:
    """Compare reverse-mode and finite-difference gradients of `build()`.

    `wrt` must contain only tensors that actually feed the scalar; a
    disconnected tensor has zero analytic gradient but its FD estimate is
    pure rounding noise, which the relative-error criterion rejects.
    """
    params = list(wrt.items())
    for _, t in params:
        t.requires_grad = True
        t.zero_grad()
    loss = build()
    loss.backward()
    auto = {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
            for n, t in params}

    # Finite differences run with gradients disabled so the closures are
    # evaluated as plain numpy pipelines.
    result = CheckResult(name)
    try:
        with frozen(wrt.values()):
            for pname, t in params:
                flat = t.data.reshape(-1)
                worst = 0.0
                for c in _coords_for(f"{name}/{pname}", flat.size, n_coords, seed):
                    keep = flat[c]
                    flat[c] = keep + h
                    lp = build().item()
                    flat[c] = keep - h
                    lm = build().item()
                    flat[c] = keep
                    fd = (lp - lm) / (2.0 * h)
                    worst = max(worst, rel_err(float(auto[pname].reshape(-1)[c]), fd))
                result.per_tensor[pname] = worst
                result.worst = max(result.worst, worst)
    finally:
        for _, t in params:
            t.zero_grad()
    return result
