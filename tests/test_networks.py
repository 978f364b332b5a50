"""Network shapes, parameter accounting, checkpoints, gradient flow."""
import functools
import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse.attention import VARIANTS
from semfuse.autodiff import Tensor
from semfuse.data import synth_pair
from semfuse.errors import CheckpointError, ContractError, ShapeError
from semfuse.gradcheck import build_suite, check_scalar_fn, jitter
from semfuse.networks import (STAGES, StudentConfig, StudentNet, TeacherConfig,
                              TeacherNet, dense_block, load_checkpoint,
                              param_count, save_checkpoint)
from semfuse.priors import PriorProvider, make_patches

RNG = np.random.default_rng(99)


def sources(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(h, w)), rng.uniform(size=(h, w))


def simple_patches(img):
    half = np.zeros_like(img)
    half[: img.shape[0] // 2] = img[: img.shape[0] // 2]
    return [half, img - half]


def smooth_patches(img):
    # finite-difference checks need a generic point: hard-masked patches
    # carry exact-zero plateaus that park pre-activations on the leaky_relu
    # kink, where central differences straddle two slopes
    ramp = np.linspace(0.2, 0.8, img.shape[0])[:, None] * np.ones_like(img)
    return [img * ramp, img * (1.0 - ramp)]


# slim widths keep full finite-difference passes cheap; every code path
# (stages, blocks, adapters, decoder) is identical to the default config
SLIM_TEACHER = TeacherConfig(base_channels=4, heads=2, head_dim=4)
SLIM_STUDENT = StudentConfig(stem_channels=8, growth=4, layers_per_block=4, blocks=3, tap_width=8)


class TestShapes:
    @pytest.mark.parametrize("h,w", [(32, 32), (48, 64)])
    def test_teacher_output_matches_input_size(self, h, w):
        net = TeacherNet(seed=3)
        vis, ir = sources(h, w)
        out, feats = net.forward(vis, ir, simple_patches(vis), simple_patches(ir))
        assert out.shape == (1, h, w)
        assert len(feats) == 3
        assert all(f.shape == (32, (h + 1) // 2, (w + 1) // 2) for f in feats)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    @pytest.mark.parametrize("h,w", [(32, 32), (48, 64), (17, 23)])
    def test_student_output_matches_input_size(self, h, w):
        net = StudentNet(seed=4)
        vis, ir = sources(h, w, seed=1)
        taps = []
        out = net.forward(vis, ir, taps)
        assert out.shape == (1, h, w)
        assert len(taps) == 3
        assert all(t.shape == (32, (h + 1) // 2, (w + 1) // 2) for t in taps)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_teacher_student_features_align(self):
        t = TeacherNet(seed=5)
        s = StudentNet(seed=6)
        vis, ir = sources(32, 32, seed=2)
        _, tf = t.forward(vis, ir, simple_patches(vis), simple_patches(ir))
        sf = []
        s.forward(vis, ir, sf)
        assert [a.shape for a in tf] == [b.shape for b in sf]

    def test_teacher_token_width_is_heads_times_head_dim(self):
        net = TeacherNet(TeacherConfig(base_channels=4, heads=2, head_dim=4))
        assert [p.d for p in net.stages] == [8] * STAGES

    def test_mismatched_sources_rejected(self):
        net = StudentNet()
        with pytest.raises(ShapeError):
            net.forward(np.zeros((8, 8)), np.zeros((8, 9)))

    def test_empty_patches_rejected(self):
        net = TeacherNet()
        vis, ir = sources(16, 16)
        with pytest.raises(ContractError):
            net.forward(vis, ir, [], [])

    @pytest.mark.parametrize("empty", ["vis", "ir"])
    def test_one_empty_patch_list_rejected(self, empty):
        net = TeacherNet(SLIM_TEACHER)
        vis, ir = sources(16, 16)
        pv = [] if empty == "vis" else simple_patches(vis)
        pi = [] if empty == "ir" else simple_patches(ir)
        with pytest.raises(ContractError):
            net.forward(vis, ir, pv, pi)


class TestDenseBlock:
    def test_channel_growth_law(self):
        rng = np.random.default_rng(0)
        layers = []
        c0, g = 8, 4
        for j in range(3):
            cin = c0 + g * j
            w = Tensor(rng.normal(size=(g, cin, 3, 3)) * 0.1, requires_grad=True)
            b = Tensor(np.zeros(g), requires_grad=True)
            layers.append((w, b))
        x = Tensor(rng.normal(size=(c0, 6, 6)))
        out = dense_block(x, layers)
        assert out.shape == (c0 + 3 * g, 6, 6)
        assert np.array_equal(out.data[:c0], x.data)    # input concatenated through

    @staticmethod
    def concat_per_layer(x, layer_params):
        """The block as first written: every layer convolves a fresh concat."""
        feats = [x]
        for w, b in layer_params:
            cur = feats[0] if len(feats) == 1 else ad.concat(feats)
            out = ad.conv2d(cur, w, padding=1) + ad.reshape(b, (b.data.size, 1, 1))
            feats.append(ad.leaky_relu(out))
        return ad.concat(feats)

    def test_bytes_equal_concat_per_layer(self):
        rng = np.random.default_rng(3)
        c0, g = 5, 3
        x = Tensor(rng.normal(size=(c0, 7, 9)), requires_grad=True)
        layers = [(Tensor(rng.normal(size=(g, c0 + g * j, 3, 3)) * 0.3, requires_grad=True),
                   Tensor(rng.normal(size=g) * 0.1, requires_grad=True)) for j in range(4)]
        leaves = [x] + [t for pair in layers for t in pair]
        coef = rng.normal(size=(c0 + 4 * g, 7, 9))
        results = []
        for block in (self.concat_per_layer, dense_block):
            for t in leaves:
                t.zero_grad()
            out = block(x, layers)
            ad.tsum(ad.mul(ad.square(out), coef)).backward()
            results.append([out.data] + [t.grad for t in leaves])
        want, got = results
        assert len(got) == len(want) == 10
        # each layer's sum is split by input map, so only the last ulps may move
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @staticmethod
    def tape_chain(x, layer_params):
        """The block as a tape of small nodes, as it ran before it became one
        node. Once a map is ready, one conv applies the input-channel slices
        (`ad.index` windows) of every later layer's kernel, stacked with
        `ad.concat`; each of those layers adds its rows of the response to
        its sum, in map order, and a layer's output is leaky_relu(sum + b)."""
        widths = [x.shape[0]] + [w.shape[0] for w, _ in layer_params]
        feats, sums = [x], {}
        for j, (_, b) in enumerate(layer_params):
            lo = sum(widths[:j])
            later = [w for w, _ in layer_params[j:]]
            window = (slice(None), slice(lo, lo + widths[j]))
            stacked = ad.concat([ad.index(w, window) for w in later])
            resp = ad.conv2d(feats[j], stacked, padding=1)
            row = 0
            for i, w in enumerate(later, start=j):
                piece = ad.index(resp, (slice(row, row + w.shape[0]),))
                sums[i] = sums[i] + piece if i in sums else piece
                row += w.shape[0]
            feats.append(ad.leaky_relu(sums.pop(j) + ad.reshape(b, (b.data.size, 1, 1))))
        return ad.concat(feats)

    @pytest.mark.parametrize("train_x,train_w,train_b",
                             list(itertools.product([False, True], repeat=3)))
    def test_node_bits_equal_the_tape_chain(self, train_x, train_w, train_b):
        rng = np.random.default_rng(11)
        c0, g = 5, 3
        x = Tensor(rng.normal(size=(c0, 7, 9)), requires_grad=train_x)
        kernels = [rng.normal(size=(g, c0 + g * j, 3, 3)) * 0.3 for j in range(4)]
        biases = [rng.normal(size=g) * 0.1 for _ in range(4)]
        # channel 1 of layer 2 reads nothing and adds -5e-324: its leaky
        # output rounds to -0.0, so only the pre-activation's sign gives it
        # the slope LEAKY_SLOPE that leaky_relu's rule gives
        kernels[2][1], biases[2][1] = 0.0, -5e-324
        layers = [(Tensor(k, requires_grad=train_w), Tensor(b, requires_grad=train_b))
                  for k, b in zip(kernels, biases)]
        leaves = [x] + [t for pair in layers for t in pair]
        coef = rng.normal(size=(c0 + 4 * g, 7, 9))
        results = []
        for block in (self.tape_chain, dense_block):
            for t in leaves:
                t.zero_grad()
            out = block(x, layers)
            loss = ad.tsum(ad.mul(out, coef))
            if loss.requires_grad:
                loss.backward()
            results.append([out] + [t.grad for t in leaves])
        (want, *want_grads), (got, *got_grads) = results
        subnormal = got.data[c0 + 2 * g + 1]
        assert (subnormal == 0).all() and np.signbit(subnormal).all()
        assert np.array_equal(got.data, want.data)
        assert got.requires_grad == (train_x or train_w or train_b) == want.requires_grad
        for a, ref in zip(got_grads, want_grads):
            assert (a is None) == (ref is None)
            assert a is None or np.array_equal(a, ref)

    def test_writes_into_a_buffer_that_begins_with_its_input(self):
        rng = np.random.default_rng(12)
        layers = [(Tensor(rng.normal(size=(2, 3 + 2 * j, 3, 3))), Tensor(rng.normal(size=2)))
                  for j in range(2)]
        src, kernel = Tensor(rng.normal(size=(1, 4, 5))), Tensor(rng.normal(size=(3, 1, 3, 3)))
        buf = np.empty((7, 20))
        x = ad.conv2d(src, kernel, padding=1, out=buf[:3])
        out = dense_block(x, layers, buf)
        assert np.shares_memory(out.data, buf)
        assert np.array_equal(out.data, dense_block(Tensor(x.data.copy()), layers).data)
        with pytest.raises(ContractError, match="does not begin with its input"):
            dense_block(Tensor(x.data.copy()), layers, np.empty((7, 20)))

    def test_kernel_that_misreads_the_maps_rejected(self):
        x = Tensor(np.ones((4, 5, 5)))
        layers = [(Tensor(np.ones((2, 4, 3, 3))), Tensor(np.zeros(2))),
                  (Tensor(np.ones((2, 5, 3, 3))), Tensor(np.zeros(2)))]
        with pytest.raises(ShapeError, match="dense layer 1"):
            dense_block(x, layers)


def frozen_student_peak_per_pixel(side: int) -> float:
    """Traced peak of a default student's frozen `forward` without taps,
    as `fuse` runs it, in float64 per pixel."""
    vis, ir = synth_pair(0, side, side)
    net = StudentNet()
    with ad.frozen(net.parameters()):
        tracemalloc.start()
        try:
            net.forward(vis, ir)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak / (side * side * 8)


class TestInferenceMemory:
    @pytest.fixture(autouse=True)
    def many_cores(self, monkeypatch):
        # as on a host with many cores and one BLAS thread, so the band
        # groups are capped by MAX_GROUPS and not by this host's cores
        monkeypatch.setattr(ad, "_WORKERS", 8)

    def test_frozen_student_peak_is_bounded_per_pixel(self):
        # a dense block holds one map's columns at a time (at most 288 rows);
        # one buffer for all of a block's maps (720 rows) peaks at 1,024.
        # Measured: 425 float64 per pixel
        per_pixel = frozen_student_peak_per_pixel(64)
        assert per_pixel <= 600, f"{per_pixel:.0f} float64 per pixel"

    def test_frozen_student_peak_over_several_blocks_is_bounded_per_pixel(self):
        # at 128^2 each conv runs four 4,096-pixel bands in
        # MAX_GROUPS = 2 groups, each with its own column buffer and padded
        # rows. The pass holds one full-height block buffer, and the next
        # one only while the transition writes into its first rows. The
        # peak grows with the groups: 259 float64 per pixel measured with
        # two; with the adapter taps, as training runs it, 282
        per_pixel = frozen_student_peak_per_pixel(128)
        assert per_pixel <= 280, f"{per_pixel:.0f} float64 per pixel"


@functools.lru_cache(maxsize=None)
def one_worker_net(side):
    """A default student with seeded non-zero biases, a seeded pair of size
    `side`, and the frozen forward's fused image of it on one worker."""
    net = StudentNet(seed=4)
    rng = np.random.default_rng(5)
    for name, t in net.named_parameters():
        if name.endswith(".b"):                         # zero biases would hide their order
            t.data = rng.normal(scale=0.1, size=t.data.shape)
    vis, ir = synth_pair(side[0] + side[1], *side)
    saved = ad._WORKERS
    ad._WORKERS = 1
    try:
        with ad.frozen(net.parameters()):
            want = net.forward(vis, ir).data[0]
    finally:
        ad._WORKERS = saved
    return net, vis, ir, want


class TestStudentInference:
    """The frozen forward, as `fuse` runs it, gives the bits of one worker at any number."""

    @pytest.mark.parametrize("side", [(256, 256), (97, 131), (300, 211), (33, 17),
                                      (129, 515), (80, 300), (72, 72), (512, 384)])
    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_bits_equal_frozen_forward(self, monkeypatch, side, groups):
        # 3 groups is more than the pool's threads, so groups also queue;
        # at 1 the pass runs again into fresh buffers
        monkeypatch.setattr(ad, "_WORKERS", groups)
        monkeypatch.setattr(ad, "MAX_GROUPS", groups)
        net, vis, ir, want = one_worker_net(side)
        with ad.frozen(net.parameters()):
            got = net.forward(vis, ir)
        assert got.shape == (1, *side) and np.array_equal(got.data[0], want)
        assert not got.requires_grad

    def test_slim_config_bits_equal_frozen_forward(self, monkeypatch):
        net, rng = StudentNet(SLIM_STUDENT, seed=2), np.random.default_rng(8)
        for name, t in net.named_parameters():
            if name.endswith(".b"):
                t.data = rng.normal(scale=0.1, size=t.data.shape)
        vis, ir = sources(97, 131, seed=6)             # four bands per 3x3 conv
        images = []
        for groups in (1, 2, 3):
            monkeypatch.setattr(ad, "_WORKERS", groups)
            monkeypatch.setattr(ad, "MAX_GROUPS", groups)
            with ad.frozen(net.parameters()):
                images.append(net.forward(vis, ir).data)
        assert all(np.array_equal(im, images[0]) for im in images[1:])

    def test_mismatched_sources_rejected(self):
        vis, ir = sources(8, 8)
        net = StudentNet()
        with ad.frozen(net.parameters()), pytest.raises(ShapeError, match="source shapes differ"):
            net.forward(vis, ir[:, :7])


class TestTrainingTapeMemory:
    SIDE = 48

    def kept_per_pixel(self, net, *args):
        """float64 per pixel that a trainable forward leaves alive for its backward."""
        tracemalloc.start()
        try:
            out = net.forward(*args)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out[0] if isinstance(out, tuple) else out).requires_grad
        return kept / (self.SIDE * self.SIDE * 8)

    def test_trainable_student_tape_is_bounded_per_pixel(self):
        # no conv keeps its columns, and a dense block keeps its one buffer
        # (the stem or transition output in its first rows) and a bool mask
        # per layer: 373 float64 per pixel measured at 48^2, against 1,646
        # while each block was a tape of per-map convs, windows and sums
        per_pixel = self.kept_per_pixel(StudentNet(), *synth_pair(0, self.SIDE, self.SIDE), [])
        assert per_pixel <= 600, f"{per_pixel:.0f} float64 per pixel"

    def test_trainable_teacher_tape_is_bounded_per_pixel(self):
        # no attention node keeps its heads' T^2 weights: 646 float64 per
        # pixel measured at 48^2 with the provider's 4 + 2 patches, against
        # 4,122 while each node kept them
        vis, ir = synth_pair(0, self.SIDE, self.SIDE)
        provider = PriorProvider()
        patches = [make_patches(img, provider.masks_for(img)) for img in (vis, ir)]
        per_pixel = self.kept_per_pixel(TeacherNet(), vis, ir, *patches)
        assert per_pixel <= 1000, f"{per_pixel:.0f} float64 per pixel"


class TestParamCount:
    def test_tiny_conv_example(self):
        class One(TeacherNet.__mro__[1]):               # ParamModule
            def __init__(self):
                super().__init__()
                self._conv(np.random.default_rng(0), "c", 8, 4, 1)
        assert param_count(One()) == 4 * 8 + 8

    def test_default_student_under_budget(self):
        n = param_count(StudentNet())
        assert n <= 200_000
        assert n == sum(t.data.size for _, t in StudentNet().named_parameters())

    def test_student_count_is_exactly_stable(self):
        assert param_count(StudentNet(seed=1)) == param_count(StudentNet(seed=2))


class TestDeterminism:
    def test_same_seed_same_weights_same_output(self):
        vis, ir = sources(16, 16, seed=3)
        a = StudentNet(seed=7)
        b = StudentNet(seed=7)
        oa = a.forward(vis, ir)
        ob = b.forward(vis, ir)
        assert np.array_equal(oa.data, ob.data)
        ta = TeacherNet(seed=8)
        tb = TeacherNet(seed=8)
        pa = simple_patches(vis)
        pi = simple_patches(ir)
        assert np.array_equal(ta.forward(vis, ir, pa, pi)[0].data,
                              tb.forward(vis, ir, pa, pi)[0].data)

    def test_different_seeds_differ(self):
        vis, ir = sources(16, 16, seed=4)
        oa = StudentNet(seed=1).forward(vis, ir)
        ob = StudentNet(seed=2).forward(vis, ir)
        assert not np.array_equal(oa.data, ob.data)


class TestVariants:
    @pytest.mark.parametrize("variant", ["full", "no_z", "no_kv", "no_pr"])
    def test_each_variant_runs(self, variant):
        net = TeacherNet(TeacherConfig(variant=variant), seed=9)
        vis, ir = sources(16, 16, seed=5)
        out, feats = net.forward(vis, ir, simple_patches(vis), simple_patches(ir))
        assert out.shape == (1, 16, 16)
        assert len(feats) == 3

    def test_variants_change_the_function(self):
        vis, ir = sources(16, 16, seed=6)
        outs = {}
        for variant in ("full", "no_z", "no_kv", "no_pr"):
            net = TeacherNet(TeacherConfig(variant=variant), seed=10)
            outs[variant], _ = net.forward(vis, ir, simple_patches(vis), simple_patches(ir))
        base = outs.pop("full").data
        for variant, out in outs.items():
            assert not np.allclose(out.data, base), variant


class TestCheckpoints:
    def test_round_trip_byte_identical(self, tmp_path):
        net = StudentNet(seed=11)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, net)
        other = StudentNet(seed=12)
        load_checkpoint(p1, other)
        for (na, ta), (nb, tb) in zip(net.named_parameters(), other.named_parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)
        save_checkpoint(p2, other)
        assert p1.read_bytes() == p2.read_bytes()

    def test_digest_mismatch_rejected(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, StudentNet(StudentConfig(stem_channels=16), seed=1))
        with pytest.raises(CheckpointError):
            load_checkpoint(p, StudentNet(seed=1))

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(p, StudentNet())

    def test_truncation_rejected(self, tmp_path):
        p = tmp_path / "t.ckpt"
        net = StudentNet(seed=13)
        save_checkpoint(p, net)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(p, StudentNet(seed=13))

    def test_every_truncation_is_a_checkpoint_error(self, tmp_path):
        p = tmp_path / "t.ckpt"
        net = StudentNet(seed=13)
        save_checkpoint(p, net)
        blob = p.read_bytes()
        # header, then the first two parameters: u16 name length, name,
        # u8 rank, u32 dims, float64 data
        end = 40
        for name, t in net.named_parameters()[:2]:
            end += 2 + len(name) + 1 + 4 * t.data.ndim + 8 * t.data.size
        for cut in [*range(end), len(blob) - 3, len(blob) - 2, len(blob) - 1]:
            p.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(p, net)

    def test_non_utf8_name_rejected(self, tmp_path):
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, StudentNet(seed=13))
        blob = bytearray(p.read_bytes())
        blob[42] = 0xFF  # first byte of the first parameter name
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(p, StudentNet(seed=13))


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        p = tmp_path / "t.ckpt"
        net = StudentNet(SLIM_STUDENT, seed=16)
        name, t = net.named_parameters()[2]
        t.data.flat[5] = bad
        save_checkpoint(p, net)
        target = StudentNet(SLIM_STUDENT, seed=17)
        before = [t.data.copy() for _, t in target.named_parameters()]
        with pytest.raises(CheckpointError, match=re.escape(name)):
            load_checkpoint(p, target)
        # all or none: the parameters before the bad one stay as they were
        for old, (_, t) in zip(before, target.named_parameters()):
            assert np.array_equal(old, t.data)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_damaged_checkpoint_loads_finite_or_raises(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("ckpt") / "t.ckpt"
        save_checkpoint(p, StudentNet(SLIM_STUDENT, seed=18))
        blob = p.read_bytes()
        pos = data.draw(st.integers(0, len(blob) - 1))
        how = data.draw(st.sampled_from(["cut", "flip", "ones"]))
        if how == "cut":
            blob = blob[:pos]
        elif how == "flip":
            blob = blob[:pos] + bytes([blob[pos] ^ data.draw(st.integers(1, 255))]) + blob[pos + 1:]
        else:
            # a run of 0xff bytes over a float64's two high bytes makes a NaN
            span = data.draw(st.integers(1, 8))
            blob = blob[:pos] + b"\xff" * span + blob[pos + span:]
        p.write_bytes(blob)
        net = StudentNet(SLIM_STUDENT, seed=19)
        try:
            load_checkpoint(p, net)
        except CheckpointError:
            return
        assert all(np.all(np.isfinite(t.data)) for _, t in net.named_parameters())


class TestGradients:
    @pytest.mark.parametrize("variant", ["full", "no_z", "no_kv"])
    def test_every_teacher_parameter_gets_a_gradient(self, variant):
        net = TeacherNet(replace(SLIM_TEACHER, variant=variant), seed=16)
        vis, ir = sources(16, 16, seed=11)
        out, feats = net.forward(vis, ir, smooth_patches(vis), smooth_patches(ir))
        loss = ad.tsum(out)
        for f in feats:
            loss = loss + ad.tsum(f)
        ad.backward(loss)
        unreached = [name for name, t in net.named_parameters()
                     if t.grad is None or not np.any(t.grad)]
        assert not unreached

    def test_no_pr_teacher_has_no_dead_parameters(self):
        # without a repository the source encoder has no reader, so the
        # teacher must not build it
        net = TeacherNet(replace(SLIM_TEACHER, variant="no_pr"), seed=16)
        vis, ir = sources(16, 16, seed=11)
        out, feats = net.forward(vis, ir, smooth_patches(vis), smooth_patches(ir))
        loss = ad.tsum(out)
        for f in feats:
            loss = loss + ad.tsum(f)
        ad.backward(loss)
        unreached = [name for name, t in net.named_parameters()
                     if t.grad is None or not np.any(t.grad)]
        assert not unreached

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradcheck_covers_what_stage0_owns(self, variant):
        runner = dict(build_suite(seed=0))[f"attn_{variant}"]
        checked = {n for n in runner().per_tensor if n.startswith("stage0.")}
        net = TeacherNet(replace(SLIM_TEACHER, variant=variant), seed=0)
        assert checked == {n for n, _ in net.stages[0].named()}

    def test_teacher_full_path(self):
        net = TeacherNet(SLIM_TEACHER, seed=14)
        jitter(net.parameters(), seed=20)
        vis, ir = sources(16, 16, seed=7)
        pv, pi = smooth_patches(vis), smooth_patches(ir)
        target = np.random.default_rng(8).uniform(size=(1, 16, 16))

        def build():
            out, feats = net.forward(vis, ir, pv, pi)
            loss = ad.tmean(ad.square(out - Tensor(target)))
            for f in feats:
                loss = loss + 0.01 * ad.tmean(ad.square(f))
            return loss

        res = check_scalar_fn("teacher_path", build, dict(net.named_parameters()),
                              n_coords=8, seed=11)
        assert res.passed, {k: v for k, v in res.per_tensor.items() if v > 1e-4}

    def test_student_full_path(self):
        net = StudentNet(SLIM_STUDENT, seed=15)
        jitter(net.parameters(), seed=21)
        vis, ir = sources(16, 16, seed=9)
        target = np.random.default_rng(10).uniform(size=(1, 16, 16))

        def build():
            taps = []
            out = net.forward(vis, ir, taps)
            loss = ad.tmean(ad.square(out - Tensor(target)))
            for f in taps:
                loss = loss + 0.01 * ad.tmean(ad.square(f))
            return loss

        res = check_scalar_fn("student_path", build, dict(net.named_parameters()),
                              n_coords=8, seed=12)
        assert res.passed, {k: v for k, v in res.per_tensor.items() if v > 1e-4}
