"""Distillation loss terms: identities, oracles, gradient flow."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse.autodiff import Tensor
from semfuse.errors import ContractError
from semfuse.gradcheck import build_suite, check_scalar_fn
from semfuse.losses import (CSV_HEADER, LossBreakdown, context_bundle,
                            loss_context, loss_cs, loss_fea, loss_seg)
from semfuse.priors import FrozenEncoder, MaskSet

SOBEL_GX = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_GY = SOBEL_GX.T


def sobel_oracle(img):
    """Direct 3x3 cross-correlation with replicate padding."""
    h, w = img.shape
    p = np.pad(img, 1, mode="edge")
    out = np.zeros((2, h, w))
    for i in range(h):
        for j in range(w):
            win = p[i:i + 3, j:j + 3]
            out[0, i, j] = np.sum(win * SOBEL_GX)
            out[1, i, j] = np.sum(win * SOBEL_GY)
    return out


def context_oracle(a, b):
    grad = np.mean(np.abs(sobel_oracle(a) - sobel_oracle(b)))
    mse = np.mean((a - b) ** 2)
    return grad, mse


def cosine_oracle(a, b):
    a, b = a.ravel(), b.ravel()
    den = max(1e-8, np.sqrt(np.sum(a * a) * np.sum(b * b)))
    return float(np.sum(a * b) / den)


def rms_oracle(x):
    return float(np.sqrt(np.mean(x * x)))


def rand_feats(shapes, seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=s)) for s in shapes]


def img_tensor(seed, h=12, w=12):
    return Tensor(np.random.default_rng(seed).uniform(size=(1, h, w)))


def whole_mask(h, w):
    m = np.ones((h, w), dtype=bool)
    return MaskSet([m], [h * w])


class TestFea:
    def test_identical_lists_exactly_zero(self):
        feats = rand_feats([(4, 6, 6), (8, 3, 3)], seed=1)
        val = loss_fea(feats, feats)
        assert val.data == 0.0

    def test_orthogonal_three_scales(self):
        a = [Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 2.0])),
             Tensor(np.array([3.0, 0.0, 0.0]))]
        b = [Tensor(np.array([0.0, 1.0])), Tensor(np.array([5.0, 0.0])),
             Tensor(np.array([0.0, 1.0, 1.0]))]
        assert loss_fea(a, b).data == 3.0

    def test_antiparallel_two_scales(self):
        feats = rand_feats([(3, 4), (7,)], seed=2)
        neg = [Tensor(-f.data) for f in feats]
        assert loss_fea(feats, neg).data == 4.0

    def test_matches_numpy_oracle(self):
        a = rand_feats([(4, 5, 5), (6, 2, 2)], seed=3)
        b = rand_feats([(4, 5, 5), (6, 2, 2)], seed=4)
        expect = sum(1.0 - cosine_oracle(x.data, y.data) for x, y in zip(a, b))
        assert abs(loss_fea(a, b).data - expect) <= 1e-12

    def test_range_bound(self):
        a = rand_feats([(8, 4, 4)] * 3, seed=5)
        b = rand_feats([(8, 4, 4)] * 3, seed=6)
        assert 0.0 <= loss_fea(a, b).data <= 6.0

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(min_value=1e-3, max_value=1e3),
           seed=st.integers(min_value=0, max_value=999))
    def test_positive_rescale_invariance(self, alpha, seed):
        a = rand_feats([(3, 4, 4), (5, 2, 2)], seed=seed)
        b = rand_feats([(3, 4, 4), (5, 2, 2)], seed=seed + 1000)
        scaled = [Tensor(alpha * f.data) for f in a]
        base = loss_fea(a, b).data
        assert abs(loss_fea(scaled, b).data - base) <= 1e-9

    def test_shape_and_length_mismatch(self):
        a = rand_feats([(3, 4)], seed=7)
        with pytest.raises(ContractError):
            loss_fea(a, rand_feats([(4, 3)], seed=8))
        with pytest.raises(ContractError):
            loss_fea(a, rand_feats([(3, 4), (3, 4)], seed=9))
        with pytest.raises(ContractError):
            loss_fea([], [])

    def test_gradients(self):
        a = rand_feats([(3, 4, 4), (5, 2, 2)], seed=10)
        b = rand_feats([(3, 4, 4), (5, 2, 2)], seed=11)
        wrt = {f"a{i}": t for i, t in enumerate(a)}
        wrt.update({f"b{i}": t for i, t in enumerate(b)})
        for t in wrt.values():
            t.requires_grad = True
        res = check_scalar_fn("fea", lambda: loss_fea(a, b), wrt, n_coords=16, seed=1)
        assert res.passed, res.per_tensor


class TestContext:
    def test_identical_images_exact_zero(self):
        img = img_tensor(20)
        g, m = loss_context(img, img)
        assert g.data == 0.0 and m.data == 0.0

    def test_constant_offset(self):
        base = Tensor(np.random.default_rng(21).uniform(0.2, 0.7, size=(1, 10, 10)))
        shifted = Tensor(base.data + 0.1)
        g, m = loss_context(base, shifted)
        # adding 0.1 rounds each pixel, so cancellation is only near-exact
        assert abs(g.data) <= 1e-12
        assert abs(m.data - 0.01) <= 1e-12

    def test_step_edge_vs_flat_matches_oracle(self):
        step = np.zeros((9, 9))
        step[:, 5:] = 1.0
        flat = np.zeros((9, 9))
        g, m = loss_context(Tensor(step[None]), Tensor(flat[None]))
        og, om = context_oracle(step, flat)
        assert abs(g.data - og) <= 1e-12
        assert abs(m.data - om) <= 1e-12

    def test_random_pair_matches_oracle(self):
        a = np.random.default_rng(22).uniform(size=(11, 13))
        b = np.random.default_rng(23).uniform(size=(11, 13))
        g, m = loss_context(Tensor(a[None]), Tensor(b[None]))
        og, om = context_oracle(a, b)
        assert abs(g.data - og) <= 1e-12
        assert abs(m.data - om) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            loss_context(img_tensor(1, 8, 8), img_tensor(2, 8, 9))

    def test_gradients(self):
        a, b = img_tensor(24), img_tensor(25)
        a.requires_grad = b.requires_grad = True

        def build():
            g, m = loss_context(a, b)
            return g + m

        res = check_scalar_fn("context", build, {"a": a, "b": b}, n_coords=24, seed=2)
        assert res.passed, res.per_tensor

    def test_suite_check_passes_at_seed_6(self):
        # at the default 1e-5 step the difference straddled the absval kink
        res = dict(build_suite(seed=6))["context"]()
        assert res.passed, res.per_tensor


class TestContextBundle:
    def test_all_identical_zero(self):
        img = img_tensor(30)
        g, m = context_bundle(img, img, img, img)
        assert g.data == 0.0 and m.data == 0.0

    def test_equals_sum_of_five_pairs(self):
        ref, fus, vis, ir = (img_tensor(s) for s in (31, 32, 33, 34))
        g, m = context_bundle(ref, fus, vis, ir)
        pairs = [(ref, fus), (ref, vis), (ref, ir), (fus, vis), (fus, ir)]
        eg = sum(context_oracle(a.data[0], b.data[0])[0] for a, b in pairs)
        em = sum(context_oracle(a.data[0], b.data[0])[1] for a, b in pairs)
        assert abs(g.data - eg) <= 1e-12
        assert abs(m.data - em) <= 1e-12


class TestCs:
    def test_fused_equals_reference_is_zero(self):
        enc = FrozenEncoder()
        fus = img_tensor(40, 16, 16)
        ref = Tensor(fus.data.copy())
        vis, ir = img_tensor(41, 16, 16), img_tensor(42, 16, 16)
        mv = whole_mask(16, 16)
        mi = whole_mask(16, 16)
        cs_ir, cs_vis = loss_cs(fus, ref, vis, ir, mv, mi, enc)
        assert cs_ir.data == 0.0 and cs_vis.data == 0.0

    def test_fully_degenerate_is_zero(self):
        enc = FrozenEncoder()
        img = img_tensor(43, 16, 16)
        same = Tensor(img.data.copy())
        cs_ir, cs_vis = loss_cs(img, same, Tensor(img.data.copy()),
                                Tensor(img.data.copy()),
                                whole_mask(16, 16), whole_mask(16, 16), enc)
        assert cs_ir.data == 0.0 and cs_vis.data == 0.0

    def test_random_positive_and_matches_assembly(self):
        enc = FrozenEncoder()
        fus, ref, vis, ir = (img_tensor(s, 16, 16) for s in (44, 45, 46, 47))
        rng = np.random.default_rng(48)
        um = rng.uniform(size=(16, 16)) > 0.4
        mv = MaskSet([um], [int(um.sum())])
        mi = whole_mask(16, 16)
        cs_ir, cs_vis = loss_cs(fus, ref, vis, ir, mv, mi, enc)
        assert cs_ir.data > 0.0 and np.isfinite(cs_ir.data)
        assert cs_vis.data > 0.0 and np.isfinite(cs_vis.data)

        # independent assembly of the ratio sum from raw encoder outputs
        def assemble(src, union):
            mask = union.astype(float)[None]
            ef = [f.data for f in enc.forward(Tensor(fus.data * mask))]
            er = [f.data for f in enc.forward(Tensor(ref.data * mask))]
            es = [f.data for f in enc.forward(Tensor(src.data * mask))]
            total = 0.0
            for f, r, s in zip(ef, er, es):
                num = rms_oracle(f - r)
                for x in (r, f):
                    total += num / (rms_oracle(x - s) + 1e-8)
            return total

        assert abs(cs_ir.data - assemble(ir.data, mi.union())) <= 1e-9
        assert abs(cs_vis.data - assemble(vis.data, mv.union())) <= 1e-9

    def test_empty_union_flags_and_zeroes(self):
        enc = FrozenEncoder()
        fus, ref, vis, ir = (img_tensor(s, 16, 16) for s in (49, 50, 51, 52))
        empty = MaskSet([np.zeros((16, 16), dtype=bool)], [0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cs_ir, cs_vis = loss_cs(fus, ref, vis, ir,
                                    whole_mask(16, 16), empty, enc)
        assert cs_ir.data == 0.0
        assert cs_vis.data > 0.0
        assert any("union" in str(w.message) for w in caught)

    def test_gradients_wrt_images(self):
        enc = FrozenEncoder()
        fus, ref = img_tensor(53, 16, 16), img_tensor(54, 16, 16)
        vis, ir = img_tensor(55, 16, 16), img_tensor(56, 16, 16)
        for t in (fus, ref, vis, ir):
            t.requires_grad = True
        mv, mi = whole_mask(16, 16), whole_mask(16, 16)

        def build():
            cs_ir, cs_vis = loss_cs(fus, ref, vis, ir, mv, mi, enc)
            return cs_ir + cs_vis

        res = check_scalar_fn("cs", build,
                              {"fus": fus, "ref": ref, "vis": vis, "ir": ir},
                              n_coords=12, seed=3)
        assert res.passed, res.per_tensor


class TestSeg:
    def test_perfect_one_hot_near_zero(self):
        rng = np.random.default_rng(60)
        labels = rng.integers(0, 4, size=(6, 6))
        probs = np.zeros((4, 6, 6))
        for c in range(4):
            probs[c][labels == c] = 1.0
        assert loss_seg(Tensor(probs), labels).data <= 1e-9

    def test_uniform_four_class_is_log4(self):
        probs = Tensor(np.full((4, 5, 7), 0.25))
        labels = np.random.default_rng(61).integers(0, 4, size=(5, 7))
        assert abs(loss_seg(probs, labels).data - 1.3862943611198906) <= 1e-9

    def test_random_case_vs_extended_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rng = np.random.default_rng(62)
        raw = rng.uniform(0.05, 1.0, size=(3, 4, 4))
        probs = raw / raw.sum(axis=0, keepdims=True)
        labels = rng.integers(0, 3, size=(4, 4))
        expect = mp.mpf(0)
        for i in range(4):
            for j in range(4):
                expect += -mp.log(mp.mpf(probs[labels[i, j], i, j]))
        expect = float(expect / 16)
        assert abs(loss_seg(Tensor(probs), labels).data - expect) <= 1e-9

    def test_clamp_guards_zero_probability(self):
        probs = np.zeros((2, 2, 2))
        probs[0] = 1.0
        labels = np.ones((2, 2), dtype=int)
        val = loss_seg(Tensor(probs), labels).data
        assert np.isfinite(val)
        assert abs(val - (-np.log(1e-12))) <= 1e-6

    def test_label_out_of_range(self):
        probs = Tensor(np.full((3, 2, 2), 1 / 3))
        with pytest.raises(ContractError):
            loss_seg(probs, np.full((2, 2), 3))
        with pytest.raises(ContractError):
            loss_seg(probs, np.full((2, 2), -1))

    def test_label_shape_and_dtype(self):
        probs = Tensor(np.full((3, 2, 2), 1 / 3))
        with pytest.raises(ContractError):
            loss_seg(probs, np.zeros((3, 2), dtype=int))
        with pytest.raises(ContractError):
            loss_seg(probs, np.zeros((2, 2)))

    def test_gradients_through_softmax(self):
        rng = np.random.default_rng(63)
        logits = Tensor(rng.normal(size=(4, 36)), requires_grad=True)
        labels = rng.integers(0, 4, size=(6, 6))

        def build():
            probs = ad.softmax_rows(ad.transpose2d(logits))
            return loss_seg(ad.reshape(ad.transpose2d(probs), (4, 6, 6)), labels)

        res = check_scalar_fn("seg", build, {"logits": logits}, n_coords=24, seed=4)
        assert res.passed, res.per_tensor


class TestBreakdown:
    def test_totals_additive(self):
        row = LossBreakdown.from_parts(step=3, lr_main=1e-4, lr_sub=1e-3,
                                       fea=0.5, grad=0.2, mse=0.1,
                                       cs_ir=0.3, cs_vis=0.4, seg=1.1)
        assert row.context == row.grad + row.mse
        assert row.cs == row.cs_ir + row.cs_vis
        assert abs(row.total_sub - (row.fea + row.context + row.cs)) <= 1e-9
        assert abs(row.total_main - (row.total_sub + row.seg)) <= 1e-9

    def test_zero_parts(self):
        row = LossBreakdown.from_parts(step=0, lr_main=1e-4, lr_sub=1e-3,
                                       fea=0, grad=0, mse=0, cs_ir=0, cs_vis=0, seg=0)
        assert row.total_sub == 0.0 and row.total_main == 0.0

    def test_simple_sum(self):
        row = LossBreakdown.from_parts(step=1, lr_main=1.0, lr_sub=1.0,
                                       fea=1.0, grad=2.0, mse=0.0,
                                       cs_ir=3.0, cs_vis=0.0, seg=4.0)
        assert row.total_sub == 6.0
        assert row.total_main - row.total_sub == row.seg

    def test_negative_part_rejected(self):
        with pytest.raises(ContractError):
            LossBreakdown.from_parts(step=0, lr_main=1e-4, lr_sub=1e-3,
                                     fea=-0.1, grad=0, mse=0, cs_ir=0, cs_vis=0, seg=0)

    def test_csv_header_is_pinned(self):
        assert CSV_HEADER == ("step,lr_main,lr_sub,fea,grad,mse,context,"
                              "cs_ir,cs_vis,cs,seg,total_sub,total_main")

    def test_absent_terms_are_zero(self):
        row = LossBreakdown.from_parts(step=2, lr_main=1e-4, lr_sub=0.0,
                                       grad=0.25, mse=0.5, seg=2.0)
        assert (row.fea, row.cs_ir, row.cs_vis, row.cs) == (0.0, 0.0, 0.0, 0.0)
        assert row.context == 0.75
        assert row.total_sub == 0.75
        assert row.total_main == 2.75

    def test_unknown_term_rejected(self):
        with pytest.raises(ContractError):
            LossBreakdown.from_parts(step=0, lr_main=1e-4, lr_sub=1e-3, context=1.0)

    def test_csv_round_trip(self):
        row = LossBreakdown.from_parts(step=7, lr_main=5e-4, lr_sub=2e-3,
                                       fea=0.125, grad=0.25, mse=0.5,
                                       cs_ir=1.0, cs_vis=2.0, seg=0.0625)
        header = CSV_HEADER.split(",")
        cells = row.csv_row().split(",")
        assert len(cells) == len(header)
        assert header[0] == "step" and header[-1] == "total_main"
        assert int(cells[0]) == 7
        assert float(cells[header.index("cs")]) == 3.0
        assert float(cells[-1]) == row.total_main
