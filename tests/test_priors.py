"""Prior provider: thresholding, components, patches, frozen networks.

The component oracle here is an independent BFS flood fill; the package
implementation uses scipy labeling, so agreement is a real check.
"""
from collections import deque

import numpy as np
import pytest

from semfuse.autodiff import Tensor
from semfuse.errors import ContractError
from semfuse.instrumentation import delta, snapshot
from semfuse.priors import (FrozenEncoder, MaskSet, SegmentationStub, generate_masks,
                            make_patches, otsu_threshold, random_rect_masks,
                            synth_labels)


def encode_image(enc, img):
    """The frozen encoder's per-layer feature arrays for one (H, W) image."""
    return [f.data for f in enc.forward(Tensor(img[None]))]


def predict_image(stub, img):
    """The segmentation stub's (C, H, W) class probabilities for one image."""
    return stub.forward(Tensor(img[None])).data


def flood_fill_components(binary):
    """Independent 4-connected component oracle (BFS, pure python)."""
    h, w = binary.shape
    seen = np.zeros_like(binary, dtype=bool)
    comps = []
    for r in range(h):
        for c in range(w):
            if not binary[r, c] or seen[r, c]:
                continue
            mask = np.zeros_like(binary, dtype=bool)
            q = deque([(r, c)])
            seen[r, c] = True
            while q:
                i, j = q.popleft()
                mask[i, j] = True
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h and 0 <= nj < w and binary[ni, nj] and not seen[ni, nj]:
                        seen[ni, nj] = True
                        q.append((ni, nj))
            comps.append(mask)
    return comps


def three_blob_image():
    img = np.zeros((24, 24))
    img[2:6, 2:6] = 0.9        # 16 px
    img[10:20, 3:9] = 0.8      # 60 px
    img[5:8, 15:22] = 0.85     # 21 px
    return img


class TestOtsu:
    def test_half_and_half_splits_between(self):
        img = np.zeros((8, 8))
        img[:, 4:] = 1.0
        t = otsu_threshold(img)
        assert 0 <= t < 255
        fg = (img * 255 > t)
        assert fg.sum() == 32

    def test_constant_has_no_threshold(self):
        assert otsu_threshold(np.full((5, 5), 0.4)) is None

    def test_bimodal_noise_separates_modes(self):
        rng = np.random.default_rng(0)
        lo = rng.uniform(0.05, 0.15, size=200)
        hi = rng.uniform(0.75, 0.95, size=56)
        img = np.concatenate([lo, hi]).reshape(16, 16)
        t = otsu_threshold(img)
        levels = np.floor(img * 255 + 0.5)
        assert np.all(levels[np.isin(img, lo)] <= t)     # low mode entirely below
        assert np.all(levels[np.isin(img, hi)] > t)      # high mode entirely above


class TestGenerateMasks:
    def test_two_halves(self):
        img = np.zeros((10, 10))
        img[:, 5:] = 1.0
        ms = generate_masks(img, top_k=2, min_area=4)
        assert len(ms.masks) == 2
        assert ms.areas == [50, 50]
        union = ms.union()
        assert union.all()
        assert not (ms.masks[0] & ms.masks[1]).any()

    def test_constant_degenerates_to_whole_image(self):
        ms = generate_masks(np.full((6, 6), 0.5), top_k=3, min_area=4)
        assert len(ms.masks) == 1
        assert ms.masks[0].all()

    def test_three_blobs_match_flood_fill_oracle(self):
        img = three_blob_image()
        ms = generate_masks(img, top_k=3, min_area=2)
        t = otsu_threshold(img)
        oracle = flood_fill_components((img * 255) > t)
        oracle_areas = sorted(int(m.sum()) for m in oracle)
        assert oracle_areas == [16, 21, 60]
        # top_k=3 keeps the background plus the two largest blobs; drop the
        # background (largest) and compare the rest against the oracle
        assert ms.areas[0] == 24 * 24 - (16 + 60 + 21)
        assert ms.areas[1:] == [60, 21]
        for m in ms.masks[1:]:
            assert any(np.array_equal(m, om) for om in oracle)

    def test_min_area_filters_small_components(self):
        img = three_blob_image()
        ms = generate_masks(img, top_k=10, min_area=22)
        assert all(a >= 22 for a in ms.areas)
        assert 21 not in ms.areas

    def test_top_k_caps_and_orders(self):
        img = three_blob_image()
        ms = generate_masks(img, top_k=2, min_area=2)
        assert len(ms.masks) == 2
        assert ms.areas == sorted(ms.areas, reverse=True)

    def test_masks_are_binary_and_ordered_contract(self):
        with pytest.raises(ContractError):
            MaskSet([np.zeros((2, 2))], [0])
        with pytest.raises(ContractError):
            MaskSet([np.ones((2, 2), dtype=bool), np.ones((2, 2), dtype=bool)], [1, 4])

    def test_determinism(self):
        img = three_blob_image()
        a = generate_masks(img, 3, 2)
        b = generate_masks(img, 3, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a.masks, b.masks))


class TestPatches:
    def test_patch_equals_masked_image(self):
        img = three_blob_image()
        ms = generate_masks(img, 3, 2)
        ps = make_patches(img, ms)
        for patch, mask in zip(ps, ms.masks):
            assert np.array_equal(patch[mask], img[mask])
            assert np.all(patch[~mask] == 0.0)

    def test_shape_mismatch_rejected(self):
        ms = generate_masks(np.eye(4), 2, 1)
        with pytest.raises(ContractError):
            make_patches(np.zeros((5, 5)), ms)


class TestRandomRects:
    def test_seeded_and_shaped(self):
        img = np.zeros((16, 16))
        a = random_rect_masks(img, 4, np.random.default_rng(3))
        b = random_rect_masks(img, 4, np.random.default_rng(3))
        assert len(a.masks) == 4
        assert all(np.array_equal(x, y) for x, y in zip(a.masks, b.masks))
        assert a.areas == sorted(a.areas, reverse=True)


class TestFrozenEncoder:
    def test_stride_schedule_shapes(self):
        enc = FrozenEncoder()
        feats = enc.forward(Tensor(np.zeros((1, 16, 16))))
        assert [f.shape for f in feats] == [(8, 8, 8), (16, 4, 4), (32, 2, 2)]

    def test_seed_reproducibility(self):
        a = FrozenEncoder()
        b = FrozenEncoder()
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa.data, wb.data)
        img = np.random.default_rng(1).uniform(size=(16, 16))
        fa = encode_image(a, img)
        fb = encode_image(b, img)
        assert all(np.array_equal(x, y) for x, y in zip(fa, fb))

    def test_weights_never_require_grad(self):
        enc = FrozenEncoder()
        assert all(not w.requires_grad for w in enc.weights)

    def test_distinct_masks_give_distinct_features(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(size=(16, 16))
        m1 = np.zeros((16, 16)); m1[:8] = 1.0
        m2 = np.zeros((16, 16)); m2[8:] = 1.0
        enc = FrozenEncoder()
        f1 = encode_image(enc, img * m1)
        f2 = encode_image(enc, img * m2)
        assert any(not np.allclose(a, b) for a, b in zip(f1, f2))


@pytest.mark.parametrize("net", [FrozenEncoder(), SegmentationStub()],
                         ids=["encoder", "segstub"])
def test_frozen_forward_counts_as_provider_work(net):
    # fuse proves it never runs the provider by this counter, so the
    # forward pass itself must move it, not only the numpy helpers
    before = snapshot()
    net.forward(Tensor(np.zeros((1, 8, 8))))
    assert delta(before)["provider"] == 1


class TestSegmentationStub:
    def test_pixelwise_simplex(self):
        stub = SegmentationStub()
        img = np.random.default_rng(2).uniform(size=(12, 12))
        probs = predict_image(stub, img)
        assert probs.shape == (4, 12, 12)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-6)

    def test_deterministic_and_input_sensitive(self):
        stub = SegmentationStub()
        stub2 = SegmentationStub()
        img = np.random.default_rng(3).uniform(size=(8, 8))
        assert np.array_equal(predict_image(stub, img), predict_image(stub2, img))
        bumped = np.clip(img + 0.05, 0, 1)
        assert not np.allclose(predict_image(stub, img), predict_image(stub, bumped))


class TestSynthLabels:
    def test_single_mask_two_regions(self):
        m = np.zeros((6, 6), dtype=bool)
        m[:3] = True
        ms_vis = MaskSet([m], [18])
        ms_ir = MaskSet([~m], [18])
        labels = synth_labels(ms_vis, ms_ir)
        assert set(np.unique(labels)) <= {0, 1, 2, 3}
        assert (labels[:3] == 1).all() or (labels[:3] == 2).all()

    def test_class_wrapping_beyond_capacity(self):
        masks = []
        for i in range(5):
            m = np.zeros((10, 10), dtype=bool)
            m[i * 2:i * 2 + 2, :10 - i] = True     # strictly decreasing areas
            masks.append(m)
        ms_vis = MaskSet(masks[:3], [int(m.sum()) for m in masks[:3]])
        ms_ir = MaskSet(masks[3:], [int(m.sum()) for m in masks[3:]])
        labels = synth_labels(ms_vis, ms_ir)
        # ranks 0..4 -> classes 1,2,3,1,2
        assert labels[8, 0] == 2                    # smallest mask, rank 4
        assert labels[0, 0] == 1                    # largest, rank 0

    def test_overlap_prefers_smaller_mask(self):
        big = np.zeros((8, 8), dtype=bool); big[:, :6] = True
        small = np.zeros((8, 8), dtype=bool); small[2:4, 2:4] = True
        ms_vis = MaskSet([big], [int(big.sum())])
        ms_ir = MaskSet([small], [int(small.sum())])
        labels = synth_labels(ms_vis, ms_ir)
        assert labels[3, 3] == 2        # the small mask's class, not the big one's

