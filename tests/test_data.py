"""Synthetic dataset generation and pair discovery."""
import numpy as np
import pytest

from semfuse.data import discover_pairs, load_pair, random_crop, synth_pair, write_dataset
from semfuse.errors import ContractError
from semfuse.imageio import Image, quantize, save_image


class TestSynthPair:
    def test_deterministic(self):
        a = synth_pair(7, 32, 32)
        b = synth_pair(7, 32, 32)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seeds_differ(self):
        a = synth_pair(1, 32, 32)
        b = synth_pair(2, 32, 32)
        assert not np.array_equal(a[0], b[0])

    def test_range_and_shape(self):
        vis, ir = synth_pair(3, 24, 40)
        for img in (vis, ir):
            assert img.shape == (24, 40)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_modalities_differ(self):
        vis, ir = synth_pair(4, 32, 32)
        assert not np.array_equal(vis, ir)

    def test_values_on_8bit_grid(self):
        # files must round-trip exactly, so values sit on the /255 grid
        vis, ir = synth_pair(5, 16, 16)
        for img in (vis, ir):
            assert np.array_equal(img, quantize(img) / 255.0)

    def test_has_structure(self):
        vis, ir = synth_pair(6, 32, 32)
        # not constant in either modality: blobs and texture present
        assert vis.std() > 0.01 and ir.std() > 0.01


class TestWriteDiscover:
    def test_round_trip(self, tmp_path):
        stems = write_dataset(tmp_path, 3, 16, 16, seed=11)
        assert len(stems) == 3
        pairs = discover_pairs(tmp_path)
        assert [p[0] for p in pairs] == sorted(stems)
        for stem, vis_path, ir_path in pairs:
            vis, ir, chroma = load_pair(vis_path, ir_path)
            ev, ei = synth_pair(11 + stems.index(stem), 16, 16)
            assert np.array_equal(vis, ev)
            assert np.array_equal(ir, ei)
            assert chroma is None

    def test_write_deterministic_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        write_dataset(d1, 2, 16, 16, seed=5)
        write_dataset(d2, 2, 16, 16, seed=5)
        for f1 in sorted(d1.iterdir()):
            assert f1.read_bytes() == (d2 / f1.name).read_bytes()

    def test_orphan_vis_rejected(self, tmp_path):
        write_dataset(tmp_path, 1, 16, 16, seed=1)
        (tmp_path / "stray.vis.pgm").write_bytes((tmp_path / "pair000.vis.pgm").read_bytes())
        with pytest.raises(ContractError, match="stray"):
            discover_pairs(tmp_path)

    def test_orphan_ir_rejected(self, tmp_path):
        write_dataset(tmp_path, 1, 16, 16, seed=1)
        (tmp_path / "lone.ir.pgm").write_bytes((tmp_path / "pair000.ir.pgm").read_bytes())
        with pytest.raises(ContractError, match="lone"):
            discover_pairs(tmp_path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            discover_pairs(tmp_path)

    def test_stem_with_pgm_and_ppm_visible_rejected(self, tmp_path):
        write_dataset(tmp_path, 2, 16, 16, seed=1)
        vis = load_pair(tmp_path / "pair001.vis.pgm", tmp_path / "pair001.ir.pgm")[0]
        save_image(Image(np.stack([vis] * 3, axis=-1)), tmp_path / "pair001.vis.ppm")
        with pytest.raises(ContractError, match="pair001") as err:
            discover_pairs(tmp_path)
        assert "pair000" not in str(err.value)

    def test_color_visible_pair(self, tmp_path):
        rng = np.random.default_rng(8)
        rgb = quantize(rng.uniform(size=(12, 12, 3))) / 255.0
        save_image(Image(rgb), tmp_path / "c.vis.ppm")
        gray = quantize(rng.uniform(size=(12, 12))) / 255.0
        save_image(Image(gray), tmp_path / "c.ir.pgm")
        pairs = discover_pairs(tmp_path)
        assert len(pairs) == 1
        vis, ir, chroma = load_pair(pairs[0][1], pairs[0][2])
        assert vis.shape == (12, 12) and chroma is not None
        assert np.array_equal(ir, gray)


class TestCrop:
    def test_identity_when_exact(self):
        vis, ir = synth_pair(9, 32, 32)
        rng = np.random.default_rng(0)
        cv, ci = random_crop(vis, ir, 32, rng)
        assert np.array_equal(cv, vis) and np.array_equal(ci, ir)

    def test_crop_shape_and_alignment(self):
        vis, ir = synth_pair(10, 40, 48)
        rng = np.random.default_rng(1)
        cv, ci = random_crop(vis, ir, 16, rng)
        assert cv.shape == ci.shape == (16, 16)
        # the same window must come from both modalities
        found = False
        for r in range(25):
            for c in range(33):
                if np.array_equal(vis[r:r + 16, c:c + 16], cv):
                    found = np.array_equal(ir[r:r + 16, c:c + 16], ci)
        assert found

    def test_too_small_rejected(self):
        vis, ir = synth_pair(11, 16, 16)
        with pytest.raises(ContractError):
            random_crop(vis, ir, 32, np.random.default_rng(0))
