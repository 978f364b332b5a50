"""Netpbm I/O: header parsing, byte-exact round trips, YCbCr conversion."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse.errors import ContractError, PnmParseError
from semfuse.imageio import (Image, load_image, quantize, rgb_to_ycbcr,
                             save_image, ycbcr_to_rgb)


def write_raw(tmp_path, name, blob):
    p = tmp_path / name
    p.write_bytes(blob)
    return p


class TestParsing:
    def test_minimal_pgm(self, tmp_path):
        p = write_raw(tmp_path, "a.pgm", b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = load_image(p)
        assert img.channels == 1 and img.height == 2 and img.width == 2
        assert np.allclose(img.data, np.array([[0, 128], [255, 64]]) / 255.0)

    def test_ppm_channels(self, tmp_path):
        p = write_raw(tmp_path, "a.ppm", b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = load_image(p)
        assert img.channels == 3
        assert np.allclose(img.data[0, 0], [1.0, 0.0, 0.0])

    def test_flexible_header_whitespace(self, tmp_path):
        p = write_raw(tmp_path, "a.pgm", b"P5 2\t1\r255\n" + bytes([7, 9]))
        img = load_image(p)
        assert img.data.shape == (1, 2)

    @pytest.mark.parametrize("blob,offset_hint", [
        (b"P4\n1 1\n255\n\x00", 0),                       # wrong magic
        (b"P5\n1 1\n254\n\x00", 7),                       # bad maxval
        (b"P5\nx 1\n255\n\x00", 3),                       # non-numeric width
        (b"P5\n2 2\n255\n\x00\x00", 13),                  # truncated payload
        (b"P5\n1 1\n255\n\x00\x00", 12),                  # trailing bytes
        (b"P5\n# c\n1 1\n255\n\x00", 3),                  # comment
        (b"P5\n1 1", 6),                                  # header cut short
    ])
    def test_malformed_inputs_report_offsets(self, tmp_path, blob, offset_hint):
        p = write_raw(tmp_path, "bad.pgm", blob)
        with pytest.raises(PnmParseError) as exc:
            load_image(p)
        assert exc.value.offset == offset_hint
        assert "byte offset" in str(exc.value)


class TestRoundTrip:
    def test_canonical_file_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        for idx, (h, w) in enumerate([(1, 1), (3, 5), (16, 16), (7, 2)]):
            blob = b"P5\n%d %d\n255\n" % (w, h) + rng.integers(0, 256, h * w, dtype=np.uint8).tobytes()
            p = write_raw(tmp_path, f"g{idx}.pgm", blob)
            out = tmp_path / f"g{idx}.out.pgm"
            save_image(load_image(p), out)
            assert out.read_bytes() == blob

    def test_ppm_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        blob = b"P6\n4 3\n255\n" + rng.integers(0, 256, 36, dtype=np.uint8).tobytes()
        p = write_raw(tmp_path, "c.ppm", blob)
        out = tmp_path / "c.out.ppm"
        save_image(load_image(p), out)
        assert out.read_bytes() == blob

    def test_load_save_load_values_identical(self, tmp_path):
        img = Image(np.linspace(0, 1, 24).reshape(4, 6))
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        save_image(img, a)
        first = load_image(a)
        save_image(first, b)
        second = load_image(b)
        assert np.array_equal(first.data, second.data)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_round_trip_property(self, tmp_path_factory, h, w, seed):
        rng = np.random.default_rng(seed)
        blob = b"P5\n%d %d\n255\n" % (w, h) + rng.integers(0, 256, h * w, dtype=np.uint8).tobytes()
        d = tmp_path_factory.mktemp("rt")
        p = write_raw(d, "h.pgm", blob)
        out = d / "h.out.pgm"
        save_image(load_image(p), out)
        assert out.read_bytes() == blob

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([b"P5\n3 2\n255\n" + bytes(range(0, 60, 10)),
                            b"P6\n2 1\n255\n" + bytes(range(0, 180, 30))]),
           st.data())
    def test_damaged_file_loads_or_raises_parse_error(self, tmp_path_factory, blob, data):
        pos = data.draw(st.integers(0, len(blob) - 1))
        if data.draw(st.booleans()):
            blob = blob[:pos]
        else:
            blob = blob[:pos] + bytes([blob[pos] ^ data.draw(st.integers(1, 255))]) + blob[pos + 1:]
        p = write_raw(tmp_path_factory.mktemp("fuzz"), "f.pnm", blob)
        try:
            img = load_image(p)
        except PnmParseError:
            return
        assert isinstance(img, Image)


class TestQuantization:
    def test_half_rounds_away_from_zero(self):
        assert quantize(np.array([127.5 / 255.0]))[0] == 128

    def test_endpoints(self):
        assert quantize(np.array([0.0]))[0] == 0
        assert quantize(np.array([1.0]))[0] == 255

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_error_at_most_half_step(self, v):
        q = int(quantize(np.array([v]))[0])
        assert abs(q - v * 255.0) <= 0.5 + 1e-9


class TestImageContract:
    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            Image(np.array([[1.5]]))
        with pytest.raises(ContractError):
            Image(np.array([[-0.1]]))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ContractError):
            Image(np.zeros((2, 2, 2)))


class TestYCbCr:
    def test_gray_maps_to_neutral_chroma(self):
        v = 0.6328
        img = Image(np.full((2, 2, 3), v))
        y, (cb, cr) = rgb_to_ycbcr(img)
        assert np.allclose(y.data, v, atol=1e-12)
        assert np.allclose(cb.data, 0.5, atol=1e-12)
        assert np.allclose(cr.data, 0.5, atol=1e-12)

    def test_pure_red_luma(self):
        img = Image(np.zeros((1, 1, 3)))
        img.data[0, 0, 0] = 1.0
        y, _ = rgb_to_ycbcr(Image(img.data))
        assert abs(y.data[0, 0] - 0.299) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
    def test_inverse_of_forward_within_tolerance(self, rgb):
        img = Image(np.array(rgb).reshape(1, 1, 3))
        y, cbcr = rgb_to_ycbcr(img)
        back = ycbcr_to_rgb(y, cbcr)
        assert np.max(np.abs(back.data - img.data)) <= 1e-6

    def test_shape_mismatch_raises(self):
        y = Image(np.zeros((2, 2)))
        cb = Image(np.full((2, 3), 0.5))
        cr = Image(np.full((2, 2), 0.5))
        with pytest.raises(ContractError):
            ycbcr_to_rgb(y, (cb, cr))
