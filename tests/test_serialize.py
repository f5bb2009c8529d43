import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes

from ucnet.serialize import load_tensors, save_tensors


def assert_views_of_one_payload(loaded, tensors):
    """Every loaded tensor is a view, in order, of one owning, C-contiguous
    <f8 vector of exactly the payload's size: the loader reads the payload
    once and holds it once."""
    payload = loaded.payload
    assert payload.dtype == np.dtype("<f8") and payload.ndim == 1
    assert payload.flags.owndata and payload.flags.c_contiguous
    assert payload.nbytes == sum(np.asarray(a, dtype=np.float64).nbytes
                                 for a in tensors.values())
    start = payload.__array_interface__["data"][0]
    offset = 0
    for got in loaded.values():
        assert got.base is payload
        if got.size:
            assert got.__array_interface__["data"][0] - start == offset
        offset += got.nbytes


class TestTensorDocument:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "matrix": rng.normal(size=(7, 5)) * 10.0 ** float(rng.integers(-8, 8)),
            "vector": rng.normal(size=11),
            "scalarish": np.array([1e-300]),
        }
        meta = {"kind": "test", "note": "free text with spaces"}
        path = tmp_path / "model.tensors"
        save_tensors(path, tensors, meta)
        loaded, loaded_meta = load_tensors(path)
        assert loaded_meta == meta
        assert set(loaded) == set(tensors)
        for name, array in tensors.items():
            assert np.array_equal(loaded[name], array)

    def test_versioned_header(self, tmp_path):
        path = tmp_path / "m.tensors"
        save_tensors(path, {"a": np.zeros(2)})
        assert path.read_bytes().split(b"\n")[0] == b"tensors 2"

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            load_tensors(path)

    def test_rejects_unsupported_version(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("tensors 99\n")
        with pytest.raises(ValueError):
            load_tensors(path)

    def test_rejects_version_one(self, tmp_path):
        path = tmp_path / "old.model"
        path.write_text("tensors 1\ntensor a 1 1\n1\n")
        with pytest.raises(ValueError) as info:
            load_tensors(path)
        assert str(info.value) == f"{path}: unsupported version 1"

    def test_rejects_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensors(tmp_path / "m", {"a": np.array([np.nan])})

    def test_rejects_duplicate_names(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"tensors 2\ntensor a 1 1\ntensor a 1 1\ndata 16\n"
                         + bytes(16))
        with pytest.raises(ValueError, match="duplicate"):
            load_tensors(path)

    def test_deterministic_bytes(self, tmp_path):
        tensors = {"w": np.array([[0.1, -2.5e-17], [3.0, 4.0]])}
        first, second = tmp_path / "a", tmp_path / "b"
        save_tensors(first, tensors, {"k": "v"})
        save_tensors(second, tensors, {"k": "v"})
        assert first.read_bytes() == second.read_bytes()


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _finite_bits(bits: int) -> int:
    """Clear one exponent bit of an inf/NaN pattern, leaving a finite double."""
    return bits ^ (1 << 62) if (bits >> 52) & 0x7FF == 0x7FF else bits


SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308)
VALUE_BITS = st.one_of(st.sampled_from([_bits(v) for v in SPECIAL_VALUES]),
                       st.integers(0, 2**64 - 1).map(_finite_bits))
NAMES = st.text(st.characters(codec="utf-8").filter(lambda c: not c.isspace()),
                min_size=1, max_size=8)
META_VALUES = st.text(st.characters(codec="utf-8", exclude_characters="\n"),
                      max_size=20)


@st.composite
def finite_arrays(draw):
    shape = draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    bits = draw(st.lists(VALUE_BITS, min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)


def _valid_v2_file() -> bytes:
    return (b"tensors 2\nmeta kind test\ntensor w 2 2 2\ntensor b 1 1\n"
            b"data 40\n" + np.arange(5.0).astype("<f8").tobytes())


class TestBinaryFormat:
    @settings(max_examples=80, deadline=None)
    @given(tensors=st.dictionaries(NAMES, finite_arrays(), max_size=4),
           meta=st.dictionaries(NAMES, META_VALUES, max_size=4))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, tensors, meta):
        path = tmp_path_factory.getbasetemp() / "round_trip.tensors"
        save_tensors(path, tensors, meta)
        loaded, loaded_meta = load_tensors(path)
        assert loaded_meta == meta
        assert list(loaded) == list(tensors)
        for name, array in tensors.items():
            got = loaded[name]
            assert got.dtype == np.float64 and got.shape == array.shape
            assert got.tobytes() == array.tobytes()
            assert got.flags.writeable and got.flags.c_contiguous
        assert_views_of_one_payload(loaded, tensors)

    def test_header_is_text_then_raw_little_endian_payload(self, tmp_path):
        path = tmp_path / "m.tensors"
        save_tensors(path, {"w": np.array([[1.5, -2.0]]), "s": np.array(3.0)},
                     {"kind": "x y"})
        header = b"tensors 2\nmeta kind x y\ntensor w 2 1 2\ntensor s 0\ndata 24\n"
        assert path.read_bytes() == header + struct.pack("<3d", 1.5, -2.0, 3.0)

    @pytest.mark.parametrize("value", ["a\rb", "a\x0cb", "a\u2028b", "\t",
                                       " lead and trail ", ""])
    def test_meta_values_with_line_breaking_whitespace_round_trip(
            self, tmp_path, value):
        path = tmp_path / "m.tensors"
        save_tensors(path, {"a": np.zeros(1)}, {"k": value, "after": "v"})
        assert load_tensors(path)[1] == {"k": value, "after": "v"}

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\rb", "a\u2028b",
                                      "a\x0cb", "a\nb"])
    def test_rejects_empty_or_whitespace_names_and_keys(self, tmp_path, name):
        with pytest.raises(ValueError, match="whitespace"):
            save_tensors(tmp_path / "m", {name: np.zeros(1)})
        with pytest.raises(ValueError, match="whitespace"):
            save_tensors(tmp_path / "m", {"a": np.zeros(1)}, {name: "v"})

    def test_rejects_newline_in_meta_value(self, tmp_path):
        with pytest.raises(ValueError, match="single line"):
            save_tensors(tmp_path / "m", {}, {"k": "a\nb"})

    def test_missing_entries_name_the_file(self, tmp_path):
        path = tmp_path / "m.tensors"
        save_tensors(path, {"a": np.zeros(1)}, {"k": "v"})
        tensors, meta = load_tensors(path)
        with pytest.raises(ValueError, match=r"m\.tensors: no tensor 'b'"):
            tensors["b"]
        with pytest.raises(ValueError, match=r"m\.tensors: no meta key 'j'"):
            meta["j"]
        assert meta.get("j") is None

    def test_checked_reads_name_the_file_and_entry(self, tmp_path):
        path = tmp_path / "m.tensors"
        save_tensors(path, {"a": np.zeros((2, 3))},
                     {"n": "7", "x": "0.25", "word": "ten", "half": "1.5",
                      "inf": "inf", "nan": "nan"})
        tensors, meta = load_tensors(path)
        assert tensors.shaped("a", 2, None).shape == (2, 3)
        for shape in ((3, 2), (2,), (2, 3, 1), (None, 4)):
            with pytest.raises(ValueError, match=r"m\.tensors: tensor 'a' "
                               r"has shape \(2, 3\)"):
                tensors.shaped("a", *shape)
        assert (meta.integer("n"), meta.real("x"), meta.real("n")) == (7, 0.25, 7.0)
        for key, read in (("word", meta.integer), ("half", meta.integer),
                          ("word", meta.real), ("inf", meta.real),
                          ("nan", meta.real)):
            with pytest.raises(ValueError,
                               match=rf"m\.tensors: meta '{key}' is not"):
                read(key)


V2_HEAD = b"tensors 2\n"
NAN = struct.pack("<d", float("nan"))
MALFORMED = [
    # (file bytes, header line named in the message or None)
    (b"", None),
    (b"tensors\n", None),
    (b"tensors x\n", 1),
    (b"tensors -2\n", 1),
    (b"\xff\xfe\n", 1),
    (b"tensors 3\n", None),
    (V2_HEAD + b"tensor a\ndata 0\n", 2),
    (V2_HEAD + b"tensor a 1\ndata 0\n", 2),
    (V2_HEAD + b"tensor a 1 x\ndata 8\n" + bytes(8), 2),
    (V2_HEAD + b"tensor a 1 -1\ndata 0\n", 2),
    (V2_HEAD + b"tensor a 1 1.5\ndata 8\n" + bytes(8), 2),
    (V2_HEAD + b"tensor a x 1\ndata 8\n" + bytes(8), 2),
    (V2_HEAD + b"tensor a 1 1 1\ndata 8\n" + bytes(8), 2),
    (V2_HEAD + b"bogus 1\ndata 0\n", 2),
    (V2_HEAD + b"\ndata 0\n", 2),
    (V2_HEAD + b"meta k\ndata 0\n", 2),
    (V2_HEAD + b"meta k v\nmeta k w\ndata 0\n", 3),
    (V2_HEAD + b"tensor a 1 1\n", 3),
    (V2_HEAD + b"tensor a 1 1\ndata 8", 3),
    (V2_HEAD + b"tensor a 1 1\ndata x\n" + bytes(8), 3),
    (V2_HEAD + b"tensor a 1 1\ndata 16\n" + bytes(16), 3),
    (V2_HEAD + b"tensor a 1 1\n\xc3(\ndata 8\n" + bytes(8), 3),
    (V2_HEAD + b"tensor a 1 2\ndata 16\n" + bytes(8), None),
    (V2_HEAD + b"tensor a 1 2\ndata 16\n" + bytes(24), None),
    (V2_HEAD + b"tensor a 1 1\ndata 8\n" + NAN, None),
    (V2_HEAD + b"tensor a 0\ntensor b 1 1\ndata 16\n" + bytes(8)
     + struct.pack("<d", float("-inf")), None),
    (V2_HEAD + b"tensor a 1 1\ntensor a 1 1\ndata 16\n" + bytes(16), 3),
]


class TestMalformedFiles:
    @pytest.mark.parametrize("content,line", MALFORMED)
    def test_value_error_names_file_and_line(self, tmp_path, content, line):
        path = tmp_path / "bad.tensors"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load_tensors(path)
        assert str(path) in str(info.value)
        if line is not None:
            assert f"line {line}:" in str(info.value)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_binary_files_load_or_raise_value_error(
            self, tmp_path_factory, data):
        content = bytearray(_valid_v2_file())
        action = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
        if action == "truncate":
            del content[data.draw(st.integers(0, len(content))):]
        elif action == "extend":
            content += data.draw(st.binary(min_size=1, max_size=16))
        else:
            for _ in range(data.draw(st.integers(1, 4))):
                pos = data.draw(st.integers(0, len(content) - 1))
                content[pos] ^= data.draw(st.integers(1, 255))
        self._load_or_value_error(tmp_path_factory, bytes(content))

    V1_TOKENS = ["tensors", "tensor", "meta", "1", "2", "0", "-1", "x", "a",
                 "b", "3.5", "nan", "1e999", "\n", " ", "\t", "\r", "\u2028"]

    @settings(max_examples=200, deadline=None)
    @given(prefix=st.sampled_from(["tensors 1\n", "tensors 1 ", ""]),
           tokens=st.lists(st.sampled_from(V1_TOKENS), max_size=30))
    def test_random_text_files_load_or_raise_value_error(
            self, tmp_path_factory, prefix, tokens):
        text = prefix + " ".join(tokens)
        self._load_or_value_error(tmp_path_factory, text.encode("utf-8"))

    @staticmethod
    def _load_or_value_error(tmp_path_factory, content: bytes):
        path = tmp_path_factory.getbasetemp() / "fuzzed.tensors"
        path.write_bytes(content)
        try:
            tensors, _ = load_tensors(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            for array in tensors.values():
                assert np.isfinite(array).all()


class TestPayloadReads:
    def test_zero_size_tensors_round_trip(self, tmp_path):
        tensors = {"empty": np.zeros((0, 3)), "none": np.zeros(0),
                   "one": np.array(2.5), "flat": np.zeros((4, 0, 2))}
        for kept in (tensors, {k: v for k, v in tensors.items() if v.size == 0}):
            path = tmp_path / "m.tensors"
            save_tensors(path, kept)
            loaded, _ = load_tensors(path)
            assert list(loaded) == list(kept)
            for name, array in kept.items():
                got = loaded[name]
                assert got.shape == array.shape
                assert got.tobytes() == array.tobytes()
                assert got.flags.writeable and got.flags.c_contiguous
            assert_views_of_one_payload(loaded, kept)

    @pytest.mark.parametrize("payload,held", [(8, 8), (0, 0), (24, 24),
                                              (17, 17)])
    def test_payload_of_the_wrong_length_keeps_its_message(self, tmp_path,
                                                           payload, held):
        path = tmp_path / "m.tensors"
        path.write_bytes(V2_HEAD + b"tensor a 1 2\ndata 16\n" + bytes(payload))
        with pytest.raises(ValueError) as info:
            load_tensors(path)
        assert str(info.value) == (f"{path}: payload holds {held} bytes, "
                                   "the header declares 16")

    def test_first_non_finite_tensor_is_named(self, tmp_path):
        path = tmp_path / "m.tensors"
        path.write_bytes(V2_HEAD + b"tensor a 1 1\ntensor b 1 2\ntensor c 0\n"
                         b"data 32\n" + struct.pack("<4d", 1.0, 2.0, float("nan"),
                                                     float("inf")))
        with pytest.raises(ValueError) as info:
            load_tensors(path)
        assert str(info.value) == (f"{path}: tensor 'b' contains non-finite "
                                   "values")

    def test_peak_memory_is_about_one_payload(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"big": rng.normal(size=(512, 600)), "mid": rng.normal(size=9000),
                   "small": rng.normal(size=(3, 4)), "empty": np.zeros(0)}
        path = tmp_path / "m.tensors"
        save_tensors(path, tensors)
        payload = sum(array.nbytes for array in tensors.values())
        tracemalloc.start()
        try:
            loaded, _ = load_tensors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(loaded[name].tobytes() == array.tobytes()
                   for name, array in tensors.items())
        # the payload itself, plus its finiteness mask
        assert peak <= 1.25 * payload + 64 * 1024, (peak, payload)
