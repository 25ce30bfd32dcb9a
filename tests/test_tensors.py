import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maup.errors import DataError, FormatError, MaupError
from maup.tensors import (
    BitMask,
    FeatureMap,
    ScalarMap,
    load_tensor,
    save_tensor,
)


def header(dtype, rank, dims, magic=b"MAUP", version=1, reserved=0):
    return struct.pack("<4sBBBB", magic, version, dtype, rank, reserved) + b"".join(
        struct.pack("<I", d) for d in dims
    )


class TestRoundTrip:
    def test_feature_map_example(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        path = tmp_path / "t.maup"
        save_tensor(FeatureMap(data), path)
        loaded = load_tensor(path)
        assert isinstance(loaded, FeatureMap)
        assert (loaded.channels, loaded.height, loaded.width) == (2, 2, 2)
        assert np.array_equal(loaded.data, data)

    def test_feature_maps_bitwise(self, tmp_path):
        path = tmp_path / "t.maup"
        for seed in range(100):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((3, 5, 7)).astype(np.float32)
            save_tensor(FeatureMap(data), path)
            loaded = load_tensor(path, expect=FeatureMap)
            assert loaded.data.tobytes() == data.tobytes()

    def test_scalar_maps_bitwise_fuzz(self, tmp_path):
        path = tmp_path / "s.maup"
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            vals = (rng.standard_normal((h, w)) * 10).astype(np.float32)
            save_tensor(ScalarMap(vals), path)
            loaded = load_tensor(path, expect=ScalarMap)
            assert loaded.values.tobytes() == vals.tobytes()

    def test_scalar_exact_values(self, tmp_path):
        vals = np.array([[-1.5, 0.0], [2.25, -1.5]], dtype=np.float32)
        path = tmp_path / "s.maup"
        save_tensor(ScalarMap(vals), path)
        assert np.array_equal(load_tensor(path).values, vals)

    def test_bitmask_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        bits = (rng.random((6, 4)) < 0.5).astype(np.uint8)
        path = tmp_path / "m.maup"
        save_tensor(BitMask(bits), path)
        loaded = load_tensor(path, expect=BitMask)
        assert np.array_equal(loaded.bits, bits)

    def test_zero_mask_file_bytes(self, tmp_path):
        path = tmp_path / "z.maup"
        save_tensor(BitMask(np.zeros((2, 2), dtype=np.uint8)), path)
        assert path.read_bytes() == header(2, 2, (2, 2)) + b"\x00" * 4


class TestHeaderValidation:
    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "bad.maup"
        path.write_bytes(header(1, 2, (0, 4)))
        with pytest.raises(FormatError):
            load_tensor(path)

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"MAU",
            header(1, 2, (2, 2), magic=b"PUAM") + b"\x00" * 16,
            header(1, 2, (2, 2), version=2) + b"\x00" * 16,
            header(3, 2, (2, 2)) + b"\x00" * 16,
            header(1, 4, (2, 2, 2, 2)) + b"\x00" * 64,
            header(1, 2, (2, 2), reserved=9) + b"\x00" * 16,
            header(1, 2, (2, 2)) + b"\x00" * 12,  # truncated payload
            header(1, 2, (2, 2)) + b"\x00" * 20,  # trailing junk
            header(2, 2, (3,)),  # dim table shorter than rank
        ],
    )
    def test_malformed(self, tmp_path, blob):
        path = tmp_path / "bad.maup"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            load_tensor(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.maup"
        payload = np.array([[np.nan, 0.0]], dtype="<f4")
        path.write_bytes(header(1, 2, (1, 2)) + payload.tobytes())
        with pytest.raises(DataError, match="non-finite") as exc:
            load_tensor(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_mask_payload_with_two(self, tmp_path):
        path = tmp_path / "two.maup"
        path.write_bytes(header(2, 2, (1, 2)) + bytes([0, 2]))
        with pytest.raises(DataError, match="0 or 1") as exc:
            load_tensor(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_loaded_arrays_own_one_writable_copy(self, tmp_path):
        # the payload is copied once: no view pins the file's bytes
        tensors = (
            FeatureMap(np.ones((2, 2, 3), dtype=np.float32)),
            ScalarMap(np.ones((2, 3), dtype=np.float32)),
            BitMask(np.eye(3, dtype=np.uint8)),
        )
        for i, t in enumerate(tensors):
            save_tensor(t, tmp_path / f"{i}.maup")
            loaded = load_tensor(tmp_path / f"{i}.maup")
            arr = {FeatureMap: "data", ScalarMap: "values", BitMask: "bits"}[type(loaded)]
            arr = getattr(loaded, arr)
            assert arr.flags.writeable and arr.flags.owndata and arr.base is None

    def test_rank3_u8_has_no_type(self, tmp_path):
        path = tmp_path / "u8r3.maup"
        path.write_bytes(header(2, 3, (1, 1, 2)) + bytes([0, 1]))
        with pytest.raises(FormatError, match="rank-3 uint8"):
            load_tensor(path)

    def test_expect_mismatch(self, tmp_path):
        path = tmp_path / "s.maup"
        save_tensor(ScalarMap(np.zeros((2, 2), dtype=np.float32)), path)
        with pytest.raises(FormatError, match="caller requested BitMask"):
            load_tensor(path, expect=BitMask)
        with pytest.raises(FormatError, match="caller requested FeatureMap"):
            load_tensor(path, expect=FeatureMap)


@st.composite
def tensor_files(draw):
    """Arbitrary bytes, or a valid header with at most one field broken, followed by
    a payload of about the size its dims ask for (any bytes, so NaN and 2 occur)."""
    kinds = [None, None, "bytes", "magic", "version", "dtype", "rank", "reserved", "dims", "size"]
    broken = draw(st.sampled_from(kinds))
    if broken == "bytes":
        return draw(st.binary(max_size=64))

    def field(name, valid, invalid):
        return draw(st.sampled_from(invalid if broken == name else valid))

    magic, version = field("magic", [b"MAUP"], [b"MAUQ"]), field("version", [1], [0, 2])
    dtype, rank = field("dtype", [1, 2], [0, 3]), field("rank", [2, 3], [1, 4])
    reserved = field("reserved", [0], [1])
    if broken == "dims":  # any count, zero and huge dims, products past int64
        dim = st.one_of(st.integers(0, 4), st.sampled_from([2**21, 2**22, 2**32 - 1]))
        dims = draw(st.lists(dim, max_size=4))
    else:
        dims = draw(st.lists(st.integers(1, 4), min_size=rank, max_size=rank))
    size = int(np.prod(dims, dtype=object)) * (4 if dtype == 1 else 1)
    size = max(0, (size if size <= 256 else draw(st.integers(0, 256))) + field("size", [0], [-1, 1]))
    return header(dtype, rank, dims, magic, version, reserved) + draw(st.binary(min_size=size, max_size=size))


class TestLoadFuzz:
    @settings(deadline=None, max_examples=400)
    @given(raw=tensor_files())
    # dims whose product wraps to 0 in int64 next to an empty payload
    @example(raw=header(1, 3, [2**22, 2**21, 2**21]))
    @example(raw=header(2, 2, [2**32 - 1, 2**32 - 1]))
    def test_loads_a_round_tripping_tensor_or_raises_a_maup_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "t.maup"
        path.write_bytes(raw)
        try:
            tensor = load_tensor(path)
        except MaupError:
            return
        save_tensor(tensor, path)
        assert path.read_bytes() == raw


class TestTypes:
    def test_indexing_convention(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((4, 5, 6)).astype(np.float32)
        fm = FeatureMap(data)
        flat = fm.data.ravel()
        for c, y, x in [(0, 0, 0), (1, 2, 3), (3, 4, 5), (2, 0, 5)]:
            assert flat[c * 5 * 6 + y * 6 + x] == fm.data[c, y, x]

    def test_feature_map_rejects_nan(self):
        bad = np.zeros((1, 2, 2), dtype=np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            FeatureMap(bad)

    def test_scalar_map_rejects_inf(self):
        with pytest.raises(DataError):
            ScalarMap(np.array([[np.inf]], dtype=np.float32))

    def test_bitmask_rejects_twos(self):
        with pytest.raises(DataError):
            BitMask(np.array([[0, 2]], dtype=np.uint8))
        with pytest.raises(DataError):
            BitMask(np.array([[0.5, 1.0]]))

    def test_bitmask_accepts_bool_and_counts(self):
        m = BitMask(np.array([[True, False], [True, True]]))
        assert m.foreground_count == 3
        assert m.bits.dtype == np.uint8

    def test_zero_dim_rejected(self):
        with pytest.raises(FormatError):
            ScalarMap(np.zeros((0, 3), dtype=np.float32))
        with pytest.raises(FormatError):
            FeatureMap(np.zeros((2, 0, 3), dtype=np.float32))

    def test_wrong_rank_rejected(self):
        with pytest.raises(FormatError):
            FeatureMap(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(FormatError):
            ScalarMap(np.zeros((2, 2, 2), dtype=np.float32))
        with pytest.raises(FormatError):
            BitMask(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_save_rejects_foreign_objects(self, tmp_path):
        with pytest.raises(TypeError):
            save_tensor(np.zeros((2, 2)), tmp_path / "x.maup")

    def test_compact_reprs(self):
        assert repr(FeatureMap(np.zeros((2, 3, 4), dtype=np.float32))) == "FeatureMap(C=2, H=3, W=4)"
        assert repr(ScalarMap(np.zeros((3, 4), dtype=np.float32))) == "ScalarMap(H=3, W=4)"
        assert repr(BitMask(np.ones((2, 2), dtype=np.uint8))) == "BitMask(H=2, W=2, fg=4)"

    def test_bitmask_zero_dim_rejected(self):
        with pytest.raises(FormatError):
            BitMask(np.zeros((0, 2), dtype=np.uint8))
